"""Transform evaluation paths against a literal complex-sum oracle and
against each other."""

import cmath
import math
import os
import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from gcdft.errors import DomainError, InconsistencyError, OracleScaleError
from gcdft.functions import (
    ID,
    LIOUVILLE,
    MU,
    ONE,
    PHI,
    SIGMA,
    TAU,
    ArithmeticFunction,
    catalog_names,
    dirichlet_convolve,
    evaluate,
    get_function,
    id_power,
    jordan_function,
    sum_function_of,
)
from gcdft import transform
from gcdft.numtheory import Factorization, divisor_tuple, divisors, factorize, totient
from gcdft.transform import (
    PATH_BRUTE_FLOAT,
    PATH_CLOSED_FORM,
    PATH_CONVOLUTION,
    _class_exponents,
    dft_brute_float,
    dft_brute_spectrum,
    dft_closed_form_completely_mult,
    dft_closed_form_gcd,
    dft_closed_form_multiplicative,
    dft_dispatch,
    dft_exact_convolution,
    exact_closed_form,
    gcd_power_sum,
    reduce_order,
)

CATALOG = [ONE, ID, id_power(2), id_power(3), PHI, MU, TAU, SIGMA, LIOUVILLE,
           jordan_function(2)]
COMPLETELY_MULT = [ONE, ID, id_power(2), id_power(3), LIOUVILLE]


def literal_dft(f, n, m):
    # direct translation of the defining sum; independent of every library path
    return sum(
        float(evaluate(f, math.gcd(k, n))) * cmath.exp(-2j * cmath.pi * k * m / n)
        for k in range(1, n + 1)
    )


def brute_gcd_power_sum(f, n):
    return sum(evaluate(f, math.gcd(k, n)) for k in range(1, n + 1))


class TestReduceOrder:
    def test_in_range(self):
        assert reduce_order(5, 12) == 5
        assert reduce_order(12, 12) == 12

    def test_wraps(self):
        assert reduce_order(13, 12) == 1
        assert reduce_order(24, 12) == 12
        assert reduce_order(0, 12) == 12
        assert reduce_order(-1, 12) == 11

    def test_zero_n_is_a_domain_error(self):
        with pytest.raises(DomainError):
            reduce_order(5, 0)


def gcd_multiplicity(g, p):
    t = 0
    while g % p == 0:
        g //= p
        t += 1
    return t


class TestDecomposeOrder:
    """An order decomposed over the primes of n, as far as a closed form
    reads it: the gcd class exponents from ``_class_exponents``."""

    def test_coprime_order(self):
        assert _class_exponents(factorize(12), 1) == (0, 0)

    def test_order_equals_n(self):
        for n in (12, 360, 7):
            fac = factorize(n)
            full = tuple(s for _, s in fac.factors)
            assert _class_exponents(fac, n) == full
            assert _class_exponents(fac, 5 * n) == full

    def test_mixed(self):
        assert _class_exponents(factorize(12), 10) == (1, 0)

    def test_zero_and_negative_orders(self):
        # gcd(0, n) = n and gcd(-m, n) = gcd(m, n): the classes reduce_order gave
        fac = factorize(12)
        assert _class_exponents(fac, 0) == (2, 1)
        assert _class_exponents(fac, -10) == (1, 0)
        assert _class_exponents(fac, -1) == (0, 0)
        for m in range(-36, 37):
            assert _class_exponents(fac, m) == _class_exponents(fac, reduce_order(m, 12))

    def test_invariants_random(self):
        rng = random.Random(5)
        for _ in range(500):
            n = rng.randrange(1, 3000)
            m = rng.randrange(-3000, 3000)
            fac = factorize(n)
            exponents = _class_exponents(fac, m)
            g = math.gcd(m, n)
            for (p, s), t in zip(fac.factors, exponents):
                # t <= s is the multiplicity of p in gcd(m, n)
                assert t <= s
                assert t == gcd_multiplicity(g, p)
            assert math.prod(p**t for (p, _), t in zip(fac.factors, exponents)) == g

    @pytest.mark.parametrize("m", [2.5, 2.0, True, "3", None])
    def test_non_integer_orders_rejected(self, m):
        with pytest.raises(DomainError):
            dft_closed_form_multiplicative(SIGMA, 12, m)
        with pytest.raises(DomainError):
            dft_exact_convolution(SIGMA, 12, m)


class TestBruteFloat:
    def test_spec_values(self):
        assert dft_brute_float(ID, 6, 2) == pytest.approx(6)
        assert dft_brute_float(ID, 1, 1) == pytest.approx(1)
        assert dft_brute_float(ID, 5, 5) == pytest.approx(9)

    def test_matches_literal_sum(self):
        for f in (ID, TAU):
            for n in range(1, 41):
                for m in range(1, n + 1):
                    assert dft_brute_float(f, n, m) == pytest.approx(
                        literal_dft(f, n, m), abs=1e-9
                    )

    def test_spectrum_matches_literal(self):
        for f in (ID, SIGMA):
            for n in (1, 2, 12, 45):
                spectrum = dft_brute_spectrum(f, n)
                for m in range(1, n + 1):
                    assert spectrum[m % n] == pytest.approx(
                        literal_dft(f, n, m), abs=1e-9
                    )

    def test_scale_refusal(self):
        with pytest.raises(OracleScaleError):
            dft_brute_float(ID, 10**6 + 1, 1)

    @pytest.mark.parametrize("name", catalog_names())
    def test_spectrum_matches_per_k_fft(self, name):
        f = get_function(name)
        for n in range(1, 61):
            reference = np.fft.fft(
                [float(evaluate(f, math.gcd(k, n))) for k in range(n)]
            )
            np.testing.assert_array_equal(dft_brute_spectrum(f, n), reference)


class TestGcdBuckets:
    @staticmethod
    def assert_classes(n):
        divs, index = transform._gcd_buckets(n)
        assert divs == divisor_tuple(n)
        assert index.dtype == np.uint8
        k = np.arange(1, n + 1)
        np.testing.assert_array_equal(np.array(divs)[index], np.gcd(k, n))

    def test_sieve_matches_gcd(self):
        for n in range(1, 2001):
            self.assert_classes(n)

    def test_240_divisors_fit_in_uint8(self):
        n = 720720
        assert len(divisor_tuple(n)) == 240
        self.assert_classes(n)

    def test_non_divisor_raises(self, monkeypatch):
        transform._gcd_buckets.cache_clear()
        monkeypatch.setattr(transform, "divisor_tuple", lambda n: (1, 2, 5, 12))
        with pytest.raises(InconsistencyError):
            transform._gcd_buckets(12)


class TestGcdSequence:
    """The brute oracles' sequence is sieved straight from f's values, with
    no class index: it must equal the gather through ``_gcd_buckets``."""

    RATIONAL = ArithmeticFunction.multiplicative(
        "rational", lambda p, e: Fraction(e - 2, p + e), integer_valued=False
    )

    def functions(self):
        return [get_function(name) for name in catalog_names()] + [
            get_function("id_-1"),
            self.RATIONAL,
        ]

    def test_equals_bucket_gather(self):
        functions = self.functions()
        for n in list(range(1, 1501)) + [720720]:
            divs, index = transform._gcd_buckets(n)
            for f in functions:
                gathered = np.array([float(evaluate(f, d)) for d in divs])[index]
                np.testing.assert_array_equal(transform._gcd_sequence(f, n), gathered)

    def test_oracles_do_not_read_the_class_index(self, monkeypatch):
        def refuse(n):
            raise AssertionError("the brute oracles must not build a class index")

        monkeypatch.setattr(transform, "_gcd_buckets", refuse)
        for f in (SIGMA, self.RATIONAL):
            for n, m in ((1, 1), (12, 5), (360, 24), (1001, 7)):
                exact = float(dft_exact_convolution(f, n, m))
                assert dft_brute_float(f, n, m) == pytest.approx(exact, rel=1e-12, abs=1e-9)
                spectrum = dft_brute_spectrum(f, n)
                assert spectrum[m % n] == pytest.approx(exact, rel=1e-12, abs=1e-9)

    def test_non_divisor_raises_in_both_oracles(self, monkeypatch):
        monkeypatch.setattr(transform, "divisor_tuple", lambda n: (1, 2, 5, 12))
        with pytest.raises(InconsistencyError):
            dft_brute_float(ID, 12, 1)
        with pytest.raises(InconsistencyError):
            dft_brute_spectrum(ID, 12)


class TestConvolutionPath:
    def test_coprime_order_is_totient(self):
        assert dft_exact_convolution(ID, 12, 5) == 4

    def test_constant_one_at_order_n(self):
        for n in (6, 12, 30, 100):
            assert dft_exact_convolution(ONE, n, n) == n

    def test_spec_value(self):
        assert dft_exact_convolution(ID, 6, 2) == 6


class TestClosedFormGcd:
    def test_prime_power_coprime(self):
        assert dft_closed_form_gcd(9, 2) == totient(9) == 6

    def test_table_one_cell(self):
        # n = pq at order q: (p-1)(2q-1)
        assert dft_closed_form_gcd(6, 3) == 5

    def test_order_n(self):
        assert dft_closed_form_gcd(12, 12) == 40
        assert sum(math.gcd(k, 12) for k in range(1, 13)) == 40

    def test_empty_product(self):
        for m in (1, 5):
            assert dft_closed_form_gcd(1, m) == 1


class TestClosedFormMultiplicative:
    def test_recovers_gcd_form(self):
        assert dft_closed_form_multiplicative(ID, 12, 12) == 40

    def test_coprime_order_collapses_to_difference_product(self):
        assert dft_closed_form_multiplicative(ID, 12, 1) == 4

    def test_tau_case(self):
        assert dft_closed_form_multiplicative(TAU, 4, 2) == 3
        brute = literal_dft(TAU, 4, 2)
        assert brute == pytest.approx(3)

    def test_rejects_general_kind(self):
        f = ArithmeticFunction.from_table("t", {1: 1})
        with pytest.raises(DomainError):
            dft_closed_form_multiplicative(f, 4, 2)


class TestClosedFormCompletelyMult:
    def test_square_power(self):
        assert dft_closed_form_completely_mult(id_power(2), 9, 3) == 96

    def test_constant_one_vanishes(self):
        assert dft_closed_form_completely_mult(ONE, 6, 1) == 0
        assert literal_dft(ONE, 6, 1) == pytest.approx(0)

    def test_identity_falls_back_per_factor(self):
        assert dft_closed_form_completely_mult(ID, 4, 4) == 8
        assert dft_closed_form_gcd(4, 4) == 8

    def test_mixed_degenerate_prime(self):
        # f(2) = 2 forces the fallback at p = 2 only
        f = ArithmeticFunction.completely_multiplicative(
            "mixed", lambda p: p if p == 2 else p * p
        )
        for n in (12, 72, 360):
            for m in divisors(n) + [5, 7]:
                assert dft_closed_form_completely_mult(
                    f, n, m
                ) == dft_closed_form_multiplicative(f, n, m)

    def test_zero_valued_prime_degenerate(self):
        # f(p) = 0 goes through the general ratio, whose a^(s-t-1) and
        # a^(s-t) read 0^0 = 1 at t = s - 1 and t = s
        f = ArithmeticFunction.completely_multiplicative(
            "vanishing", lambda p: 0 if p == 2 else p
        )
        for n in (8, 24, 48):
            for m in divisors(n):
                assert dft_closed_form_completely_mult(
                    f, n, m
                ) == dft_closed_form_multiplicative(f, n, m)

    def test_rejects_merely_multiplicative(self):
        with pytest.raises(DomainError):
            dft_closed_form_completely_mult(PHI, 4, 2)

    def test_reads_the_rule_once_per_prime(self):
        calls = []
        f = ArithmeticFunction.completely_multiplicative("count", lambda p: calls.append(p) or p * p)
        assert dft_closed_form_completely_mult(f, 720, 12) == dft_closed_form_multiplicative(
            id_power(2), 720, 12
        )
        assert calls == [2, 3, 5]

    def test_rational_values_with_degenerate_primes(self):
        # f(2) = p and f(3) = 0 take the degenerate sums, the other primes
        # Fraction ratios; value and type must be the per-prime product's
        f = ArithmeticFunction.completely_multiplicative(
            "rational-degenerate",
            lambda p: 2 if p == 2 else 0 if p == 3 else Fraction(1, p),
            integer_valued=False,
        )
        for n in range(1, 201):
            fac = factorize(n)
            for m in range(-n, 2 * n + 1):
                value = dft_closed_form_completely_mult(f, fac, m)
                expected = dft_closed_form_multiplicative(f, fac, m)
                assert (value, type(value)) == (expected, type(expected)), (n, m)

    def test_degenerate_primes_use_closed_sums_not_the_kernel(self, monkeypatch):
        # only f(p) = p zeroes the geometric denominator a - p, and f(p) = 0
        # relies on 0^0 = 1 in the general ratio; either way the oracle must
        # stay independent of the per-prime kernel it checks
        functions = [
            ID,
            ArithmeticFunction.completely_multiplicative(
                "mixed", lambda p: p if p == 2 else p * p
            ),
            ArithmeticFunction.completely_multiplicative(
                "vanishing", lambda p: 0 if p == 2 else p
            ),
        ]
        grid = [(f, n, m) for f in functions for n in range(1, 400) for m in divisors(n) + [5, 7]]
        expected = [dft_closed_form_multiplicative(f, n, m) for f, n, m in grid]

        def refuse(*args):
            raise AssertionError("the geometric oracle called the per-prime kernel")

        monkeypatch.setattr(transform, "_local_factors", refuse)
        assert [dft_closed_form_completely_mult(f, n, m) for f, n, m in grid] == expected


class TestGcdPowerSum:
    def test_pillai_example(self):
        assert gcd_power_sum(ID, 8) == 20
        assert brute_gcd_power_sum(ID, 8) == 20

    def test_trivial(self):
        assert gcd_power_sum(ID, 1) == 1

    def test_squares(self):
        assert gcd_power_sum(id_power(2), 6) == 55
        assert brute_gcd_power_sum(id_power(2), 6) == 55

    def test_equals_brute_sum(self):
        for f in (ID, TAU, SIGMA, PHI, id_power(2)):
            for n in range(1, 151):
                assert gcd_power_sum(f, n) == brute_gcd_power_sum(f, n)

    def test_equals_transform_at_order_n(self):
        for f in CATALOG:
            for n in range(1, 301):
                assert gcd_power_sum(f, n) == dft_closed_form_multiplicative(f, n, n)

    def test_general_kind_is_f_convolved_with_phi(self):
        f = ArithmeticFunction.from_table("table", {1: 2, 2: -1, 3: 5, 6: 7})
        assert gcd_power_sum(f, 6) == 14
        tables = ({k: k % 7 - 3 for k in range(1, 31)},
                  {k: Fraction(k % 7 - 3, 1 + k % 4) for k in range(1, 31)})
        for table in tables:
            f = ArithmeticFunction.from_table("general", table, integer_valued=False)
            for n in range(1, 31):
                value = gcd_power_sum(f, n)
                assert value == brute_gcd_power_sum(f, n) == dirichlet_convolve(f, PHI, n), n


class TestExactClosedForm:
    GENERAL = ArithmeticFunction.from_table(
        "general",
        {k: Fraction(k % 7 - 3, 1 + k % 4) for k in range(1, 61)},
        integer_valued=False,
    )

    @pytest.mark.parametrize("name", catalog_names() + ["id_-1", "general"])
    def test_matches_dispatch(self, name):
        f = self.GENERAL if name == "general" else get_function(name)
        for n in range(1, 61):
            for m in range(1, n + 1):
                closed = exact_closed_form(f, n, m)
                if f is self.GENERAL:
                    assert closed is None
                else:
                    assert closed == dft_dispatch(f, n, m).value, (n, m)

    def test_identity_takes_the_per_prime_product(self, monkeypatch):
        # Schramm's product is an oracle only; dispatch never reaches it
        def unreachable(n, m):
            raise AssertionError("dispatch used the id-only product")

        monkeypatch.setattr(transform, "dft_closed_form_gcd", unreachable)
        for n in (1, 12, 360, 720720):
            for m in divisors(n):
                # this module's name still holds the unpatched product
                assert exact_closed_form(ID, n, m) == dft_closed_form_gcd(n, m)
                report = dft_dispatch(ID, n, m, verify=n < 1000)
                assert report.value == dft_exact_convolution(ID, n, m), (n, m)

    def test_integer_valued_closed_forms_are_ints(self):
        for name in catalog_names():
            f = get_function(name)
            for n in (1, 12, 360, 720720):
                for m in divisors(n):
                    assert type(exact_closed_form(f, n, m)) is int, (name, n, m)
                    assert type(dft_exact_convolution(f, n, m)) is int, (name, n, m)
                    if f in COMPLETELY_MULT:
                        assert type(dft_closed_form_completely_mult(f, n, m)) is int

    def test_geometric_oracle_never_returns_a_float(self):
        for f in (id_power(2), id_power(-1), id_power(-2), LIOUVILLE):
            for n in (12, 360, 2**6 * 3**3):
                for m in divisors(n) + [5, 7]:
                    value = dft_closed_form_completely_mult(f, n, m)
                    assert isinstance(value, (int, Fraction)), (f.name, n, m, value)
                    assert value == dft_closed_form_multiplicative(f, n, m)


class TestDispatch:
    def test_all_paths_agree(self):
        report = dft_dispatch(ID, 6, 2, verify=True)
        assert report.value == 6
        assert report.paths_agreeing == {
            PATH_BRUTE_FLOAT,
            PATH_CONVOLUTION,
            PATH_CLOSED_FORM,
        }

    def test_trivial(self):
        assert dft_dispatch(ID, 1, 1).value == 1

    def test_repr_is_the_same_under_every_hash_seed(self):
        code = (
            "from gcdft.functions import get_function\n"
            "from gcdft.transform import dft_dispatch\n"
            "print(repr(dft_dispatch(get_function('sigma'), 360, 7, verify=True)))"
        )
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        # the eight interpreters start side by side; most of each one's time
        # is importing numpy
        runs = [
            subprocess.Popen(
                [sys.executable, "-c", code],
                env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=str(seed)),
                stdout=subprocess.PIPE, text=True,
            )
            for seed in range(8)
        ]
        reprs = {run.communicate()[0] for run in runs}
        assert [run.returncode for run in runs] == [0] * 8
        assert reprs == {repr(dft_dispatch(SIGMA, 360, 7, verify=True)) + "\n"}

    def test_multiplicative_catalog_entry(self):
        report = dft_dispatch(PHI, 10, 3, verify=True)
        assert report.value == 0
        assert report.m_reduced == 3

    def test_order_reduction(self):
        assert dft_dispatch(ID, 12, 0).m_reduced == 12
        assert dft_dispatch(ID, 12, -7).m_reduced == 5
        assert dft_dispatch(ID, 12, 17).value == dft_dispatch(ID, 12, 5).value

    def test_general_function_uses_convolution(self):
        table = {d: d for d in divisors(12)}
        f = ArithmeticFunction.from_table("id-table", table)
        report = dft_dispatch(f, 12, 5, verify=True)
        assert report.value == 4
        assert PATH_CONVOLUTION in report.paths_agreeing

    def test_integer_results_are_ints(self):
        report = dft_dispatch(SIGMA, 36, 6)
        assert isinstance(report.value, int)

    def test_function_merely_named_id_is_not_id(self):
        # the Schramm product belongs to the id object, not to its name
        fake = ArithmeticFunction.multiplicative("id", lambda p, e: e + 1)
        report = dft_dispatch(fake, 12, 5, verify=True)
        assert report.value == dft_exact_convolution(fake, 12, 5) == 1
        assert dft_dispatch(fake, 12, 5).value == dft_dispatch(TAU, 12, 5).value

    @pytest.mark.parametrize("bad", [12.0, True, "12"])
    def test_non_integer_inputs_rejected(self, bad):
        with pytest.raises(DomainError):
            dft_dispatch(ID, bad, 1)
        with pytest.raises(DomainError):
            dft_dispatch(ID, 12, bad)

    def test_verify_on_a_squared_large_prime_is_quick(self):
        # the convolution factorizes n again; the square root finds q at once
        q = 2**61 - 1
        start = time.perf_counter()
        report = dft_dispatch(SIGMA, Factorization(4 * q * q, ((2, 2), (q, 2))), 6, verify=True)
        assert time.perf_counter() - start < 1.0
        assert report.paths_agreeing == {PATH_CONVOLUTION, PATH_CLOSED_FORM}

    def test_float_check_is_relative_to_sequence_size(self):
        # h = 65851410688 here; the float sum's imaginary part is off by 2.8e-6
        report = dft_dispatch(jordan_function(2), 288774, 164704, verify=True)
        assert report.value == dft_exact_convolution(jordan_function(2), 288774, 164704)
        assert report.paths_agreeing == {
            PATH_BRUTE_FLOAT,
            PATH_CONVOLUTION,
            PATH_CLOSED_FORM,
        }


class TestPathEquivalence:
    def test_catalog_sweep(self):
        # exact equality of both exact paths plus float agreement, all orders
        for f in CATALOG:
            for n in range(1, 501):
                spectrum = dft_brute_spectrum(f, n)
                for m in range(1, n + 1):
                    exact = dft_exact_convolution(f, n, m)
                    closed = dft_closed_form_multiplicative(f, n, m)
                    assert exact == closed, (f.name, n, m)
                    approx = spectrum[m % n]
                    assert abs(approx.real - float(exact)) < 1e-6
                    assert abs(approx.imag) < 1e-6
                    if f.integer_valued:
                        assert exact.denominator == 1

    def test_rational_valued_function(self):
        f = id_power(-1)
        for n in range(1, 61):
            for m in range(1, n + 1):
                assert dft_exact_convolution(f, n, m) == (
                    dft_closed_form_completely_mult(f, n, m)
                )

    def test_brute_float_spot_checks(self):
        rng = random.Random(17)
        for f in CATALOG:
            for _ in range(20):
                n = rng.randrange(1, 400)
                m = rng.randrange(1, 3 * n)
                exact = dft_exact_convolution(f, n, m)
                approx = dft_brute_float(f, n, m)
                assert abs(approx.real - float(exact)) < 1e-6
                assert abs(approx.imag) < 1e-6


class TestClosedFormIdentities:
    def test_gcd_form_equals_general_form_sampled(self):
        # sampled orders: 1, n, every divisor, plus seeded values (>= 50 per n)
        rng = random.Random(23)
        for n in range(1, 2001):
            orders = {1, n}
            orders.update(divisors(n))
            while len(orders) < min(50, 2 * n + 1):
                orders.add(rng.randrange(1, 2 * n + 2))
            for m in orders:
                assert dft_closed_form_gcd(n, m) == (
                    dft_closed_form_multiplicative(ID, n, m)
                ), (n, m)

    def test_geometric_form_equals_general_form_sweep(self):
        for f in COMPLETELY_MULT:
            for n in range(1, 501):
                for m in range(1, n + 1):
                    assert dft_closed_form_completely_mult(f, n, m) == (
                        dft_closed_form_multiplicative(f, n, m)
                    ), (f.name, n, m)

    def test_prime_power_case_split(self):
        # every theta/min branch on p^s, including orders beyond s
        for p in (2, 3, 5):
            for s in range(1, 7):
                n = p**s
                for t in range(0, s + 3):
                    for u in (1, p + 1):
                        m = reduce_order(u * p**t, n)
                        expected = dft_exact_convolution(ID, n, m)
                        assert dft_closed_form_gcd(n, m) == expected
                        assert dft_closed_form_multiplicative(TAU, n, m) == (
                            dft_exact_convolution(TAU, n, m)
                        )

    def test_prime_power_three_branch_form(self):
        # coprime order, partial order p^t (t < s), and full order p^s
        for p, s in ((2, 3), (3, 2), (5, 2)):
            n = p**s
            phi = totient(n)
            assert dft_closed_form_gcd(n, 1) == phi
            for t in range(1, s):
                assert dft_closed_form_gcd(n, p**t) == (t + 1) * phi
            assert dft_closed_form_gcd(n, n) == (s + 1) * phi + p ** (s - 1)


class TestStructuralProperties:
    def test_multiplicativity_in_n(self):
        rng = random.Random(29)
        for f in CATALOG:
            for _ in range(150):
                u = rng.randrange(1, 101)
                v = rng.randrange(1, 101)
                if math.gcd(u, v) != 1:
                    continue
                n = u * v
                for m in divisors(n) + [rng.randrange(1, n + 1)]:
                    whole = dft_closed_form_multiplicative(f, n, m)
                    split = dft_closed_form_multiplicative(
                        f, u, m
                    ) * dft_closed_form_multiplicative(f, v, m)
                    assert whole == split, (f.name, u, v, m)

    def test_gcd_dependence(self):
        for n in range(1, 201):
            for m in range(1, 3 * n + 1):
                g = math.gcd(m, n)
                assert dft_closed_form_gcd(n, m) == dft_closed_form_gcd(n, g)

    def test_coprime_order_totient(self):
        for n in range(1, 2001):
            phi = totient(n)
            for m in range(1, n + 1):
                if math.gcd(m, n) == 1:
                    assert dft_closed_form_gcd(n, m) == phi

    def test_sum_function_round_trip(self):
        # transform of a sum function at coprime order recovers the base function
        for t in (PHI, MU, ID):
            lifted = sum_function_of(t)
            for n in range(1, 301):
                for m in range(1, n + 1):
                    if math.gcd(m, n) == 1:
                        assert dft_exact_convolution(lifted, n, m) == evaluate(t, n)
                        break


class TestElementaryIdentities:
    # elementary facts the per-prime factors lean on, pinned directly

    def test_min_step_indicator(self):
        for t in range(0, 12):
            for s in range(0, 12):
                theta = 1 if t >= s + 1 else 0
                assert min(t, s) == min(t, s + 1) - theta

    def test_totient_prime_power_step(self):
        for p in (2, 3, 5, 7, 11):
            for s in range(1, 8):
                assert p * totient(p**s) == totient(p ** (s + 1))


class TestInconsistencyDetection:
    def test_perturbed_convolution_detected(self, fault):
        import gcdft.transform as transform

        fault("offset-convolution")
        with pytest.raises(InconsistencyError):
            transform.dft_dispatch(ID, 12, 5, verify=True)

    def test_perturbed_brute_detected(self, monkeypatch):
        import gcdft.transform as transform

        honest = transform.dft_brute_float
        monkeypatch.setattr(
            transform, "dft_brute_float",
            lambda f, n, m: honest(f, n, m) + 0.5,
        )
        with pytest.raises(InconsistencyError):
            transform.dft_dispatch(ID, 12, 5, verify=True)
