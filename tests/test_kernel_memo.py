"""The memoized per-prime kernel and the bounded caches of f's values: every
value they hand out equals the uncached computation, and none of them grows
past its bound."""

import random
from fractions import Fraction

import pytest

from gcdft import ramanujan, verify
from gcdft.errors import UndefinedValueError
from gcdft.functions import (
    SIGMA,
    ArithmeticFunction,
    _divisor_values,
    catalog_names,
    evaluate,
    get_function,
    id_power,
    sum_function,
)
from gcdft.numtheory import SMALL_PRIMES, Factorization, divisor_tuple, factorize, is_prime
from gcdft.ramanujan import (
    FLOAT_TOLERANCE,
    ramanujan_definition,
    ramanujan_kluyver,
    ramanujan_von_sterneck,
)
from gcdft.transform import (
    _local_factor,
    dft_closed_form_multiplicative,
    dft_dispatch,
    dft_exact_convolution,
)
from gcdft.verify import Failure, SweepConfig, check_ramanujan_agreement

RATIONAL = ArithmeticFunction.multiplicative(
    "rational", lambda p, e: Fraction(e - 2, p + e), integer_valued=False
)


def kernel_functions():
    return [get_function(name) for name in catalog_names()] + [id_power(-1), RATIONAL]


class TestKernelMemo:
    def test_bounded_after_many_distinct_primes(self):
        rng = random.Random(60)
        primes = set()
        while len(primes) < 5000:
            c = rng.getrandbits(60) | (1 << 59) | 1
            if is_prime(c):
                primes.add(c)
        for p in primes:
            fac = Factorization(p, ((p, 1),))
            assert dft_closed_form_multiplicative(SIGMA, fac, 1) == p  # sigma(p) - 1
        info = _local_factor.cache_info()
        assert info.maxsize is not None
        assert info.currsize <= info.maxsize

    def test_functions_sharing_a_name_keep_their_own_values(self):
        divisor_count = ArithmeticFunction.multiplicative("twin", lambda p, e: e + 1)
        power = ArithmeticFunction.multiplicative("twin", lambda p, e: p**e)
        for f in (divisor_count, power, divisor_count):
            for n in range(1, 41):
                for m in range(n + 1):
                    assert dft_closed_form_multiplicative(f, n, m) == dft_exact_convolution(
                        f, n, m
                    )
        assert dft_closed_form_multiplicative(divisor_count, 12, 12) == 28
        assert dft_closed_form_multiplicative(power, 12, 12) == 40  # Pillai's sum

    def test_cached_equals_uncached(self):
        uncached = _local_factor.__wrapped__
        prime_powers = [
            (p, s) for p in SMALL_PRIMES if p <= 1 << 12 for s in range(1, 13) if p**s <= 1 << 12
        ]
        for f in kernel_functions():
            for p, s in prime_powers:
                for t in range(s + 1):
                    cached, reference = _local_factor(f, p, s, t), uncached(f, p, s, t)
                    assert cached == reference, (f.name, p, s, t)
                    assert type(cached) is type(reference), (f.name, p, s, t)


class TestNamedFunctions:
    def test_one_name_is_one_object(self):
        for name in ("id_2", "id_-1", "J_3"):
            assert get_function(name) is get_function(name)
        for _ in range(2):
            with pytest.raises(UndefinedValueError):
                get_function("J_x")

    def test_named_function_keeps_its_kernel_memo(self):
        n, m = 720720, 7
        dft_dispatch(get_function("J_2"), n, m)
        hits = _local_factor.cache_info().hits
        dft_dispatch(get_function("J_2"), n, m)
        assert _local_factor.cache_info().hits - hits == len(factorize(n).factors)


def per_order_agreement(n_values, float_limit, tolerance=FLOAT_TOLERANCE):
    """check_ramanujan_agreement with the float definition evaluated from
    scratch at every (n, m)."""
    for n in n_values:
        for m in range(1, n + 1):
            exact = ramanujan_von_sterneck(n, m)
            other = ramanujan_kluyver(n, m)
            failure = None
            if exact != other:
                failure = Failure("ramanujan-exact-agreement", "-", n, m, str(exact), str(other))
            yield "ramanujan-exact-agreement", failure
            if n <= float_limit:
                approx = ramanujan_definition(n, m)
                failure = None
                if abs(approx.real - exact) >= tolerance or abs(approx.imag) >= tolerance:
                    failure = Failure(
                        "ramanujan-float-agreement", "-", n, m, str(exact), repr(approx)
                    )
                yield "ramanujan-float-agreement", failure


class TestRamanujanAgreement:
    def test_residues_once_per_n_match_per_order_calls(self, monkeypatch):
        n_values = range(1, 40)
        monkeypatch.setattr(verify, "RAMANUJAN_FLOAT_LIMIT", 30)
        config = SweepConfig(n_max=39)
        assert list(check_ramanujan_agreement(n_values, config)) == list(
            per_order_agreement(n_values, float_limit=30)
        )
        honest = ramanujan._von_sterneck
        monkeypatch.setattr(ramanujan, "_von_sterneck", lambda n, g: honest(n, g) + 1)
        got = list(check_ramanujan_agreement(n_values, config))
        assert got == list(per_order_agreement(n_values, float_limit=30))
        assert {identity for identity, failure in got if failure} == {
            "ramanujan-exact-agreement",
            "ramanujan-float-agreement",
        }


class TestMemoBounds:
    def test_divisor_values_after_eight_times_its_bound(self):
        sigma = ArithmeticFunction.multiplicative(
            "sigma", lambda p, e: (p ** (e + 1) - 1) // (p - 1)
        )
        maxsize = _divisor_values.cache_info().maxsize
        assert maxsize is not None
        for n in range(1, 8 * maxsize + 1):
            sum_function(sigma, n)
        assert 0 < _divisor_values.cache_info().currsize <= maxsize
        for n in (1, 2, 720, 8 * maxsize - 1, 8 * maxsize):
            values = _divisor_values(sigma, factorize(n))
            assert values == tuple(evaluate(SIGMA, n // d) for d in divisor_tuple(n))

    def test_divisor_values_key_f_by_identity(self):
        twins = [ArithmeticFunction.multiplicative("twin", lambda p, e: e + 1) for _ in range(2)]
        other = ArithmeticFunction.multiplicative("twin", lambda p, e: p**e)
        fac = factorize(12)
        misses = _divisor_values.cache_info().misses
        first, second, third = (_divisor_values(f, fac) for f in (*twins, other))
        assert _divisor_values.cache_info().misses - misses == 3
        assert first is not second and first == second
        # f(n/d) at the position of d in the lattice order (1, 3, 2, 6, 4, 12)
        assert [12 // d for d in divisor_tuple(12)] == [12, 4, 6, 2, 3, 1]
        assert first == (6, 3, 4, 2, 2, 1)
        assert third == (12, 4, 6, 2, 3, 1)
        assert _divisor_values(twins[0], fac) is first

    def test_prime_power_runs_the_rule_on_every_call(self):
        calls = []
        f = ArithmeticFunction.multiplicative(
            "square", lambda p, e: calls.append((p, e)) or p ** (2 * e)
        )
        for _ in range(3):
            assert [f.prime_power(p, e) for p in (2, 3, 97) for e in (1, 2, 5)] == [
                p ** (2 * e) for p in (2, 3, 97) for e in (1, 2, 5)
            ]
        assert calls == [(p, e) for p in (2, 3, 97) for e in (1, 2, 5)] * 3
