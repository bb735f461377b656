"""The memoized per-prime kernel and the bounded caches of f's values: every
value they hand out equals the uncached computation, and none of them grows
past its bound. Each class factor of the kernel equals the exact convolution
at its prime power, which reads no value of the kernel."""

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
    _local_factors,
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


def kernel_prime_powers():
    """(p, s) for every prime power p^s <= 2^12."""
    return [
        (p, s) for p in SMALL_PRIMES if p <= 1 << 12 for s in range(1, 13) if p**s <= 1 << 12
    ]


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
        info = _local_factors.cache_info()
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
        uncached = _local_factors.__wrapped__
        for f in kernel_functions():
            for p, s in kernel_prime_powers():
                cached, reference = _local_factors(f, p, s), uncached(f, p, s)
                assert cached == reference, (f.name, p, s)
                assert list(map(type, cached)) == list(map(type, reference)), (f.name, p, s)

    def test_each_class_factor_is_the_convolution_at_its_class(self):
        """Entry t of the factors of p^s is the transform at p^s of the order
        p^t, as the convolution sums it from c_{p^e} and f(p^(s-e))."""
        for f in kernel_functions():
            for p, s in kernel_prime_powers():
                factors = _local_factors(f, p, s)
                assert len(factors) == s + 1, (f.name, p, s)
                for t, factor in enumerate(factors):
                    assert factor == dft_exact_convolution(f, p**s, p**t), (f.name, p, s, t)

    def test_the_factors_at_epsilon_are_the_ramanujan_rule(self):
        """At eps, whose transform is the Ramanujan sum, entry t of the
        factors of p^s is c_{p^s} at class t, the package's one exact rule."""
        for p, s in kernel_prime_powers():
            factors = _local_factors(ramanujan._EPSILON, p, s)
            assert factors == tuple(ramanujan._prime_power_sum(p, s, t) for t in range(s + 1))


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
        hits = _local_factors.cache_info().hits
        dft_dispatch(get_function("J_2"), n, m)
        assert _local_factors.cache_info().hits - hits == len(factorize(n).factors)


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


def assert_same_verdicts(got, expected):
    """The same verdicts, each failure at the same (identity, n, m, expected),
    and the float values it shows within 1e-9: the row is an FFT and the
    single value a folded sum, two algorithms."""
    got, expected = list(got), list(expected)
    assert [identity for identity, _ in got] == [identity for identity, _ in expected]
    for (_, a), (_, b) in zip(got, expected):
        assert (a is None) == (b is None), (a, b)
        if a is not None:
            assert (a.identity, a.f_name, a.n, a.m, a.expected) == (
                b.identity, b.f_name, b.n, b.m, b.expected
            )
            assert abs(complex(a.got) - complex(b.got)) < 1e-9, (a, b)


class TestRamanujanAgreement:
    def test_residues_once_per_n_match_per_order_calls(self, monkeypatch):
        n_values = range(1, 40)
        monkeypatch.setattr(verify, "RAMANUJAN_FLOAT_LIMIT", 30)
        config = SweepConfig(n_max=39)
        assert_same_verdicts(
            check_ramanujan_agreement(n_values, config),
            per_order_agreement(n_values, float_limit=30),
        )
        honest = ramanujan._von_sterneck
        monkeypatch.setattr(ramanujan, "_von_sterneck", lambda n, g: honest(n, g) + 1)
        got = list(check_ramanujan_agreement(n_values, config))
        assert_same_verdicts(got, per_order_agreement(n_values, float_limit=30))
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
