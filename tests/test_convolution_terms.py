"""The exact convolution on one path for an int n and a given Factorization
alike: only the nonzero Ramanujan terms, built from the primes of n, so only
n itself is ever factored, and every value equals the plain divisor sum of
f(n/d) * c_d(m) with Kluyver's c_d(m)."""

import math
from fractions import Fraction

import pytest

from gcdft import transform
from gcdft.errors import OracleScaleError
from gcdft.functions import ArithmeticFunction, catalog_names, get_function
from gcdft.numtheory import SMALL_PRIMES, Factorization, divisor_tuple, factorize
from gcdft.ramanujan import ramanujan_kluyver
from gcdft.transform import dft_exact_convolution


def large_orders():
    """(n, m): every 7th divisor of 720720 and of 277200 as an order of n."""
    return [(n, m) for n in (720720, 277200) for m in divisor_tuple(n)[::7]]


def small_orders():
    return [(n, m) for n in range(1, 120) for m in range(n + 1)]


def rational_general():
    """A general rational f with f(1) != 1, defined on every n the grid reads."""
    support = set(range(1, 120)) | set(divisor_tuple(720720)) | set(divisor_tuple(277200))
    table = {k: Fraction(k % 7 - 3, 1 + k % 4) for k in support}
    return ArithmeticFunction.from_table("rational-general", table, integer_valued=False)


class TestOnePath:
    def test_cold_call_factors_only_n(self, factored):
        fresh = ArithmeticFunction.multiplicative("fresh", lambda p, e: p**e + e)
        dft_exact_convolution(fresh, 360360, 7)
        assert factored == [360360]

    def test_matches_kluyver_divisor_sum(self):
        functions = [get_function(name) for name in catalog_names()]
        functions += [get_function("id_-1"), rational_general()]
        orders = small_orders() + large_orders()
        given = {n: Factorization(n, factorize(n).factors) for n, _ in orders}
        checks = 0
        for f in functions:
            for n, m in orders:
                reference = sum(
                    f(n // d) * ramanujan_kluyver(d, m) for d in divisor_tuple(n)
                )
                assert dft_exact_convolution(f, n, m) == reference, (f.name, n, m)
                assert dft_exact_convolution(f, given[n], m) == reference, (f.name, n, m)
                checks += 1
        assert checks == 95_160


def test_a_general_f_past_the_limit_raises_before_any_term_is_built(monkeypatch):
    # the product of the first 20 primes has 2^20 divisors, above the limit
    primes = SMALL_PRIMES[:20]
    n = Factorization(math.prod(primes), tuple((p, 1) for p in primes))
    general = ArithmeticFunction.from_table("general", {1: 1})

    def refuse(*args):
        raise AssertionError("the Ramanujan terms must not be built")

    monkeypatch.setattr(transform, "_ramanujan_terms", refuse)
    with pytest.raises(OracleScaleError):
        dft_exact_convolution(general, n, 1)
