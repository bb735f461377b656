"""Divisor sums on a given Factorization: ``sum_function`` and
``dirichlet_convolve`` build every divisor and co-divisor from the primes of
n, so nothing is factored again."""

import time
from fractions import Fraction

from gcdft.functions import (
    MU,
    PHI,
    SIGMA,
    ArithmeticFunction,
    as_exact,
    dirichlet_convolve,
    evaluate,
    get_function,
    id_power,
    sum_function,
)
from gcdft.numtheory import Factorization, divisors

P = 1237940039285380274899124357  # nextprime(2^90)
Q = 2475880078570760549798248507  # nextprime(2^91)

GENERAL = ArithmeticFunction.from_table(
    "general", {1: 3, P: Fraction(1, 2), Q: -5, P * Q: 7}, integer_valued=False
)
SMALL_GENERAL = ArithmeticFunction.from_table(
    "small-general", {k: Fraction(k % 7 - 3, 1 + k % 4) for k in range(1, 301)}
)


def semiprime():
    return Factorization(P * Q, ((P, 1), (Q, 1)))


def timed(call, *args):
    start = time.perf_counter()
    value = call(*args)
    assert time.perf_counter() - start < 1.0
    return value


class TestGivenFactorization:
    def test_181_bit_semiprime_is_fast_and_never_factored(self, factored):
        fac = semiprime()
        assert timed(sum_function, SIGMA, fac) == 1 + (P + 1) + (Q + 1) + (P + 1) * (Q + 1)
        assert timed(dirichlet_convolve, SIGMA, PHI, fac) == 4 * P * Q
        assert timed(dirichlet_convolve, GENERAL, SIGMA, fac) == (
            7 + Fraction(1, 2) * (Q + 1) - 5 * (P + 1) + 3 * (P + 1) * (Q + 1)
        )
        assert P * Q not in factored
        assert factored == []


class TestIntegerOrders:
    """On an int n both sums equal the plain loop over the cached divisors,
    in int whenever that loop's value is integral."""

    FUNCTIONS = [
        *(get_function(name) for name in ("1", "id", "phi", "mu", "tau", "sigma", "J_2")),
        id_power(-1),
        SMALL_GENERAL,
    ]

    def test_sum_function_matches_the_divisor_loop(self):
        for t in self.FUNCTIONS:
            for n in range(1, 301):
                expected = as_exact(sum(evaluate(t, d) for d in divisors(n)))
                got = sum_function(t, n)
                assert got == expected and type(got) is type(expected), (t.name, n)

    def test_dirichlet_convolve_matches_the_divisor_loop(self):
        for f in self.FUNCTIONS:
            for g in (MU, SIGMA, id_power(-1), SMALL_GENERAL):
                for n in range(1, 301):
                    expected = as_exact(
                        sum(evaluate(f, n // d) * evaluate(g, d) for d in divisors(n))
                    )
                    got = dirichlet_convolve(f, g, n)
                    assert got == expected and type(got) is type(expected), (f.name, g.name, n)
