"""f's values at the divisors of n come from one walk over the divisor lattice
of n, ``functions._divisor_values``, or, in the convolution of a multiplicative
f at an n of more than 10^6 divisors, from the walk over the class's own
terms: no divisor is wrapped as a Factorization, and a general f must be
defined at every divisor of n."""

import math

import numpy as np
import pytest

from gcdft import transform
from gcdft.cli import EXIT_OK, main
from gcdft.errors import OracleScaleError, UndefinedValueError
from gcdft.functions import (
    PHI,
    SIGMA,
    ArithmeticFunction,
    dirichlet_convolve,
    get_function,
    sum_function,
)
from gcdft.numtheory import SMALL_PRIMES, Factorization, divisor_tuple, factorize
from gcdft.ramanujan import FLOAT_TOLERANCE
from gcdft.transform import (
    dft_brute_float,
    dft_brute_spectrum,
    dft_closed_form_multiplicative,
    dft_dispatch,
    dft_exact_convolution,
    float_agrees,
    float_bound,
)

N_VALUES = (720720, 277200)


@pytest.fixture
def no_proven_factorization(monkeypatch):
    """Only the n of N_VALUES are factored, before any divisor is walked;
    from then on building a proven Factorization raises. The functions of a
    test are new objects, so none of their values is cached yet."""
    for n in N_VALUES:
        factorize(n)
    transform._ramanujan_terms.cache_clear()

    def refuse(cls, value, factors):
        raise AssertionError(f"a Factorization of {value} was built")

    monkeypatch.setattr(Factorization, "_proven", classmethod(refuse))
    yield
    transform._ramanujan_terms.cache_clear()


class TestNoFactorizationPerDivisor:
    def test_every_walk_reads_plain_divisors(self, no_proven_factorization):
        fresh = ArithmeticFunction.multiplicative("fresh", lambda p, e: p**e + e)
        general = ArithmeticFunction.from_table(
            "general", {d: d % 5 - 2 for n in N_VALUES for d in divisor_tuple(n)}
        )
        for n in N_VALUES:
            given = Factorization(n, factorize(n).factors)
            for f in (fresh, general):
                for m in divisor_tuple(n)[::40]:
                    value = dft_exact_convolution(f, n, m)
                    assert dft_exact_convolution(f, given, m) == value, (f.name, n, m)
                    if f is fresh:
                        assert dft_dispatch(f, n, m).value == value, (n, m)
                bound = float_bound(f, n, FLOAT_TOLERANCE)
                exact = dft_exact_convolution(f, n, 7)
                assert float_agrees(dft_brute_float(f, n, 7), exact, bound)
                assert float_agrees(complex(dft_brute_spectrum(f, n)[7]), exact, bound)
                assert sum_function(f, n) == sum_function(f, given)
                assert dirichlet_convolve(f, PHI, given) == dft_exact_convolution(f, n, n)


class TestGeneralFunctionAtEveryDivisor:
    PARTIAL = ArithmeticFunction.from_table("partial", {4: 7, 2: 3})

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_a_missing_divisor_raises_at_every_order(self, m):
        with pytest.raises(UndefinedValueError, match="no rule for 1"):
            dft_exact_convolution(self.PARTIAL, 4, m)
        with pytest.raises(UndefinedValueError, match="no rule for 1"):
            dft_dispatch(self.PARTIAL, 4, m)

    def test_every_divisor_walk_raises(self):
        for walk in (
            lambda: sum_function(self.PARTIAL, 4),
            lambda: dirichlet_convolve(self.PARTIAL, PHI, 4),
            lambda: float_bound(self.PARTIAL, 4, FLOAT_TOLERANCE),
            lambda: dft_brute_float(self.PARTIAL, 4, 1),
        ):
            with pytest.raises(UndefinedValueError):
                walk()

    def test_defined_on_the_divisors_is_enough(self):
        whole = ArithmeticFunction.from_table("whole", {4: 7, 2: 3, 1: 1})
        spectrum = dft_brute_spectrum(whole, 4)
        for m in range(1, 5):
            exact = sum(whole(np.gcd(k, 4).item()) * (-1j) ** (k * m) for k in range(1, 5))
            assert dft_exact_convolution(whole, 4, m) == exact.real and exact.imag == 0
            assert abs(spectrum[m % 4] - exact) < 1e-9


class TestMultiplicativeConvolutionWalksItsClass:
    """n = (2 * 3 * ... * 29)^3 has 4^10 divisors, above the limit, but at an
    order coprime to n only 2^10 nonzero Ramanujan terms."""

    N = Factorization(
        math.prod(p**3 for p in SMALL_PRIMES[:10]), tuple((p, 3) for p in SMALL_PRIMES[:10])
    )

    def test_every_divisor_walk_raises(self):
        with pytest.raises(OracleScaleError, match="1048576 divisors"):
            sum_function(SIGMA, self.N)

    @pytest.mark.parametrize("m", [1, 6, 8, 31 * 37])
    def test_convolution_and_verified_dispatch_return(self, m):
        fresh = ArithmeticFunction.multiplicative("fresh", lambda p, e: p**e + e)
        for f in (SIGMA, fresh, get_function("id_-1")):
            value = dft_closed_form_multiplicative(f, self.N, m)
            assert dft_exact_convolution(f, self.N, m) == value, (f.name, m)
            assert dft_dispatch(f, self.N, m, verify=True).value == value, (f.name, m)

    def test_cli_dft_verify_exits_zero(self, capsys):
        argv = ["dft", "--f", "sigma", "--n", str(self.N.value), "--m", "1", "--verify"]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out.split("\n")[:2] == [
            str(dft_dispatch(SIGMA, self.N, 1).value),
            "paths agreeing: closed_form, convolution_exact",
        ]
