"""Bounds on the work a single n can ask for, and tables that never factor
a given Factorization again.

A divisor list or divisor sum walks every divisor of n, a compressed table
has a row per divisor, and the exact convolution a term per nonzero
Ramanujan sum; each count doubles with each distinct prime of n. Past
DEFINITION_SCALE_LIMIT they raise before listing any divisor or building any
term, and the CLI exits 1."""

import math
import time

import pytest

from gcdft import numtheory, tables, transform
from gcdft.cli import EXIT_OK, EXIT_USAGE, main
from gcdft.errors import DomainError, OracleScaleError
from gcdft.functions import ID, ONE, SIGMA, ArithmeticFunction, dirichlet_convolve, sum_function
from gcdft.numtheory import SMALL_PRIMES, Factorization, divisor_tuple, divisors
from gcdft.ramanujan import DEFINITION_SCALE_LIMIT
from gcdft.tables import build_table
from gcdft.transform import dft_dispatch, dft_exact_convolution

# nextprime(2^90) and nextprime(2^91)
P = 2**90 + 133
Q = 2**91 + 59

GENERAL = ArithmeticFunction.from_table("general", {1: 1}, integer_valued=True)


def primorial(count):
    """The product of the first ``count`` primes, as a given Factorization."""
    primes = SMALL_PRIMES[:count]
    return Factorization(math.prod(primes), tuple((p, 1) for p in primes))


class TestTablesOfAGivenFactorization:
    @pytest.mark.parametrize("factors", [((P, 1), (Q, 1)), ((P, 3), (Q, 2))])
    def test_compressed_table_factors_nothing(self, factored, factors):
        n = Factorization(math.prod(p**s for p, s in factors), factors)
        rows = build_table(SIGMA, n, compress=True)
        assert len(rows) == math.prod(s + 1 for _, s in factors)
        assert factored == []


class TestRealLimit:
    """The product of the first 20 primes: 2^20 divisors and, at every order,
    2^20 nonzero Ramanujan terms, both just above the limit."""

    N = primorial(20)

    def test_limit_is_between_19_and_20_primes(self):
        assert 2**19 <= DEFINITION_SCALE_LIMIT < 2**20

    def test_divisor_walks_raise_before_listing_divisors(self):
        walks = (
            divisors,
            lambda n: divisor_tuple(n.value),
            lambda n: sum_function(ONE, n),
            lambda n: dirichlet_convolve(ID, ONE, n),
        )
        start = time.perf_counter()
        for walk in walks:
            with pytest.raises(OracleScaleError, match="1048576 divisors"):
                walk(self.N)
        assert time.perf_counter() - start < 1

    def test_compressed_table_raises_before_listing_divisors(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the divisors must not be listed")

        monkeypatch.setattr(tables, "product", refuse)
        monkeypatch.setattr(transform, "_local_factors", refuse)
        monkeypatch.setattr(transform, "dft_exact_convolution", refuse)
        with pytest.raises(DomainError, match="compressed"):
            build_table(ID, self.N, compress=True)

    @pytest.mark.parametrize("m", [1, 2, 0])
    def test_convolution_raises(self, m):
        with pytest.raises(OracleScaleError):
            dft_exact_convolution(GENERAL, self.N, m)

    def test_verified_dispatch_raises(self):
        assert dft_dispatch(ID, self.N, 1).value == math.prod(p - 1 for p in SMALL_PRIMES[:20])
        with pytest.raises(OracleScaleError):
            dft_dispatch(ID, self.N, 1, verify=True)

    def test_cli_exits_one(self, capsys):
        n = str(self.N.value)
        assert main(["dft", "--f", "id", "--n", n, "--m", "1"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == str(dft_dispatch(ID, self.N, 1).value)
        for argv in (
            ["dft", "--f", "id", "--n", n, "--m", "1", "--verify"],
            ["table", "--f", "id", "--n", n, "--compress"],
        ):
            assert main(argv) == EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")


class TestPatchedLimit:
    """Under a limit of 2^10, the first 11 primes give 2^11 terms and rows."""

    N = primorial(11)

    @pytest.fixture(autouse=True)
    def small_limit(self, monkeypatch):
        transform._ramanujan_terms.cache_clear()
        monkeypatch.setattr(numtheory, "DEFINITION_SCALE_LIMIT", 1 << 10)
        monkeypatch.setattr(tables, "DEFINITION_SCALE_LIMIT", 1 << 10)
        yield
        transform._ramanujan_terms.cache_clear()

    def test_convolution_raises(self):
        with pytest.raises(OracleScaleError):
            dft_exact_convolution(SIGMA, self.N, 1)
        with pytest.raises(OracleScaleError):
            dft_dispatch(SIGMA, self.N, 1, verify=True)

    def test_compressed_table_raises(self):
        with pytest.raises(DomainError):
            build_table(SIGMA, self.N, compress=True)

    def test_ten_primes_are_within_it(self):
        n = primorial(10)
        assert dft_exact_convolution(SIGMA, n, 1) == dft_dispatch(SIGMA, n, 1).value
        assert len(build_table(SIGMA, n, compress=True)) == 1 << 10
