"""The three Ramanujan sum evaluators as mutual oracles."""

import ast
import cmath
import math
import pathlib
import random

import pytest

from gcdft import numtheory, ramanujan
from gcdft.errors import OracleScaleError
from gcdft.numtheory import SMALL_PRIMES, moebius, totient
from gcdft.ramanujan import (
    DEFINITION_SCALE_LIMIT,
    ramanujan_definition,
    ramanujan_kluyver,
    ramanujan_von_sterneck,
)


def literal_definition(n, m):
    # independent of the numpy implementation under test
    return sum(
        cmath.exp(2j * cmath.pi * k * m / n)
        for k in range(1, n + 1)
        if math.gcd(k, n) == 1
    )


class TestDefinition:
    def test_single_term(self):
        for m in (1, 3, 17):
            assert ramanujan_definition(1, m) == pytest.approx(1)

    def test_full_sum_when_n_divides_m(self):
        assert ramanujan_definition(5, 5) == pytest.approx(totient(5))
        assert ramanujan_definition(12, 24) == pytest.approx(totient(12))

    def test_coprime_order_gives_moebius(self):
        assert ramanujan_definition(6, 1) == pytest.approx(moebius(6)) == pytest.approx(1)

    def test_matches_literal_sum(self):
        for n in range(1, 60):
            for m in range(1, n + 1):
                expected = literal_definition(n, m)
                got = ramanujan_definition(n, m)
                assert abs(got - expected) < 1e-9

    def test_scale_refusal(self):
        with pytest.raises(OracleScaleError):
            ramanujan_definition(DEFINITION_SCALE_LIMIT + 1, 1)
        with pytest.raises(OracleScaleError):
            ramanujan_definition(0, 1)

    def test_module_imports_no_numpy(self):
        """The float definition reads transform's oracles at eps, so the
        module of the exact rule imports no numpy of its own."""
        tree = ast.parse(pathlib.Path(ramanujan.__file__).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
        assert imported and not any(name.split(".")[0] == "numpy" for name in imported)


class TestVonSterneck:
    def test_coprime_gives_moebius(self):
        assert ramanujan_von_sterneck(6, 1) == 1
        for n in range(1, 200):
            for m in range(1, n + 1):
                if math.gcd(m, n) == 1:
                    assert ramanujan_von_sterneck(n, m) == moebius(n)

    def test_order_n_gives_totient(self):
        assert ramanujan_von_sterneck(12, 12) == 4
        for n in range(1, 200):
            assert ramanujan_von_sterneck(n, n) == totient(n)

    def test_half_order(self):
        assert ramanujan_von_sterneck(4, 2) == -2


class TestKluyver:
    def test_trivial(self):
        assert ramanujan_kluyver(1, 1) == 1

    def test_divisor_sums(self):
        assert ramanujan_kluyver(12, 12) == totient(12) == 4
        assert ramanujan_kluyver(9, 3) == -3

    def test_divisor_count_is_bounded_before_any_divisor_is_listed(self, monkeypatch):
        # the walk's own bound raises before it builds a term
        monkeypatch.setattr(numtheory, "DEFINITION_SCALE_LIMIT", 1 << 10)
        n = math.prod([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])  # 2^11 divisors
        with pytest.raises(OracleScaleError, match=f"2048 divisors of n = {n} "):
            ramanujan_kluyver(n, 0)


    @pytest.mark.parametrize("primes_of_m", [None, 8])
    def test_factors_only_n_and_the_gcd(self, factored, primes_of_m):
        """Over the 2^16 divisors of P16 at m = 0, and the 2^8 of P8 at m = P8,
        Kluyver's sum factors n and gcd(m, n) and no divisor."""
        n = math.prod(SMALL_PRIMES[:16])
        m = 0 if primes_of_m is None else math.prod(SMALL_PRIMES[:primes_of_m])
        calls = factored
        value = ramanujan_kluyver(n, m)
        assert calls == [n, math.gcd(m, n)]
        assert value == ramanujan_von_sterneck(n, m)


class TestAgreement:
    def test_exact_pair_exhaustive(self):
        # the two exact evaluators must coincide everywhere
        for n in range(1, 2001):
            for m in range(1, n + 1):
                assert ramanujan_von_sterneck(n, m) == ramanujan_kluyver(n, m)

    def test_float_vs_exact(self):
        for n in range(1, 501):
            for m in range(1, n + 1):
                exact = ramanujan_von_sterneck(n, m)
                approx = ramanujan_definition(n, m)
                assert abs(approx.imag) < 1e-6
                assert abs(approx.real - exact) < 1e-6
                assert round(approx.real) == exact


class TestStructure:
    def test_periodicity(self):
        rng = random.Random(3)
        for n in range(1, 301):
            for _ in range(5):
                m = rng.randrange(1, 10 * n + 1)
                assert ramanujan_von_sterneck(n, m) == ramanujan_von_sterneck(n, m % n)
                assert ramanujan_kluyver(n, m) == ramanujan_kluyver(n, m % n)

    def test_even_in_m(self):
        # both sign conventions of the exponential coincide
        for n in range(1, 200):
            for m in range(0, n + 1):
                assert ramanujan_von_sterneck(n, m) == ramanujan_von_sterneck(n, -m)
        for n in (9, 12, 30):
            for m in range(1, n + 1):
                plus = ramanujan_definition(n, m)
                minus = ramanujan_definition(n, -m)
                assert abs(plus - minus) < 1e-9

    def test_multiplicative_in_n(self):
        for u in range(1, 101):
            for v in range(u + 1, 101):
                if math.gcd(u, v) != 1:
                    continue
                for m in (1, 2, 6, u, v, u * v):
                    assert ramanujan_von_sterneck(u * v, m) == (
                        ramanujan_von_sterneck(u, m) * ramanujan_von_sterneck(v, m)
                    )

    def test_magnitude_bound(self):
        for n in range(1, 301):
            for m in range(1, n + 1):
                assert abs(ramanujan_von_sterneck(n, m)) <= n
