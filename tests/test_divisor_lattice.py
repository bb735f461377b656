"""One divisor-lattice builder, ``numtheory._lattice_terms``: the divisor
lists, the divisor values of f and the exact convolution's Ramanujan terms
are all products over the primes of n of one (weight, exponent) choice per
prime, and each term is a plain (weight, divisor) pair of ints."""

import pytest

from gcdft import transform
from gcdft.errors import OracleScaleError
from gcdft.numtheory import (
    DEFINITION_SCALE_LIMIT,
    Factorization,
    _lattice_terms,
    divisor_tuple,
    divisors,
    factorize,
)

N_VALUES = list(range(1, 2001)) + [277200, 720720]


def assert_plain(terms, n):
    """Every term is a pair of ints whose divisor divides n."""
    for w, d in terms:
        assert type(w) is int and type(d) is int, (w, d)
        assert n % d == 0, (n, d)


class TestDefaultChoices:
    def test_divisors_mirrored_from_both_ends(self):
        for n in N_VALUES:
            terms = _lattice_terms(factorize(n))
            assert_plain(terms, n)
            assert {w for w, _ in terms} == {1}
            divs = [d for _, d in terms]
            assert sorted(divs) == list(divisor_tuple(n)), n
            assert all(a * b == n for a, b in zip(divs, reversed(divs))), n

    def test_product_order_varies_the_last_prime_fastest(self):
        assert [d for _, d in _lattice_terms(factorize(12))] == [1, 3, 2, 6, 4, 12]

    def test_one_has_one_term(self):
        assert _lattice_terms(factorize(1)) == [(1, 1)]

    def test_divisor_lists_build_no_factorization(self, monkeypatch):
        fac = factorize(720720)
        monkeypatch.setattr(Factorization, "_proven", None)
        assert divisor_tuple.__wrapped__(720720) == tuple(divisors(fac))
        assert len(divisors(fac)) == 240


class TestWeightedChoices:
    def test_weights_multiply_along_each_term(self):
        terms = _lattice_terms(factorize(12), [[(5, 1)], [(2, 0), (-3, 1)]])
        assert terms == [(10, 2), (-15, 6)]

    def test_a_walk_above_the_limit_raises_before_any_term(self):
        fac = Factorization(2**20, ((2, 20),))
        choices = [[(1, e) for e in range(21)]]
        assert len(_lattice_terms(fac, choices)) == 21
        wide = [[(1, 0)] * (DEFINITION_SCALE_LIMIT + 1)]
        with pytest.raises(OracleScaleError, match=str(DEFINITION_SCALE_LIMIT + 1)):
            _lattice_terms(fac, wide)

    def test_ramanujan_terms_of_every_class(self):
        for n in N_VALUES:
            fac = factorize(n)
            for g in divisor_tuple(n):
                terms = transform._ramanujan_terms(fac, g)
                assert_plain(terms, n)
                assert all(c != 0 for c, _ in terms), (n, g)
