"""One divisor-lattice builder, ``numtheory._lattice_terms``, and one divisor
order, its walk's: the position of a divisor prod p^e is its index there,
sum e * stride, the last prime fastest. The divisor lists, the divisor values
of f, Kluyver's sum and the exact convolution's Ramanujan terms are all
products over the primes of n of one weight per prime, and each term of the
walk is a plain product. Only the convolution's terms carry positions:
``transform._ramanujan_terms`` pairs each c_d(m) with the position of d, by
Horner's rule over its class box. ``divisor_tuple`` lists the divisors in
that order, every divisor of d before d; only ``divisors`` sorts them. It is
the one walk with the default choices: every reader of n's divisors, given n
as an int or as a ``Factorization``, reads its cached tuple."""

import pytest

from gcdft import numtheory, transform
from gcdft.errors import InconsistencyError, OracleScaleError
from gcdft.functions import SIGMA, ArithmeticFunction, _divisor_values, evaluate
from gcdft.numtheory import (
    DEFINITION_SCALE_LIMIT,
    Factorization,
    _lattice_terms,
    divisor_tuple,
    divisors,
    factorize,
)
from gcdft.ramanujan import ramanujan_von_sterneck
from gcdft.tables import build_table
from gcdft.transform import dft_brute_float, dft_brute_spectrum

N_VALUES = list(range(1, 2001)) + [277200, 720720]


def assert_plain(terms, n):
    """Every term is a pair of ints whose position names a divisor of n."""
    count = len(divisor_tuple(n))
    for w, i in terms:
        assert type(w) is int and type(i) is int, (w, i)
        assert 0 <= i < count, (n, i)


class TestDefaultChoices:
    def test_divisors_mirrored_from_both_ends(self):
        for n in N_VALUES:
            divs = _lattice_terms(factorize(n))
            assert all(type(d) is int for d in divs), n
            assert divs == list(divisor_tuple(n)), n
            assert sorted(divs) == divisors(n), n
            assert all(a * b == n for a, b in zip(divs, reversed(divs))), n

    def test_product_order_varies_the_last_prime_fastest(self):
        assert _lattice_terms(factorize(12)) == [1, 3, 2, 6, 4, 12]
        assert divisor_tuple(12) == (1, 3, 2, 6, 4, 12)

    def test_one_has_one_term(self):
        assert _lattice_terms(factorize(1)) == [1]
        assert divisor_tuple(1) == (1,)

    def test_divisor_lists_build_no_factorization(self, monkeypatch):
        fac = factorize(720720)
        monkeypatch.setattr(Factorization, "_proven", None)
        assert sorted(divisor_tuple.__wrapped__(720720)) == divisors(fac)
        assert len(divisors(fac)) == 240


class TestOneWalk:
    @pytest.mark.parametrize("n", [12, 720720])
    def test_every_reader_shares_one_walk(self, cold, everywhere, n):
        general = ArithmeticFunction.from_table(
            "general", {d: d % 7 - 3 for d in range(1, n + 1) if n % d == 0}
        )
        given = Factorization(n, factorize(n).factors)  # not factorize's own object
        walks, honest = [], numtheory._lattice_terms

        def spy(fac, choices=None):
            if choices is None:
                walks.append(fac.value)
            return honest(fac, choices)

        everywhere(honest, spy)
        for arg in (n, given):
            divisors(arg)
            for f in (SIGMA, general):
                for compress in (False, True):
                    build_table(f, arg, compress=compress)
                transform._class_values(f, arg)
        _divisor_values(general, given)
        for f in (SIGMA, general):
            dft_brute_float(f, n, 5)
            dft_brute_spectrum(f, n)
        assert walks == [n]


class TestLatticeOrder:
    def test_each_divisor_once_after_its_own_divisors(self):
        for n in N_VALUES:
            divs = divisor_tuple(n)
            position = {d: i for i, d in enumerate(divs)}
            assert len(position) == len(divs) and all(n % d == 0 for d in divs), n
            # d / p precedes d for every prime p | d, so every divisor of d does
            for p, _ in factorize(n).factors:
                assert all(position[d // p] < i for i, d in enumerate(divs) if d % p == 0), n

    def test_only_divisors_sorts(self):
        assert divisor_tuple(720) != tuple(divisors(720))
        assert divisors(720) == sorted(divisor_tuple(720)) == divisors(factorize(720))


class TestWeightedChoices:
    def test_weights_multiply_along_each_term(self):
        assert _lattice_terms(factorize(12), [[5], [2, -3]]) == [10, -15]

    def test_a_walk_above_the_limit_raises_before_any_term(self):
        fac = Factorization(2**20, ((2, 20),))
        assert len(_lattice_terms(fac, [[1] * 21])) == 21
        wide = [[1] * (DEFINITION_SCALE_LIMIT + 1)]
        with pytest.raises(OracleScaleError, match=str(DEFINITION_SCALE_LIMIT + 1)):
            _lattice_terms(fac, wide)

    def test_ramanujan_terms_of_every_class(self):
        for n in N_VALUES:
            fac = factorize(n)
            for g in divisor_tuple(n):
                terms = transform._ramanujan_terms(fac, g)
                assert_plain(terms, n)
                assert all(c != 0 for c, _ in terms), (n, g)

    def test_ramanujan_positions_are_the_divisors_of_nonzero_terms(self):
        for n in N_VALUES:
            fac, divs = factorize(n), divisor_tuple(n)
            for g in divs:
                positions = [i for _, i in transform._ramanujan_terms(fac, g)]
                nonzero = [i for i, d in enumerate(divs) if ramanujan_von_sterneck(d, g) != 0]
                assert positions == nonzero, (n, g)

    def test_ramanujan_positions_index_the_divisor_values(self):
        for n in N_VALUES:
            fac, divs = factorize(n), divisor_tuple(n)
            values = _divisor_values(SIGMA, fac)
            assert values == tuple(evaluate(SIGMA, n // d) for d in divs), n
            for g in divs:
                for c, i in transform._ramanujan_terms(fac, g):
                    assert i < len(values) and c == ramanujan_von_sterneck(divs[i], g), (n, g)


class TestWrongDivisorTuple:
    """A tuple of d(n) entries that are not the divisors of n is refused by
    every sieve that reads it."""

    def test_same_length_wrong_tuple_raises(self, monkeypatch):
        transform._gcd_buckets.cache_clear()
        monkeypatch.setattr(transform, "divisor_tuple", lambda n: (1, 2, 3, 4, 5, 12))
        try:
            with pytest.raises(InconsistencyError, match="not the 6 divisors of 12"):
                dft_brute_float(SIGMA, 12, 1)
            with pytest.raises(InconsistencyError, match="not the 6 divisors of 12"):
                dft_brute_spectrum(SIGMA, 12)
            with pytest.raises(InconsistencyError, match="not the 6 divisors of 12"):
                transform._gcd_buckets(12)
        finally:
            transform._gcd_buckets.cache_clear()

    def test_a_repeated_divisor_raises(self, monkeypatch):
        f = ArithmeticFunction.multiplicative("twin", lambda p, e: e + 1)
        monkeypatch.setattr(transform, "divisor_tuple", lambda n: (1, 3, 2, 2, 4, 12))
        with pytest.raises(InconsistencyError):
            dft_brute_spectrum(f, 12)
