"""One divisor-lattice builder, ``numtheory._divisor_lattice``: the divisor
lists, the divisor sums and the exact convolution's Ramanujan terms are all
products over the primes of n of one (weight, exponent) choice per prime."""

from gcdft import transform
from gcdft.numtheory import Factorization, _divisor_lattice, divisor_tuple, divisors, factorize

N_VALUES = list(range(1, 2001)) + [277200, 720720]


def assert_checked(terms):
    """Every divisor a term carries passes the public constructor's checks."""
    for _, d in terms:
        assert Factorization(d.value, d.factors) == d, d


class TestDefaultChoices:
    def test_divisors_mirrored_from_both_ends(self):
        for n in N_VALUES:
            terms = _divisor_lattice(factorize(n))
            assert_checked(terms)
            assert {w for w, _ in terms} == {1}
            divs = [d.value for _, d in terms]
            assert sorted(divs) == list(divisor_tuple(n)), n
            assert all(a * b == n for a, b in zip(divs, reversed(divs))), n

    def test_product_order_varies_the_last_prime_fastest(self):
        divs = [d.value for _, d in _divisor_lattice(factorize(12))]
        assert divs == [1, 3, 2, 6, 4, 12]

    def test_one_has_one_term(self):
        assert _divisor_lattice(factorize(1)) == [(1, Factorization(1, ()))]

    def test_divisor_lists_build_no_factorization(self, monkeypatch):
        fac = factorize(720720)
        monkeypatch.setattr(Factorization, "_proven", None)
        assert divisor_tuple.__wrapped__(720720) == tuple(divisors(fac))
        assert len(divisors(fac)) == 240


class TestWeightedChoices:
    def test_weights_multiply_along_each_term(self):
        terms = _divisor_lattice(factorize(12), [[(5, 1)], [(2, 0), (-3, 1)]])
        assert terms == [(10, Factorization(2, ((2, 1),))), (-15, Factorization(6, ((2, 1), (3, 1))))]

    def test_ramanujan_terms_of_every_class(self):
        for n in N_VALUES:
            fac = factorize(n)
            for g in divisor_tuple(n):
                terms = transform._ramanujan_terms(fac, g)
                assert_checked(terms)
                assert all(c != 0 and n % d.value == 0 for c, d in terms), (n, g)
