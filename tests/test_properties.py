"""Property-based checks over randomly drawn factorizations."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from gcdft.functions import catalog_names, get_function
from gcdft.numtheory import Factorization, is_prime
from gcdft.ramanujan import FLOAT_TOLERANCE
from gcdft.tables import build_table
from gcdft.transform import dft_brute_float, dft_exact_convolution, exact_closed_form, float_bound

PRIMES_BELOW_200 = [p for p in range(2, 200) if is_prime(p)]


def next_prime(n):
    while not is_prime(n):
        n += 1
    return n


def factorization(factors):
    factors = tuple(sorted(factors))
    return Factorization(math.prod(p**s for p, s in factors), factors)


@st.composite
def large_prime_orders(draw):
    """A factorization with one prime above 2^40 and up to three below 200,
    and an order m = u * prod p^t that reaches every gcd class (t = s + 1
    included) with an arbitrary cofactor u, sign included."""
    big = next_prime(draw(st.integers(2**40, 2**44)))
    small = draw(st.dictionaries(st.sampled_from(PRIMES_BELOW_200), st.integers(1, 3), max_size=3))
    factors = [(big, 1), *small.items()]
    m = draw(st.integers(-(10**20), 10**20).filter(bool))
    for p, s in factors:
        m *= p ** draw(st.integers(0, s + 1))
    split = draw(st.lists(st.booleans(), min_size=len(factors), max_size=len(factors)))
    return factors, m, split


@st.composite
def large_prime_powers(draw):
    """A factorization with one prime above 2^40 to the power 1..3 and up to
    two primes below 200, and an arbitrary order m, sign included."""
    big = next_prime(draw(st.integers(2**40, 2**44)))
    small = draw(st.dictionaries(st.sampled_from(PRIMES_BELOW_200), st.integers(1, 3), max_size=2))
    factors = [(big, draw(st.integers(1, 3))), *small.items()]
    m = draw(st.integers(-(10**20), 10**20))
    for p, s in factors:
        m *= p ** draw(st.integers(0, s + 1))
    return factors, m


factorizations = st.dictionaries(
    st.sampled_from(PRIMES_BELOW_200), st.integers(1, 3), max_size=4
).map(
    lambda exps: Factorization(
        math.prod(p**s for p, s in exps.items()), tuple(sorted(exps.items()))
    )
)


@settings(max_examples=25, deadline=None)
@given(fac=factorizations)
def test_compressed_table_rows_equal_convolution(fac):
    for name in catalog_names():
        f = get_function(name)
        for row in build_table(f, fac, compress=True):
            assert row.gcd_value == row.index
            assert row.transform_value == dft_exact_convolution(f, fac, row.index)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 3 * 10**5), m=st.integers(-(10**12), 10**12))
def test_brute_float_within_bound_of_closed_form(n, m):
    for name in catalog_names():
        f = get_function(name)
        brute = dft_brute_float(f, n, m)
        exact = exact_closed_form(f, n, m)
        bound = float_bound(f, n, FLOAT_TOLERANCE)
        assert abs(brute.real - float(exact)) < bound
        assert abs(brute.imag) < bound


@settings(max_examples=30, deadline=None)
@given(case=large_prime_orders())
def test_closed_form_over_large_primes(case):
    factors, m, split = case
    fac = factorization(factors)
    u = factorization(f for f, left in zip(factors, split) if left)
    v = factorization(f for f, left in zip(factors, split) if not left)
    for name in catalog_names():
        f = get_function(name)
        value = exact_closed_form(f, fac, m)
        assert value == dft_exact_convolution(f, fac, m), (name, fac, m)
        assert (type(value) is int) == f.integer_valued, (name, value)
        assert value == exact_closed_form(f, u, m) * exact_closed_form(f, v, m), (name, u, v, m)


@settings(max_examples=20, deadline=None)
@given(case=large_prime_powers())
def test_closed_form_over_large_prime_powers(case):
    factors, m = case
    fac = factorization(factors)
    for name in catalog_names():
        f = get_function(name)
        assert exact_closed_form(f, fac, m) == dft_exact_convolution(f, fac, m), (name, fac, m)
