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
