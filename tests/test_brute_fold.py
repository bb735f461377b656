"""The brute float oracle folds the terms k and n - k into one cosine: it
must equal the unfolded sum of every term and still catch a fault shared by
both exact paths."""

import random
from fractions import Fraction

import numpy as np
import pytest

from gcdft import transform
from gcdft.errors import InconsistencyError, OracleScaleError
from gcdft.functions import ArithmeticFunction, catalog_names, get_function
from gcdft.ramanujan import FLOAT_TOLERANCE
from gcdft.transform import dft_brute_float, dft_dispatch, float_bound

RATIONAL = ArithmeticFunction.multiplicative(
    "rational", lambda p, e: Fraction(e - 2, p + e), integer_valued=False
)
FUNCTIONS = [get_function(name) for name in catalog_names()] + [get_function("id_-1"), RATIONAL]


class TestFold:
    @pytest.mark.parametrize("f", FUNCTIONS, ids=lambda f: f.name)
    def test_equals_the_unfolded_sum(self, f):
        for n in range(1, 301):
            a = transform._gcd_sequence(f, n)
            orders = np.arange(n)
            # full twiddles e(-km/n), k = 1..n by row and m = 0..n-1 by column
            phases = np.outer(np.arange(1, n + 1), orders) % n
            reference = a @ np.exp(-2j * np.pi * phases / n)
            tolerance = 1e-12 * np.abs(a).sum() + 1e-9
            for m in orders:
                value = dft_brute_float(f, n, int(m))
                assert value.imag == 0.0
                assert abs(value - reference[m]) < tolerance, (f.name, n, m)

    def test_f_of_n_beyond_float_range_names_n(self):
        # f(7) is read apart from the folded sequence, which stops at k = 3
        f = ArithmeticFunction.from_table("huge-at-n", {1: 1, 7: 10**400})
        with pytest.raises(OracleScaleError, match=r"huge-at-n\(7\) .* n = 7"):
            dft_brute_float(f, 7, 1)

    def test_catches_a_fault_shared_by_both_exact_paths(self, monkeypatch):
        rng = random.Random(24)
        names = catalog_names()
        requests = []
        for i in range(44):
            f = get_function(names[i % len(names)])
            n = rng.randrange(10**4, 3 * 10**5 + 1)
            if float_bound(f, n, FLOAT_TOLERANCE) < 500:
                requests.append((f, n, rng.randrange(1, n + 1)))
        assert len(requests) >= 30
        for f, n, m in requests:  # the honest paths agree
            assert transform.PATH_BRUTE_FLOAT in dft_dispatch(f, n, m, verify=True).paths_agreeing
        closed_form, convolution = transform.exact_closed_form, transform.dft_exact_convolution

        def offset_closed_form(f, n, m):
            value = closed_form(f, n, m)
            return None if value is None else value + 1000

        monkeypatch.setattr(transform, "exact_closed_form", offset_closed_form)
        monkeypatch.setattr(
            transform, "dft_exact_convolution", lambda f, n, m: convolution(f, n, m) + 1000
        )
        for f, n, m in requests:
            with pytest.raises(InconsistencyError, match="brute-force value"):
                dft_dispatch(f, n, m, verify=True)
