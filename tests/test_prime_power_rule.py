"""One exact rule for the Ramanujan sum at a prime power, c_{p^e}(m), read by
von Sterneck's form and by the exact convolution alike; and float oracles
that take the divisors of n, with their factors, from the convolution's terms
of the full class g = n, so that only n itself is ever factored."""

from fractions import Fraction

import pytest

from gcdft import ramanujan, transform
from gcdft.errors import InconsistencyError
from gcdft.functions import ID, ArithmeticFunction, catalog_names, evaluate, get_function
from gcdft.numtheory import divisor_tuple, moebius, totient
from gcdft.ramanujan import ramanujan_von_sterneck
from gcdft.transform import dft_brute_float, dft_brute_spectrum, dft_dispatch, float_bound
from gcdft.verify import SweepConfig, run_verification


def parent_von_sterneck(n, g):
    """The quotient mu(n/g) * phi(n) / phi(n/g) the rule replaced."""
    quotient, remainder = divmod(totient(n), totient(n // g))
    assert remainder == 0
    return moebius(n // g) * quotient


class TestOneRule:
    def test_von_sterneck_is_the_quotient(self):
        for n in list(range(1, 2001)) + [720720]:
            for g in divisor_tuple(n):
                assert ramanujan._von_sterneck(n, g) == parent_von_sterneck(n, g), (n, g)

    def test_rule_fault_fails_the_ramanujan_checks(self, fault):
        fault("prime-power-sum+1")
        report = run_verification(SweepConfig(n_max=12, functions=("sigma", "id")))
        counts = report.by_identity
        assert counts["ramanujan-exact-agreement"] == [78, 12]
        assert counts["path-equivalence-exact"] == [156, 44]
        assert counts["gcd-dependence"] == [468, 132]

    def test_honest_rule_passes_the_same_sweep(self, cold):
        report = run_verification(SweepConfig(n_max=12, functions=("sigma", "id")))
        assert report.passed


class TestOneFactorization:
    def test_cold_von_sterneck_factors_only_n(self, factored):
        assert ramanujan_von_sterneck(360360, 7) == 0
        assert factored == [360360]

    def test_cold_verified_dispatch_factors_only_n(self, factored):
        fresh = ArithmeticFunction.multiplicative("fresh", lambda p, e: p**e + e)
        report = dft_dispatch(fresh, 360360, 7, verify=True)
        assert len(report.paths_agreeing) == 3
        assert factored and set(factored) == {360360}


def float_bound_functions():
    support = set(range(1, 1001)) | set(divisor_tuple(277200)) | set(divisor_tuple(720720))
    general = ArithmeticFunction.from_table(
        "rational-general",
        {k: Fraction(k % 7 - 3, 1 + k % 4) for k in support},
        integer_valued=False,
    )
    multiplicative = ArithmeticFunction.multiplicative(
        "rational", lambda p, e: Fraction(e - 2, p + e), integer_valued=False
    )
    names = catalog_names() + ["id_-1"]
    return [get_function(name) for name in names] + [general, multiplicative]


class TestFloatBound:
    def test_equals_the_divisor_sum_with_totients(self):
        for f in float_bound_functions():
            for n in list(range(1, 1001)) + [277200, 720720]:
                l1 = sum(abs(evaluate(f, d)) * totient(n // d) for d in divisor_tuple(n))
                assert float_bound(f, n, 0.0) == 1e-12 * float(l1), (f.name, n)


class TestIncompleteDivisorList:
    """A divisor list that misses some divisors of n would leave their
    multiples unwritten; every reader of the list must refuse it."""

    def test_all_readers_raise(self, monkeypatch, cold):
        monkeypatch.setattr(transform, "divisor_tuple", lambda n: (1, 2, 12))
        with pytest.raises(InconsistencyError):
            dft_brute_float(ID, 12, 1)
        with pytest.raises(InconsistencyError):
            dft_brute_spectrum(ID, 12)
        with pytest.raises(InconsistencyError):
            transform._gcd_buckets(12)
