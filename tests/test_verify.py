"""The sweep harness: clean runs report zero failures, injected faults are
caught, and reports render in every format."""

import json
import math
import random

import pytest

from gcdft import transform
from gcdft.errors import DomainError
from gcdft.functions import ID, get_function
from gcdft.numtheory import divisors
from gcdft.verify import (
    Failure,
    SweepConfig,
    check_closed_form_pair,
    check_coprime_order_totient,
    check_gcd_dependence,
    check_multiplicativity,
    check_path_equivalence,
    check_ramanujan_agreement,
    orders_for,
    render_report,
    run_verification,
)


class TestConfig:
    def test_rejects_bad_policy(self):
        with pytest.raises(DomainError):
            SweepConfig(n_max=10, m_policy="everything")

    def test_rejects_bad_bounds(self):
        with pytest.raises(DomainError):
            SweepConfig(n_max=0)
        with pytest.raises(DomainError):
            SweepConfig(n_max=5, m_policy="sample", sample_count=0)

    def test_rejects_unknown_fault(self):
        with pytest.raises(DomainError):
            SweepConfig(n_max=5, fault="saw-through-table-leg")


class TestOrderPolicies:
    def test_all(self):
        assert orders_for(6, "all", 3, random.Random(0)) == [1, 2, 3, 4, 5, 6]

    def test_divisors(self):
        assert orders_for(12, "divisors", 3, random.Random(0)) == divisors(12)

    def test_sample_deterministic(self):
        a = orders_for(100, "sample", 10, random.Random(42))
        b = orders_for(100, "sample", 10, random.Random(42))
        assert a == b
        assert len(a) == 10
        assert all(1 <= m <= 100 for m in a)

    def test_sample_caps_at_n(self):
        assert orders_for(3, "sample", 10, random.Random(0)) == [1, 2, 3]


class TestCleanSweeps:
    def test_verification_passes(self):
        config = SweepConfig(
            n_max=60,
            m_policy="all",
            functions=("id", "phi", "id_2", "lambda", "tau"),
        )
        report = run_verification(config)
        assert report.passed
        assert report.checks > 0
        assert not report.failures
        assert set(report.by_identity) >= {
            "ramanujan-exact-agreement",
            "ramanujan-float-agreement",
            "path-equivalence-exact",
            "path-equivalence-float",
            "integrality",
            "coprime-order-totient",
        }

    def test_gcd_transform_to_200(self):
        # all orders for the plain gcd transform: zero failures expected
        report = run_verification(SweepConfig(n_max=200, functions=("id",)))
        assert report.passed
        assert report.by_identity["path-equivalence-exact"][1] == 0

    def test_geometric_functions_to_100(self):
        report = run_verification(SweepConfig(n_max=100, functions=("id_2", "lambda")))
        assert report.passed
        assert report.by_identity["geometric-form-vs-multiplicative-form"][1] == 0

    def test_individual_checks_emit_no_failures(self):
        failures = [
            failure
            for _, failure in check_gcd_dependence(ID, range(1, 40))
            if failure is not None
        ]
        assert failures == []
        failures = [
            failure
            for _, failure in check_multiplicativity(get_function("sigma"), 30)
            if failure is not None
        ]
        assert failures == []
        failures = [
            failure
            for _, failure in check_ramanujan_agreement(range(1, 80))
            if failure is not None
        ]
        assert failures == []
        failures = [
            failure
            for _, failure in check_coprime_order_totient(range(1, 80))
            if failure is not None
        ]
        assert failures == []

    def test_check_counts(self):
        # orders 1..3n per n; every divisor of uv plus three seeded orders per pair
        assert len(list(check_gcd_dependence(ID, range(1, 21)))) == 3 * sum(range(1, 21))
        pairs = [(u, v) for u in range(1, 13) for v in range(u + 1, 13) if math.gcd(u, v) == 1]
        assert len(list(check_multiplicativity(ID, 12))) == sum(
            len(divisors(u * v)) + 3 for u, v in pairs
        )
        # exact, float and integrality check per order for an integer-valued f
        assert len(list(check_path_equivalence(ID, [12, 30]))) == 3 * (12 + 30)


class TestFaultInjection:
    def test_negated_closed_form_is_caught(self):
        config = SweepConfig(n_max=20, functions=("id",), fault="negate-closed-form")
        report = run_verification(config)
        assert not report.passed
        assert len(report.failures) >= 1
        first = report.failures[0]
        assert first.identity in ("path-equivalence-exact", "path-equivalence-float")

    def test_offset_convolution_is_caught(self):
        config = SweepConfig(n_max=20, functions=("phi",), fault="offset-convolution")
        report = run_verification(config)
        assert not report.passed

    def test_gcd_dependence_catches_an_offset_local_factor(self, monkeypatch):
        # the closed form at m against the convolution at gcd(m, n)
        honest = transform._local_factor
        monkeypatch.setattr(
            transform, "_local_factor", lambda f, p, s, t: honest(f, p, s, t) + 1
        )
        failures = [
            failure
            for _, failure in check_gcd_dependence(get_function("sigma"), range(1, 30))
            if failure is not None
        ]
        assert failures
        assert all(f.identity == "gcd-dependence" for f in failures)

    @pytest.mark.parametrize(
        "offset_kernel, check, expected",
        [
            (
                False,
                lambda: check_path_equivalence(ID, range(1, 5), fault="negate-closed-form"),
                [
                    Failure("path-equivalence-exact", "id", 1, 1, "1", "-1"),
                    Failure("path-equivalence-float", "id", 1, 1, "-1", "(1+0j)"),
                ],
            ),
            (
                False,
                lambda: check_path_equivalence(
                    get_function("id_-1"), [2], fault="negate-closed-form"
                ),
                [
                    Failure("path-equivalence-exact", "id_-1", 2, 1, "-1/2", "1/2"),
                    Failure("path-equivalence-float", "id_-1", 2, 1, "1/2", "(-0.5+0j)"),
                ],
            ),
            (
                True,
                lambda: check_gcd_dependence(get_function("sigma"), range(1, 5)),
                [Failure("gcd-dependence", "sigma", 2, 1, "2", "3")],
            ),
            (
                True,
                lambda: check_closed_form_pair(get_function("id_2"), range(1, 5)),
                [Failure("geometric-form-vs-multiplicative-form", "id_2", 2, 1, "4", "3")],
            ),
            (
                True,
                lambda: check_closed_form_pair(ID, range(1, 5)),
                [Failure("gcd-form-vs-multiplicative-form", "id", 2, 1, "2", "1")],
            ),
        ],
        ids=["negated-id", "negated-rational", "gcd-dependence", "geometric-pair", "gcd-pair"],
    )
    def test_first_failure_records(self, monkeypatch, offset_kernel, check, expected):
        # expected values print by str, float oracle values by repr(complex)
        if offset_kernel:
            honest = transform._local_factor
            monkeypatch.setattr(
                transform, "_local_factor", lambda f, p, s, t: honest(f, p, s, t) + 1
            )
        failures = [failure for _, failure in check() if failure is not None]
        assert failures[: len(expected)] == expected

    def test_fault_in_check_generator(self):
        failures = [
            failure
            for _, failure in check_path_equivalence(
                ID, range(1, 15), fault="negate-closed-form"
            )
            if failure is not None
        ]
        assert failures
        # n = 1, m = 1 transforms to 1 != -1, so even the floor case trips
        assert any(f.n == 1 for f in failures)


class TestFloatBound:
    @pytest.mark.parametrize("name, n", [("id_3", 2520), ("J_3", 5040)])
    def test_large_values_pass_the_fft_check(self, name, n):
        # values reach ~10^10, where the FFT is off by ~2e-6 in absolute terms
        f = get_function(name)
        outcomes = list(check_path_equivalence(f, [n], policy="divisors"))
        assert [x for _, x in outcomes if x is not None] == []
        faulted = check_path_equivalence(f, [n], policy="divisors", fault="negate-closed-form")
        assert {x.identity for _, x in faulted if x is not None} == {
            "path-equivalence-exact",
            "path-equivalence-float",
        }


class TestClosedFormPairChecks:
    def test_id_pairs(self):
        failures = [
            failure
            for _, failure in check_closed_form_pair(ID, range(1, 60))
            if failure is not None
        ]
        assert failures == []

    def test_completely_multiplicative_pairs(self):
        for name in ("id_2", "lambda", "1"):
            failures = [
                failure
                for _, failure in check_closed_form_pair(
                    get_function(name), range(1, 60)
                )
                if failure is not None
            ]
            assert failures == []


class TestReportRendering:
    @pytest.fixture()
    def passing(self):
        config = SweepConfig(n_max=12, functions=("id",))
        return config, run_verification(config)

    def test_text(self, passing):
        config, report = passing
        text = render_report(report, config, "text")
        assert "0 failures" in text
        assert "ok" in text

    def test_json(self, passing):
        config, report = passing
        payload = json.loads(render_report(report, config, "json"))
        assert payload["passed"] is True
        assert payload["checks"] == report.checks
        assert payload["failures"] == []

    def test_csv(self, passing):
        config, report = passing
        lines = render_report(report, config, "csv").splitlines()
        assert lines[0] == "identity,checks,failures"
        assert len(lines) == len(report.by_identity) + 1

    def test_failure_text_shows_counterexample(self):
        config = SweepConfig(n_max=15, functions=("id",), fault="negate-closed-form")
        report = run_verification(config)
        text = render_report(report, config, "text")
        assert "first counterexample" in text
        assert "FAIL" in text

    def test_unknown_format(self, passing):
        config, report = passing
        with pytest.raises(DomainError):
            render_report(report, config, "xml")


def test_failure_record_fields():
    failure = Failure("identity-name", "id", 12, 5, "4", "5")
    assert failure.identity == "identity-name"
    assert failure.expected == "4"
    assert failure.got == "5"
