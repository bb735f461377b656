"""The sweep harness: clean runs report zero failures, faults patched into a
path are caught, and reports render in every format."""

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from gcdft import verify
from gcdft.cli import EXIT_OK, EXIT_USAGE, EXIT_VERIFICATION, main
from gcdft.errors import DomainError
from gcdft.functions import ID, get_function
from gcdft.numtheory import divisors
from gcdft.transform import dft_exact_convolution
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

    @pytest.mark.parametrize(
        "fields",
        [
            {"n_max": 2.5},
            {"n_max": "5"},
            {"n_max": True},
            {"n_max": 5, "sample_count": 2.5},
            {"n_max": 5, "m_policy": "sample", "sample_count": 2.5},
            {"n_max": 3, "seed": "x"},
            {"n_max": 3, "seed": 2.5},
            {"n_max": 3, "seed": True},
        ],
        ids=[
            "float-n", "str-n", "bool-n", "float-count", "float-count-sampled",
            "str-seed", "float-seed", "bool-seed",
        ],
    )
    def test_rejects_non_integer_fields_at_construction(self, fields):
        with pytest.raises(DomainError, match="must be an integer"):
            SweepConfig(**fields)

    @pytest.mark.parametrize(
        "functions", ["id", ["id"], ("id", 3), (None,)], ids=["str", "list", "int-name", "none-name"]
    )
    def test_functions_must_be_a_tuple_of_names(self, functions):
        with pytest.raises(DomainError, match="functions must be a tuple of names"):
            SweepConfig(n_max=3, functions=functions)

    @pytest.mark.parametrize("tolerance", ["x", "1e-6", None, True, 1j])
    def test_tolerance_must_be_a_real_number(self, tolerance):
        with pytest.raises(DomainError, match="tolerance must be a real number"):
            SweepConfig(n_max=3, tolerance_float=tolerance)

    @pytest.mark.parametrize(
        "functions",
        [(), ("id", "id"), ("1", "one"), ("lambda", "liouville"), ("sigma", "id_2", "id_2")],
        ids=["empty", "id-twice", "one-by-two-names", "liouville-by-two-names", "id_2-twice"],
    )
    def test_functions_must_name_each_function_once(self, functions):
        with pytest.raises(DomainError, match="at least one function, each once"):
            SweepConfig(n_max=3, functions=functions)

    def test_keeps_numpy_integers_as_plain_ints(self):
        # random.Random and the json report refuse a numpy int
        config = SweepConfig(n_max=np.int64(5), m_policy="sample", sample_count=np.int8(2),
                             seed=np.int64(3))
        assert [type(config.n_max), type(config.sample_count), type(config.seed)] == [int] * 3
        assert json.loads(render_report(run_verification(config), config, "json"))["passed"]

    def test_accepts_a_real_tolerance_of_any_type(self):
        for tolerance in (1, Fraction(1, 10**6), np.float64(1e-6)):
            assert SweepConfig(n_max=3, tolerance_float=tolerance).tolerance_float == tolerance


def grid(policy="all", count=3):
    """A sweep config with the given m policy and sample count."""
    return SweepConfig(n_max=100, m_policy=policy, sample_count=count)


class TestOrderPolicies:
    def test_all(self):
        assert orders_for(6, grid("all"), random.Random(0)) == [1, 2, 3, 4, 5, 6]

    def test_divisors(self):
        assert orders_for(12, grid("divisors"), random.Random(0)) == divisors(12)

    def test_sample_deterministic(self):
        a = orders_for(100, grid("sample", 10), random.Random(42))
        b = orders_for(100, grid("sample", 10), random.Random(42))
        assert a == b
        assert len(a) == 10
        assert all(1 <= m <= 100 for m in a)

    def test_sample_caps_at_n(self):
        assert orders_for(3, grid("sample", 10), random.Random(0)) == [1, 2, 3]

    def test_unknown_policy_raises_naming_the_policies(self):
        # the config refuses the policy, so no check or order grid sees it
        for policy in ("everything", "divsors"):
            with pytest.raises(DomainError, match=r"one of \('all', 'divisors', 'sample'\)"):
                SweepConfig(n_max=3, m_policy=policy)

    @pytest.mark.parametrize("n_max", [2.5, "3", True])
    def test_multiplicativity_pair_cap_reads_a_checked_n_max(self, n_max):
        with pytest.raises(DomainError, match="n_max must be an integer"):
            SweepConfig(n_max=n_max)

    def test_multiplicativity_caps_its_pairs_at_100(self):
        # every divisor of uv plus three seeded orders per pair u < v <= 100
        checks = list(check_multiplicativity(ID, SweepConfig(n_max=200)))
        pairs = [(u, v) for u in range(1, 101) for v in range(u + 1, 101) if math.gcd(u, v) == 1]
        assert len(checks) == sum(len(divisors(u * v)) + 3 for u, v in pairs)
        assert checks == list(check_multiplicativity(ID, SweepConfig(n_max=100)))


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
            for _, failure in check_multiplicativity(get_function("sigma"), SweepConfig(n_max=30))
            if failure is not None
        ]
        assert failures == []
        failures = [
            failure
            for _, failure in check_ramanujan_agreement(range(1, 80), grid())
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
        assert len(list(check_multiplicativity(ID, SweepConfig(n_max=12)))) == sum(
            len(divisors(u * v)) + 3 for u, v in pairs
        )
        # exact, float and integrality check per order for an integer-valued f
        assert len(list(check_path_equivalence(ID, [12, 30], grid()))) == 3 * (12 + 30)


class TestFaultInjection:
    def test_negated_closed_form_is_caught(self, fault):
        fault("negate-closed-form")
        config = SweepConfig(n_max=20, functions=("id",))
        report = run_verification(config)
        assert not report.passed
        assert len(report.failures) >= 1
        first = report.failures[0]
        assert first.identity in ("path-equivalence-exact", "path-equivalence-float")

    def test_offset_convolution_is_caught(self, fault):
        fault("offset-convolution")
        config = SweepConfig(n_max=20, functions=("phi",))
        report = run_verification(config)
        assert not report.passed

    def test_gcd_dependence_catches_offset_local_factors(self, fault):
        # the closed form at m against the convolution at gcd(m, n)
        fault("local-factor+1")
        failures = [
            failure
            for _, failure in check_gcd_dependence(get_function("sigma"), range(1, 30))
            if failure is not None
        ]
        assert failures
        assert all(f.identity == "gcd-dependence" for f in failures)

    @pytest.mark.parametrize(
        "name, check, expected",
        [
            (
                "negate-closed-form",
                lambda: check_path_equivalence(ID, range(1, 5), grid()),
                [
                    Failure("path-equivalence-exact", "id", 1, 1, "1", "-1"),
                    Failure("path-equivalence-float", "id", 1, 1, "-1", "(1+0j)"),
                ],
            ),
            (
                "negate-closed-form",
                lambda: check_path_equivalence(get_function("id_-1"), [2], grid()),
                [
                    Failure("path-equivalence-exact", "id_-1", 2, 1, "-1/2", "1/2"),
                    Failure("path-equivalence-float", "id_-1", 2, 1, "1/2", "(-0.5+0j)"),
                ],
            ),
            (
                "local-factor+1",
                lambda: check_gcd_dependence(get_function("sigma"), range(1, 5)),
                [Failure("gcd-dependence", "sigma", 2, 1, "2", "3")],
            ),
            (
                "local-factor+1",
                lambda: check_closed_form_pair(get_function("id_2"), range(1, 5), grid()),
                [Failure("geometric-form-vs-multiplicative-form", "id_2", 2, 1, "4", "3")],
            ),
            (
                "local-factor+1",
                lambda: check_closed_form_pair(ID, range(1, 5), grid()),
                [Failure("gcd-form-vs-multiplicative-form", "id", 2, 1, "2", "1")],
            ),
        ],
        ids=["negated-id", "negated-rational", "gcd-dependence", "geometric-pair", "gcd-pair"],
    )
    def test_first_failure_records(self, fault, name, check, expected):
        # expected values print by str, float oracle values by repr(complex)
        fault(name)
        failures = [failure for _, failure in check() if failure is not None]
        assert failures[: len(expected)] == expected

    def test_a_dropped_lattice_term_is_reported(self, fault, capsys):
        # every divisor walk loses n itself: the float oracle's divisor check
        # raises, and each class table lacks the class g = n
        fault("lattice-drops-last")
        failures = [x for _, x in check_path_equivalence(ID, [2], grid()) if x is not None]
        code = main(["verify", "--n-max", "12", "--functions", "sigma"])
        assert failures[1] == Failure(
            "path-equivalence-float", "id", 2, 1, "1",
            "oracle error: (1,) are not the 2 divisors of 2",
        )
        assert code == EXIT_VERIFICATION
        captured = capsys.readouterr()
        assert captured.err == ""
        for line in (
            "FAIL path-equivalence-float: 0/78 passed",
            "FAIL gcd-dependence: 0/234 passed",
            "FAIL multiplicativity: ",
            "total: 1031 checks, ",
        ):
            assert line in captured.out

    def test_a_definition_row_that_raises_fails_each_float_check(self, fault):
        # the row is the FFT of eps, which sieves on the same divisor walk
        fault("lattice-drops-last")
        results = list(check_ramanujan_agreement(range(1, 4), grid()))
        floats = [x for identity, x in results if identity == "ramanujan-float-agreement"]
        assert len(floats) == 6 and all(x.got.startswith("oracle error: ") for x in floats)
        assert floats[1] == Failure(
            "ramanujan-float-agreement", "-", 2, 1, "-1",
            "oracle error: (1,) are not the 2 divisors of 2",
        )

    def test_fault_in_check_generator(self, fault):
        fault("negate-closed-form")
        failures = [
            failure
            for _, failure in check_path_equivalence(ID, range(1, 15), grid())
            if failure is not None
        ]
        assert failures
        # n = 1, m = 1 transforms to 1 != -1, so even the floor case trips
        assert any(f.n == 1 for f in failures)


class TestFloatBound:
    @pytest.mark.parametrize("name, n", [("id_3", 2520), ("J_3", 5040)])
    def test_large_values_pass_the_fft_check(self, fault, name, n):
        # values reach ~10^10, where the FFT is off by ~2e-6 in absolute terms
        f = get_function(name)
        outcomes = list(check_path_equivalence(f, [n], grid("divisors")))
        assert [x for _, x in outcomes if x is not None] == []
        fault("negate-closed-form")
        faulted = check_path_equivalence(f, [n], grid("divisors"))
        assert {x.identity for _, x in faulted if x is not None} == {
            "path-equivalence-exact",
            "path-equivalence-float",
        }


class TestClosedFormPairChecks:
    def test_id_pairs(self):
        failures = [
            failure
            for _, failure in check_closed_form_pair(ID, range(1, 60), grid())
            if failure is not None
        ]
        assert failures == []

    def test_completely_multiplicative_pairs(self):
        for name in ("id_2", "lambda", "1"):
            failures = [
                failure
                for _, failure in check_closed_form_pair(
                    get_function(name), range(1, 60), grid()
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

    def test_failure_text_shows_counterexample(self, fault):
        fault("negate-closed-form")
        config = SweepConfig(n_max=15, functions=("id",))
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


class TestTolerance:
    @pytest.mark.parametrize("tolerance", [-1.0, 0.0, math.nan, math.inf])
    def test_rejects_a_tolerance_that_is_not_finite_and_positive(self, tolerance):
        with pytest.raises(DomainError, match="tolerance"):
            SweepConfig(n_max=5, tolerance_float=tolerance)

    @pytest.mark.parametrize("tolerance", ["-1", "0", "nan", "inf"])
    def test_cli_exits_usage(self, capsys, tolerance):
        assert main(["verify", "--n-max", "5", "--tolerance", tolerance]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: tolerance")

    def test_cli_accepts_a_small_tolerance(self, capsys):
        assert main(["verify", "--n-max", "5", "--tolerance", "1e-9"]) == EXIT_OK
        assert "total: " in capsys.readouterr().out


class TestClosedFormPairWork:
    def test_plain_multiplicative_f_evaluates_no_kernel_product(self, monkeypatch):
        calls = []
        honest = verify.dft_closed_form_multiplicative
        monkeypatch.setattr(
            verify,
            "dft_closed_form_multiplicative",
            lambda f, n, m: calls.append(n) or honest(f, n, m),
        )
        assert list(check_closed_form_pair(get_function("sigma"), range(1, 30), grid())) == []
        assert calls == []
        pairs = list(check_closed_form_pair(get_function("id_2"), range(1, 30), grid()))
        assert len(pairs) == len(calls) == sum(range(1, 30))


class TestNoIdentityChecksTheKernelAgainstItself:
    EXACT_IDENTITIES = (
        "path-equivalence-exact",
        "gcd-dependence",
        "multiplicativity",
        "coprime-order-totient",
        "gcd-form-vs-multiplicative-form",
        "geometric-form-vs-multiplicative-form",
    )

    def test_offset_kernel_fails_every_exact_identity(self, fault):
        fault("local-factor+1")
        report = run_verification(SweepConfig(n_max=12, functions=("sigma", "id_2", "id")))
        failed = {identity for identity, (_, failures) in report.by_identity.items() if failures}
        assert set(self.EXACT_IDENTITIES) <= failed

    def test_multiplicativity_evaluates_one_closed_form_per_check(self, monkeypatch):
        calls = []
        honest = verify.exact_closed_form
        monkeypatch.setattr(
            verify, "exact_closed_form", lambda f, n, m: calls.append(n) or honest(f, n, m)
        )
        checks = list(check_multiplicativity(get_function("sigma"), SweepConfig(n_max=12)))
        assert checks and all(failure is None for _, failure in checks)
        assert len(calls) == len(checks)

    def test_first_multiplicativity_record(self, fault):
        fault("local-factor+1")
        sigma = get_function("sigma")
        checks = check_multiplicativity(sigma, SweepConfig(n_max=12))
        failures = [f for _, f in checks if f is not None]
        # u = 1, v = 2, m = 1: the convolutions give 1 * 2, the offset closed form 3
        split = dft_exact_convolution(sigma, 1, 1) * dft_exact_convolution(sigma, 2, 1)
        assert failures[0] == Failure("multiplicativity", "sigma", 2, 1, str(split), "3")
        assert split == 2

    def test_coprime_order_totient_reads_the_dispatched_closed_form(self, fault):
        fault("local-factor+1")
        failures = [f for _, f in check_coprime_order_totient(range(1, 6)) if f is not None]
        # n = 1 has no prime, so no kernel: the first failure is phi(2) = 1
        assert failures[0] == Failure("coprime-order-totient", "id", 2, 1, "1", "2")


def test_ramanujan_float_checks_call_the_public_definition(monkeypatch):
    """The float checks read one public definition row per n: an offset row
    at ``verify`` fails every one of them."""
    calls = []
    honest = verify.ramanujan_definition_row
    monkeypatch.setattr(verify, "ramanujan_definition_row", lambda n: calls.append(n) or honest(n))

    def float_checks():
        results = check_ramanujan_agreement(range(1, 13), grid())
        return [failure for identity, failure in results if identity == "ramanujan-float-agreement"]

    assert float_checks() == [None] * 78
    assert calls == list(range(1, 13))
    monkeypatch.setattr(
        verify, "ramanujan_definition_row", lambda n: [z + 1e-3j for z in honest(n)]
    )
    failures = float_checks()
    assert len(failures) == 78 and None not in failures
