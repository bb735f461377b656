"""A passing verify check costs only its comparison: each check builds its
pass record ``(identity, None)`` once and yields it on every pass, and
``_verdict`` runs only for a failing check. The exact Ramanujan evaluators
take plain ints straight through; ``test_typed_boundary.py`` sweeps what they
refuse."""

from collections import defaultdict

import numpy as np
import pytest

from gcdft import verify
from gcdft.functions import get_function
from gcdft.ramanujan import ramanujan_kluyver, ramanujan_von_sterneck
from gcdft.verify import (
    SweepConfig,
    check_closed_form_pair,
    check_coprime_order_totient,
    check_gcd_dependence,
    check_multiplicativity,
    check_path_equivalence,
    check_ramanujan_agreement,
    run_verification,
)


@pytest.fixture
def verdicts(monkeypatch):
    """The number of ``verify._verdict`` calls so far, as a one-item list."""
    calls = [0]
    honest = verify._verdict

    def counted(*args):
        calls[0] += 1
        return honest(*args)

    monkeypatch.setattr(verify, "_verdict", counted)
    return calls


def test_a_clean_sweep_calls_no_verdict(verdicts):
    report = run_verification(SweepConfig(n_max=12, functions=("sigma", "id")))
    assert report.passed and report.checks > 0
    assert verdicts == [0]


def test_a_faulted_sweep_calls_one_verdict_per_failure(verdicts, fault):
    fault("local-factor+1")
    report = run_verification(SweepConfig(n_max=12, functions=("sigma", "id")))
    assert 0 < len(report.failures) < report.checks
    assert verdicts == [len(report.failures)]


def public_checks():
    ns, f, config = range(1, 13), get_function("sigma"), SweepConfig(n_max=12)
    return {
        "path-equivalence": check_path_equivalence(f, ns, config),
        "closed-form-pair": check_closed_form_pair(get_function("id"), ns, config),
        "gcd-dependence": check_gcd_dependence(f, ns),
        "multiplicativity": check_multiplicativity(f, config),
        "coprime-order-totient": check_coprime_order_totient(ns),
        "ramanujan-agreement": check_ramanujan_agreement(ns, config),
    }


@pytest.mark.parametrize("check", list(public_checks()))
def test_each_pass_yields_the_one_pass_record_of_its_identity(check):
    items = list(public_checks()[check])  # all alive at once, so no id is reused
    records = defaultdict(set)
    for item in items:
        assert item == (item[0], None)
        records[item[0]].add(id(item))
    assert records and all(len(ids) == 1 for ids in records.values()), records


@pytest.mark.parametrize("evaluator", [ramanujan_von_sterneck, ramanujan_kluyver])
def test_exact_evaluators_accept_numpy_ints(evaluator):
    value = evaluator(np.int64(12), np.int64(8))
    assert type(value) is int and value == evaluator(12, 8) == -2
