"""``tools/fault_matrix.py``: the clean sweep passes, and a fault in each rule
and each exact path the evaluation uses fails at least two exact identity
families."""

import importlib.util
import pathlib

import pytest

from gcdft import numtheory, ramanujan, transform, verify

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "fault_matrix.py"


@pytest.fixture(scope="module")
def fault_matrix():
    spec = importlib.util.spec_from_file_location("fault_matrix", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_clean_sweep_passes(fault_matrix):
    counts = fault_matrix.sweep(12)
    assert not isinstance(counts, str), counts
    assert counts and all(failed == 0 for failed, _ in counts.values())


def rules():
    return (
        transform._local_factor,
        ramanujan._prime_power_sum,
        transform._prime_power_sum,
        numtheory._class_exponents,
        transform._class_exponents,
        numtheory._lattice_terms,
        transform.exact_closed_form,
        verify.exact_closed_form,
        transform.dft_exact_convolution,
        verify.dft_exact_convolution,
    )


@pytest.mark.parametrize(
    "fault",
    [
        "local-factor+1",
        "prime-power-sum+1",
        "class-exponents+1",
        "lattice-drops-last",
        "negate-closed-form",
        "offset-convolution",
    ],
)
def test_each_rule_fault_fails_two_exact_families(fault_matrix, fault):
    honest = rules()
    counts = fault_matrix.sweep(12, fault)
    assert not isinstance(counts, str), counts
    exact = [k for k, (failed, _) in counts.items() if failed and "float" not in k]
    assert len(exact) >= 2, counts
    assert rules() == honest  # every rule is put back
