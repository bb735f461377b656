"""The harness the tests share. Faults come from ``FAULTS`` of
``tools/fault_matrix.py``, gcdft's one fault table, and caches are emptied by
its scan of every gcdft module. Each test ends by emptying
``functions._divisor_values``; f's divisor values built under a fault must
not reach the next test."""

import importlib.util
import pathlib

import pytest

from gcdft import numtheory
from gcdft.functions import _divisor_values

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "fault_matrix.py"


@pytest.fixture(scope="session")
def fault_matrix():
    spec = importlib.util.spec_from_file_location("fault_matrix", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def replace_everywhere(patch, fault_matrix, original, replacement):
    """Point every gcdft module's name for ``original`` at ``replacement``."""
    for module in fault_matrix._gcdft_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                patch.setattr(module, attr, replacement)


@pytest.fixture(autouse=True)
def _forget_divisor_values():
    yield
    _divisor_values.cache_clear()


@pytest.fixture
def everywhere(monkeypatch, fault_matrix):
    """``everywhere(original, replacement)`` for the rest of the test."""
    return lambda original, new: replace_everywhere(monkeypatch, fault_matrix, original, new)


@pytest.fixture
def cold(fault_matrix):
    """Every gcdft cache empty on entry, and again on exit."""
    fault_matrix._clear_caches()
    yield
    fault_matrix._clear_caches()


@pytest.fixture
def fault(fault_matrix):
    """``fault(name)`` installs ``FAULTS[name]`` wherever a gcdft module holds
    the rule, for the rest of the test; every cache is emptied before it goes
    in and after it comes out."""
    with pytest.MonkeyPatch.context() as patch:

        def install(name):
            module, rule, build = fault_matrix.FAULTS[name]
            honest = getattr(module, rule)
            fault_matrix._clear_caches()
            replace_everywhere(patch, fault_matrix, honest, build(honest))

        yield install
    fault_matrix._clear_caches()


@pytest.fixture
def factored(cold, fault_matrix):
    """Every n that ``factorize`` is called on, under any alias, from cold caches."""
    calls = []
    honest = numtheory.factorize
    with pytest.MonkeyPatch.context() as patch:
        replace_everywhere(patch, fault_matrix, honest, lambda n: calls.append(n) or honest(n))
        yield calls
