"""A module alias of a catalog function may be replaced by a forwarding
wrapper, as a tracer does; the library recognises ``id`` by the catalog
object, so its tables and sweeps do not change, and a parametrized name
such as ``id_1`` is still the catalog object."""

import pytest

from gcdft import functions
from gcdft.functions import get_function
from gcdft.tables import build_table
from gcdft.verify import SweepConfig, run_verification


@pytest.fixture
def wrapped_id(everywhere):
    """Every gcdft module's name for the catalog ``id`` points at a wrapper."""
    original = get_function("id")

    def forward(*args, **kwargs):
        return original(*args, **kwargs)

    everywhere(original, forward)
    assert functions.ID is forward


def test_id_table_keeps_its_symbolic_forms(wrapped_id):
    rows = build_table(get_function("id"), 6, compress=True)
    assert [r.symbolic_form for r in rows] == [
        "(p-1)(q-1)", "(2p-1)(q-1)", "(p-1)(2q-1)", "(2p-1)(2q-1)",
    ]


def test_id_sweep_checks_the_gcd_form(wrapped_id):
    report = run_verification(SweepConfig(n_max=12, functions=("id",)))
    assert report.passed
    assert report.by_identity["gcd-form-vs-multiplicative-form"] == [78, 0]
    assert "geometric-form-vs-multiplicative-form" not in report.by_identity


@pytest.fixture
def forgotten_names():
    """``get_function``'s memo empty on entry, and again on exit, so that
    nothing looked up while a test replaced a name stays memoized."""
    get_function.cache_clear()
    yield
    get_function.cache_clear()


@pytest.mark.parametrize("name, canonical", [("id_0", "1"), ("id_1", "id"), ("J_1", "phi")])
def test_a_parametrized_name_is_the_catalog_object(monkeypatch, forgotten_names, name, canonical):
    for attr in ("ONE", "ID", "PHI"):
        monkeypatch.setattr(functions, attr, object())
    assert get_function(name) is get_function(canonical)
