"""The benchmark in ``perfbench/`` reaches into ``gcdft`` by name: its tracer
wraps the public functions and reads ``lru_cache`` statistics, its workloads
call the library and check the answers, and its worker offsets the closed
forms to test those checks. This runs request 0 of every workload as a
traced benchmark run does, so a change to the library that breaks one of
those names fails here rather than in a benchmark run."""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from gcdft import cli, transform

ROOT = pathlib.Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
# a seed whose first point request falls in the share the benchmark checks
SEED = 13
CLOSED_FORMS = (
    "dft_closed_form_gcd",
    "dft_closed_form_multiplicative",
    "dft_closed_form_completely_mult",
)


@pytest.fixture(scope="module")
def worker():
    """``perfbench/worker.py``, which loads ``tracer``, ``workloads`` and
    ``probe`` as the benchmark's processes do."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import worker
    finally:
        sys.path.remove(str(PERFBENCH))
    return worker


@pytest.mark.parametrize("name", ["point", "table", "sweep", "oracle"])
def test_request_zero_runs_traced_and_passes_its_checks(worker, name):
    workload = worker.workloads.WORKLOADS[name](SEED)
    request = workload.generate(0)
    tracer = worker.Tracer()
    tracer.install()
    try:
        output = tracer.call(0, workload.run, request)
    finally:
        tracer.uninstall()
    problem, later = workload.check_now(request, output)
    assert problem is None
    assert (later is None) == (name == "sweep")  # a sweep is checked at once
    if later is not None:
        assert workload.check_later(request, later) is None
    used = list(workload.functions.values())
    assert worker.per_layer(tracer, name, workload.values(request, output), used)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(workload.cli_args(request)) == cli.EXIT_OK


def test_the_offset_fault_is_put_back(worker):
    honest = [getattr(transform, name) for name in CLOSED_FORMS]
    patches = worker.Patches()
    worker.inject_offset_fault(patches)
    try:
        assert all(getattr(transform, n) is not f for n, f in zip(CLOSED_FORMS, honest))
    finally:
        patches.undo()
    assert all(getattr(transform, n) is f for n, f in zip(CLOSED_FORMS, honest))


def test_every_per_layer_span_metric_names_a_traced_span(worker):
    """A ``<span>.calls`` or ``<span>.self_ms`` metric of BENCHMARK.json reads
    0 in silence when its function moves or is renamed; so each must name a
    span the tracer yields. ``transform.decompose_order`` is the one known
    dead metric: its function is gone and the metric awaits its removal."""
    dead = {"transform.decompose_order"}
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    named = {
        span
        for span, _, kind in (m["name"].rpartition(".") for m in metrics)
        if kind in ("calls", "self_ms")
    }
    traced = {span for span, _ in sys.modules[worker.Tracer.__module__].layer_functions()}
    assert named - traced == dead
