"""Spans around the public functions of each gcdft module, recorded from
outside the library.

Each public function of a layer module is replaced by a wrapper at its module
attribute and at every other gcdft module that imported the name (for example
``gcdft.tables.dft_dispatch``). A wrapper records one span: id, parent span,
name, start, end and request id. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import inspect
import itertools
import sys
import time
from array import array

import numpy as np

from gcdft import functions, numtheory, ramanujan, tables, transform, verify

LAYERS = (numtheory, functions, ramanujan, tables, transform, verify)

# Span names for functions whose metric name is not the function name. The
# four closed forms share one name, so the metric survives merging them.
SPAN_NAMES = {
    "ramanujan_von_sterneck": "von_sterneck",
    "ramanujan_kluyver": "kluyver",
    "ramanujan_definition": "definition",
    "dft_dispatch": "dispatch",
    "dft_closed_form_gcd": "closed_form",
    "dft_closed_form_multiplicative": "closed_form",
    "dft_closed_form_completely_mult": "closed_form",
    "gcd_power_sum": "closed_form",
    "dft_exact_convolution": "convolution",
    "dft_brute_float": "brute_float",
    "dft_brute_spectrum": "brute_spectrum",
}

# lru caches whose hit ratio is a per-layer metric: metric prefix -> cache
CACHES = {
    "numtheory.factorize": numtheory.factorize,
    "numtheory.divisor_tuple": numtheory.divisor_tuple,
    "transform.gcd_buckets": transform._gcd_buckets,
}

ROOT = 0
SPAN_COLUMNS = ("id", "parent", "name", "start_ns", "end_ns", "request")


class Patches:
    """Replaces a gcdft function everywhere the package refers to it, and
    puts every original back on :meth:`undo`."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, original, replacement) -> None:
        for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "gcdft"]:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, replacement)

    def replace_method(self, cls, attr: str, replacement) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def undo(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


def layer_functions():
    """(span name, function) for every public function defined in a layer
    module. Generator functions are left out: their work runs while the
    caller iterates, so a span around the call would time nothing."""
    for module in LAYERS:
        layer = module.__name__.rsplit(".", 1)[1]
        for name, value in vars(module).items():
            if name.startswith("_") or inspect.isclass(value) or not callable(value):
                continue
            if getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isgeneratorfunction(inspect.unwrap(value)):
                continue
            yield f"{layer}.{SPAN_NAMES.get(name, name)}", value
    yield "functions.prime_power", functions.ArithmeticFunction.prime_power


class Tracer:
    """Records spans while installed; one request id per benchmark request.

    Spans are kept as rows of six int64 columns, ``SPAN_COLUMNS``, in one
    flat array; the name column indexes ``self.names``.
    """

    def __init__(self):
        self.spans = array("q")
        self.names: list[str] = []
        self.stack = [ROOT]
        self.request = 0
        self.patches = Patches()
        self._ids = itertools.count(1).__next__
        self._cache_before: dict[str, tuple[int, int]] = {}
        self._cache_after: dict[str, tuple[int, int]] = {}

    def _wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        name_index = self.names.index(name)
        extend, stack, ids, clock = self.spans.extend, self.stack, self._ids, time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            span = ids()
            parent = stack[-1]
            stack.append(span)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                extend((span, parent, name_index, start, end, tracer.request))

        return traced

    def install(self) -> None:
        for name, fn in layer_functions():
            if fn is functions.ArithmeticFunction.prime_power:
                self.patches.replace_method(functions.ArithmeticFunction, "prime_power", self._wrap(name, fn))
            else:
                self.patches.replace(fn, self._wrap(name, fn))
        self._request_span = self._wrap("request", lambda call, arg: call(arg))
        self._cache_before = {k: self._cache_counts(c) for k, c in CACHES.items()}

    def uninstall(self) -> None:
        self._cache_after = {k: self._cache_counts(c) for k, c in CACHES.items()}
        self.patches.undo()

    @staticmethod
    def _cache_counts(cache) -> tuple[int, int]:
        info = cache.cache_info()
        return info.hits, info.misses

    def call(self, request_id: int, fn, arg):
        """Run one request under a root span."""
        self.request = request_id
        return self._request_span(fn, arg)

    def table(self) -> np.ndarray:
        return np.frombuffer(self.spans, dtype=np.int64).reshape(-1, len(SPAN_COLUMNS))

    def summary(self) -> tuple[dict[str, int], dict[str, int]]:
        """Calls and self time (ns) per span name.

        Self time is a span's duration minus the time its child spans cover;
        children of one span never overlap, as there is one thread.
        """
        rows = self.table()
        if not len(rows):
            return {}, {}
        span, parent, name, start, end = (rows[:, i] for i in range(5))
        duration = end - start
        child = np.zeros(int(span.max()) + 1, dtype=np.int64)
        np.add.at(child, parent, duration)
        own = duration - child[span]
        calls = np.bincount(name, minlength=len(self.names))
        self_ns = np.zeros(len(self.names), dtype=np.int64)
        np.add.at(self_ns, name, own)
        return (
            {n: int(calls[i]) for i, n in enumerate(self.names)},
            {n: int(self_ns[i]) for i, n in enumerate(self.names)},
        )

    def nested(self, outer: str, inner: str) -> int:
        """Spans named ``inner`` that ran inside a span named ``outer``."""
        rows = self.table()
        if outer not in self.names or inner not in self.names or not len(rows):
            return 0
        size = int(rows[:, 0].max()) + 1
        parent_of = np.zeros(size, dtype=np.int64)
        name_of = np.full(size, -1, dtype=np.int64)
        parent_of[rows[:, 0]] = rows[:, 1]
        name_of[rows[:, 0]] = rows[:, 2]
        current = rows[rows[:, 2] == self.names.index(inner), 1]
        found = np.zeros(len(current), dtype=bool)
        target = self.names.index(outer)
        while current.any():
            found |= name_of[current] == target
            current = parent_of[current]
        return int(found.sum())

    def hit_ratio(self, cache: str) -> float:
        hits = self._cache_after[cache][0] - self._cache_before[cache][0]
        misses = self._cache_after[cache][1] - self._cache_before[cache][1]
        return hits / (hits + misses) if hits + misses else 0.0

    def write(self, path) -> None:
        """Save the spans as ``.npz``: ``spans`` rows of ``columns``, with the
        name column indexing ``names``."""
        np.savez_compressed(
            path, spans=self.table(), columns=np.array(SPAN_COLUMNS), names=np.array(self.names)
        )


def memo_entries(fns) -> int:
    """Entries in the prime-power and value memos of the given functions."""
    return sum(len(getattr(f, "_memo", ())) + len(getattr(f, "_value_memo", ())) for f in fns)


def per_layer(tracer: Tracer, workload, values: int, functions_used) -> dict[str, float]:
    """The per-layer metrics of one traced run, by metric name."""
    calls, self_ns = tracer.summary()
    out: dict[str, float] = {}

    def span(name, *, count=True, self_ms=True):
        if count:
            out[f"{name}.calls"] = calls.get(name, 0)
        if self_ms:
            out[f"{name}.self_ms"] = self_ns.get(name, 0) / 1e6

    span("numtheory.factorize")
    out["numtheory.factorize.hit_ratio"] = tracer.hit_ratio("numtheory.factorize")
    span("numtheory.is_prime")
    span("numtheory.divisor_tuple", count=False)
    out["numtheory.divisor_tuple.hit_ratio"] = tracer.hit_ratio("numtheory.divisor_tuple")
    span("functions.evaluate")
    span("functions.prime_power")
    out["functions.memo_entries"] = memo_entries(functions_used)
    for name in ("von_sterneck", "kluyver", "definition"):
        span(f"ramanujan.{name}")
    span("transform.dispatch")
    span("transform.decompose_order", count=False)
    for name in ("closed_form", "convolution", "brute_float", "brute_spectrum"):
        span(f"transform.{name}")
    out["transform.gcd_buckets.hit_ratio"] = tracer.hit_ratio("transform.gcd_buckets")
    span("tables.build_table", count=False)
    span("tables.render_table", count=False)
    rows = values if workload == "table" else 0
    out["tables.dispatch_per_row"] = (
        tracer.nested("tables.build_table", "transform.dispatch") / rows if rows else 0.0
    )
    span("verify.run_verification", count=False)
    span("verify.render_report", count=False)
    checks = values if workload == "sweep" else 0
    out["verify.closed_form_per_check"] = (
        tracer.nested("verify.run_verification", "transform.closed_form") / checks if checks else 0.0
    )
    return out
