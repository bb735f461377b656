"""Timing harness: brute-force float transform vs factorize-plus-dispatch (the
closed form, or the exact convolution for a general function).

Medians of a monotonic clock over several repetitions; the factorization
cache is cleared between repetitions so the closed-form column pays for its
factorization (the brute column keeps no cache of its own). One float spot
check per n, within :func:`transform.float_bound` of the exact value, guards
against benchmarking a wrong value.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass

from .errors import DomainError
from .functions import ArithmeticFunction, Exact
from .numtheory import factorize
from .ramanujan import FLOAT_TOLERANCE
from .tables import format_exact
from .transform import dft_brute_float, dft_dispatch, float_agrees, float_bound

BENCH_FIELDS = (
    "n",
    "f",
    "repetitions",
    "brute_median_s",
    "closed_median_s",
    "speedup",
    "value",
    "spot_check",
)


@dataclass(frozen=True)
class BenchResult:
    n: int
    f_name: str
    repetitions: int
    brute_median_s: float
    closed_median_s: float
    speedup: float
    value: Exact
    spot_check: bool


def bench_one(f: ArithmeticFunction, n: int, repetitions: int = 5) -> BenchResult:
    """Median wall time of both paths at order m = n (every theta branch hot)."""
    if repetitions < 1:
        raise DomainError("repetitions must be >= 1")
    m = n
    brute_times = []
    closed_times = []
    for _ in range(repetitions):
        start = time.perf_counter()
        brute = dft_brute_float(f, n, m)
        brute_times.append(time.perf_counter() - start)

        factorize.cache_clear()
        start = time.perf_counter()
        fac = factorize(n)
        value = dft_dispatch(f, fac, m).value
        closed_times.append(time.perf_counter() - start)

    brute_median = statistics.median(brute_times)
    closed_median = statistics.median(closed_times)
    return BenchResult(
        n,
        f.name,
        repetitions,
        brute_median,
        closed_median,
        brute_median / closed_median if closed_median > 0 else float("inf"),
        value,
        float_agrees(brute, value, float_bound(f, n, FLOAT_TOLERANCE)),
    )


def run_bench(f: ArithmeticFunction, n_values: list[int], repetitions: int = 5) -> list[BenchResult]:
    return [bench_one(f, n, repetitions) for n in n_values]


def render_bench(results: list[BenchResult], fmt: str = "csv") -> str:
    if fmt == "csv":
        lines = [",".join(BENCH_FIELDS)]
        for r in results:
            lines.append(
                f"{r.n},{r.f_name},{r.repetitions},{r.brute_median_s:.6e},"
                f"{r.closed_median_s:.6e},{r.speedup:.1f},{format_exact(r.value)},"
                f"{int(r.spot_check)}"
            )
        return "\n".join(lines)
    if fmt == "text":
        lines = []
        for r in results:
            lines.append(
                f"n={r.n} f={r.f_name}: brute {r.brute_median_s * 1e3:.3f} ms, "
                f"closed form {r.closed_median_s * 1e6:.1f} us, "
                f"speedup {r.speedup:.0f}x, spot check "
                f"{'ok' if r.spot_check else 'FAILED'}"
            )
        return "\n".join(lines)
    if fmt == "json":
        return json.dumps(
            [
                {
                    "n": r.n,
                    "f": r.f_name,
                    "repetitions": r.repetitions,
                    "brute_median_s": r.brute_median_s,
                    "closed_median_s": r.closed_median_s,
                    "speedup": r.speedup,
                    "value": format_exact(r.value),
                    "spot_check": r.spot_check,
                }
                for r in results
            ],
            indent=2,
        )
    raise DomainError(f"unknown bench format {fmt!r}")
