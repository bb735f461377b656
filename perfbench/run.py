"""Layered benchmark of gcdft: four seeded closed-loop workloads.

    python3 perfbench/run.py --workload point --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; gcdft is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics of the workload, ``--trace 1``
the per-layer metrics of a traced run of a fixed request count, with the
tracing overhead against an untraced run of the same requests. The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the provenance.
``--workload all`` runs every workload both ways and prints a table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("point", "table", "sweep", "oracle")
# set-up samples before and after the measured run, so that their median
# spans the run's time
SETUP_BEFORE, SETUP_AFTER = 6, 5
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _worker(*args: str, timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON line."""
    command = [sys.executable, str(BENCH_DIR / "worker.py"), *args]
    try:
        done = subprocess.run(
            command, capture_output=True, text=True, env=_child_env(), cwd=ROOT, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {timeout} s: {shlex.join(command)}") from exc
    if done.returncode != 0:
        raise BenchError(f"worker failed ({done.returncode}): {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def setup_seconds(workload: str, seed: int) -> float:
    """Interpreter start to the return of the workload's first request."""
    started = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    reply = _worker("setup", "--workload", workload, "--seed", str(seed), timeout=60)
    return (reply["returned_at_ns"] - started) / 1e9


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    setup = [setup_seconds(workload, seed) for _ in range(SETUP_BEFORE)]
    run = _worker("measure", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds))
    setup += [setup_seconds(workload, seed) for _ in range(SETUP_AFTER)]
    metrics = {
        "values_per_s": _metric(run["values_per_s"], "1/s"),
        "latency_p50_ms": _metric(run["latency_p50_ms"], "ms"),
        "latency_p90_ms": _metric(run["latency_p90_ms"], "ms"),
        "success_ratio": _metric(1 - run["failed"] / run["attempted"], "ratio"),
        "peak_rss_mb": _metric(run["peak_rss_mb"], "MB"),
        "setup_s": _metric(statistics.median(setup), "s"),
    }
    detail = {
        "run": run,
        "setup_samples_s": setup,
        "failed_ratio": run["failed"] / run["attempted"],
    }
    return metrics, detail


def traced(workload: str, seed: int) -> tuple[dict, dict]:
    common = ["measure", "--workload", workload, "--seed", str(seed), "--fixed"]
    plain = _worker(*common)
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload}.npz"
    run = _worker(*common, "--trace", "--spans", str(spans))
    units = {"calls": "count", "self_ms": "ms", "hit_ratio": "ratio",
             "memo_entries": "count", "dispatch_per_row": "calls/row",
             "closed_form_per_check": "calls/check"}
    metrics = {name: _metric(value, units[name.rsplit(".", 1)[1]])
               for name, value in run["per_layer"].items()}
    metrics["trace.overhead_ratio"] = _metric(run["values_per_s"] / plain["values_per_s"], "ratio")
    return metrics, {"run": run, "untraced": plain, "spans_file": str(spans.relative_to(ROOT))}


def provenance(args) -> dict:
    revision = None
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            revision = None
    import numpy

    return {
        "git_revision": revision,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "command": shlex.join([os.path.relpath(sys.argv[0], ROOT), *sys.argv[1:]]),
    }


def one(workload: str, args) -> dict:
    if args.trace:
        metrics, detail = traced(workload, args.seed)
    else:
        metrics, detail = end_to_end(workload, args.seed, args.seconds)
    run = detail["run"]
    result = {
        "correct": run["wrong"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    record = {"provenance": provenance(args), "result": result, "detail": detail}
    name = f"result-{workload}-seed{args.seed}-trace{int(args.trace)}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    return record


def print_table(records: dict[str, dict]) -> None:
    for workload, (plain, traced_record) in records.items():
        res, detail = plain["result"], plain["detail"]
        print(f"{workload}: attempted {res['attempted']}, failed {res['failed']}, "
              f"failed_ratio {detail['failed_ratio']:.4f} (count), correct {res['correct']}")
        if detail["run"]["errors"]:
            print(f"  failures by kind: {detail['run']['errors']}")
        for name, m in res["metrics"].items():
            print(f"  {name:36} {m['value']:14.4f} {m['unit']}")
        for name, m in traced_record["result"]["metrics"].items():
            print(f"  {name:36} {m['value']:14.4f} {m['unit']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "gcdft" / "__init__.py").is_file():
        print(f"error: no gcdft sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            records = {}
            for workload in WORKLOADS:
                args.trace = 0
                plain = one(workload, args)
                args.trace = 1
                records[workload] = (plain, one(workload, args))
            print_table(records)
            print(json.dumps({w: {"end_to_end": p["result"], "per_layer": t["result"]}
                              for w, (p, t) in records.items()}))
            return 0
        record = one(args.workload, args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(record["provenance"]))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
