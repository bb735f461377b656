"""Self-test of the benchmark: its checks bite, and it emits what it declares.

    python3 perfbench/selftest.py

1. Each workload runs its fixed request list twice in fresh processes, once
   as is and once with every closed form answering one more than it should.
   The faulted run must fail more requests; on point, table and sweep the
   benchmark's own checks must reject the wrong values.
2. ``run.py`` must print every end-to-end metric (``--trace 0``) and every
   per-layer metric (``--trace 1``) named in BENCHMARK.json, with its unit.
3. In a directory holding only BENCHMARK.json and the benchmark's files,
   ``run.py`` must exit non-zero without printing a result.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check(condition: bool, message: str, failures: list[str]) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def fault_bites(failures: list[str]) -> None:
    for workload in run.WORKLOADS:
        args = ["measure", "--workload", workload, "--seed", "7", "--fixed"]
        clean = run._worker(*args)
        faulted = run._worker(*args, "--fault")
        check(
            faulted["failed"] / faulted["attempted"] > clean["failed"] / clean["attempted"],
            f"{workload}: injected fault raises failed_ratio "
            f"({clean['failed']}/{clean['attempted']} -> {faulted['failed']}/{faulted['attempted']})",
            failures,
        )
        if workload != "oracle":  # there the library itself raises first
            check(faulted["wrong"] > 0, f"{workload}: the benchmark's check rejects wrong values "
                  f"({faulted['wrong']} rejected)", failures)


def emits_declared_metrics(failures: list[str]) -> None:
    for trace, declared in ((0, BENCHMARK["end_to_end"]), (1, BENCHMARK["per_layer"])):
        done = subprocess.run(
            [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", "table",
             "--seed", "3", "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True, cwd=run.ROOT, timeout=600,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        check(set(result) == RESULT_KEYS, f"trace {trace}: result keys {sorted(result)}", failures)
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        wanted = {m["name"]: m["unit"] for m in declared}
        check(emitted == wanted, f"trace {trace}: emits the {len(wanted)} declared metrics "
              f"with their units (missing {sorted(set(wanted) - set(emitted))}, "
              f"extra {sorted(set(emitted) - set(wanted))})", failures)


def refuses_without_sources(failures: list[str]) -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        done = subprocess.run(
            [sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload", "point",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=180,
        )
    finally:
        shutil.rmtree(bare)
    check(done.returncode != 0 and not done.stdout.strip(),
          f"without sources: exit {done.returncode}, stdout {done.stdout.strip()[:60]!r}", failures)


def main() -> int:
    failures: list[str] = []
    fault_bites(failures)
    emits_declared_metrics(failures)
    refuses_without_sources(failures)
    print(f"{len(failures)} failed" if failures else "all checks hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
