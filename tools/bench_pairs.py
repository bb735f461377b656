"""Run alternating parent/change pairs of the benchmark and write one
``BENCH_<sha>.json`` per side; or compare two such files:

    python3 tools/bench_pairs.py PARENT CHANGE --seed S
    python3 tools/bench_pairs.py --compare BENCH_old.json BENCH_new.json

Each side runs from a ``git archive`` of its revision, extracted to a
temporary directory, so uncommitted edits never reach a run. For every
workload, each of ten pairs i runs ``python3 perfbench/run.py --workload W
--seed S --seconds T --trace 0`` on both sides, parent first in even pairs,
with T the ``run_seconds`` of BENCHMARK.json. Each metric is summarized by
its median and quartiles over the runs of one side (``statistics.quantiles``,
inclusive method) and keeps its run values in pair order, so that
``--compare`` can count the pairs each side won. A ``BENCH_<sha>.json`` that
already exists stops the tool before any run, so a record is never
overwritten. Run from the root of a git checkout.

Before the runs, this checkout's ``tools/digest.py`` hashes the answers of
each tree's ``src`` under ``PYTHONHASHSEED=0``, and each file keeps its five
lines under ``digest``. Where both files hold them, ``--compare`` says
whether lines 1-4, the exact answers, agree.

An end-to-end metric reads "unresolved" in ``--compare`` where either side's
quartile distance, relative to its median, exceeds the metric's bound in
BENCHMARK.json, unless every change run beats every parent run: such a
spread cannot show a move within the bound either way.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("point", "table", "sweep", "oracle")
# alternating pairs per workload; a gain must win at least nine of ten
PAIRS = 10
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = BENCHMARK["run_seconds"]
# metric name -> (better, bound) from BENCHMARK.json's end-to-end list
END_TO_END = {m["name"]: (m["better"], m["bound"]) for m in BENCHMARK["end_to_end"]}
COMMAND = "python3 perfbench/run.py --workload {workload} --seed {seed} --seconds {seconds} --trace 0"


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout


def extract(revision: str, into: Path) -> Path:
    """The tree of ``revision``, from ``git archive``, under ``into``."""
    tree = into / revision[:12]
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", revision))) as tar:
        # the "data" filter exists from Python 3.10.12 and 3.11.4 on
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        tar.extractall(tree, **safe)
    return tree


def run_once(tree: Path, workload: str, seed: int) -> tuple[dict, dict]:
    """(provenance, result): the last two JSON lines of one run.py run."""
    command = COMMAND.format(workload=workload, seed=seed, seconds=SECONDS).split()
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: {' '.join(command)} in {tree} exited "
                         f"{done.returncode}: {done.stderr.strip()[-2000:]}")
    provenance, result = done.stdout.strip().splitlines()[-2:]
    return json.loads(provenance), json.loads(result)


def run_digest(tree: Path) -> list[str]:
    """The five lines of this checkout's tools/digest.py on ``tree``'s src."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0")
    command = [sys.executable, str(ROOT / "tools" / "digest.py")]
    done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: tools/digest.py on {tree} exited "
                         f"{done.returncode}: {done.stderr.strip()[-2000:]}")
    return done.stdout.split()


def summarize(results: list[dict]) -> dict:
    """One workload's entry of a BENCH file from the results of its runs."""
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        metrics[name] = {
            "unit": first["unit"],
            "median": round(statistics.median(values), 6),
            "q1": round(q1, 6),
            "q3": round(q3, 6),
            "iqr": round(q3 - q1, 6),
            "values": [round(v, 6) for v in values],
        }
    return {
        "runs": len(results),
        "attempted_per_run": sorted({r["attempted"] for r in results}),
        "failed_per_run": sorted({r["failed"] for r in results}),
        "correct": all(r["correct"] for r in results),
        "metrics": metrics,
    }


def run_pairs(parent: str, change: str, seed: int) -> None:
    sides = (parent, change)
    paths = {side: ROOT / f"BENCH_{side[:7]}.json" for side in sides}
    for path in paths.values():
        if path.exists():
            raise SystemExit(f"error: {path.name} exists; move it away before a new set of pairs")
    results: dict[str, dict[str, list]] = {side: {w: [] for w in WORKLOADS} for side in sides}
    environment = {}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as scratch:
        trees = {side: extract(side, Path(scratch)) for side in sides}
        digests = {side: run_digest(trees[side]) for side in sides}
        for workload in WORKLOADS:
            for i in range(PAIRS):
                for side in sides if i % 2 == 0 else sides[::-1]:
                    provenance, result = run_once(trees[side], workload, seed)
                    results[side][workload].append(result)
                    environment = {key: provenance[key] for key in ("python", "numpy", "nproc")}
                print(f"{workload}: pair {i + 1}/{PAIRS} done", file=sys.stderr, flush=True)
    environment["machine"] = f"{platform.system()} {platform.machine()}"
    for side, other in zip(sides, sides[::-1]):
        record = {
            "revision": side,
            "paired_with": other,
            "command": COMMAND.format(workload="W", seed=seed, seconds=SECONDS),
            "method": (
                f"{PAIRS} alternating pairs per workload by tools/bench_pairs.py, this revision "
                "and paired_with each run from a git archive of its revision, parent first in "
                "even pairs; median and quartiles over the runs of each side "
                "(statistics.quantiles, inclusive method); values in pair order"
            ),
            "environment": environment,
            "digest": digests[side],
            "workloads": {w: summarize(results[side][w]) for w in WORKLOADS},
        }
        path = paths[side]
        path.write_text(json.dumps(record, indent=1) + "\n")
        print(f"wrote {path.name}", file=sys.stderr)


def spread(summary: dict) -> float:
    """A metric's quartile distance relative to its median; inf where a
    median of 0 has runs apart."""
    if summary["median"]:
        return summary["iqr"] / abs(summary["median"])
    return math.inf if summary["iqr"] else 0.0


def compare(old: dict, new: dict) -> list[str]:
    """Each median's move from ``old`` to ``new`` against both sides'
    quartiles; for an end-to-end metric, its bound, and the pairs won when
    both files hold run values from the same pairs. An end-to-end metric
    within spread also shows both sides' run values in pair order, so a
    bimodal metric shows its two modes, and one whose spread exceeds its
    bound on either side reads "unresolved" unless every change run beats
    every parent run. Where both files hold digest lines, one line says
    whether their exact answers (lines 1-4) agree."""
    paired = new.get("paired_with") == old.get("revision")
    lines = [f"{old['revision'][:7]} -> {new['revision'][:7]}"
             + ("" if paired else " (not paired with each other)")]
    if "digest" in old and "digest" in new:
        agree = old["digest"][:4] == new["digest"][:4]
        lines.append("answers: digest lines 1-4 " + ("agree" if agree else "DIFFER"))
    for workload, entry in new["workloads"].items():
        if workload not in old["workloads"]:
            continue
        lines.append(f"{workload}:")
        before = old["workloads"][workload]["metrics"]
        for name, b in entry["metrics"].items():
            if name not in before:
                continue
            a = before[name]
            move = (b["median"] - a["median"]) / a["median"] if a["median"] else 0.0
            apart = not (a["q1"] <= b["median"] <= a["q3"] or b["q1"] <= a["median"] <= b["q3"])
            line = (f"  {name:16} {a['median']:>14.6g} [{a['q1']:.6g}, {a['q3']:.6g}] -> "
                    f"{b['median']:>14.6g} [{b['q1']:.6g}, {b['q3']:.6g}] {move:+7.1%} "
                    + ("outside both quartile ranges" if apart else "within spread"))
            if name in END_TO_END:
                better, bound = END_TO_END[name]
                sign = 1 if better == "higher" else -1
                if sign * move < -bound:
                    line += f", WORSE than its bound {bound:.0%}"
                if paired and "values" in a and "values" in b:
                    wins = sum(sign * (y - x) > 0 for x, y in zip(a["values"], b["values"]))
                    gap = abs(b["median"] - a["median"]) > a["iqr"]
                    line += f", better in {wins}/{len(b['values'])} pairs"
                    if sign * move > 0 and gap and wins >= 0.9 * len(b["values"]):
                        line += ", a gain"
                wide = max(spread(a), spread(b))
                clear = "values" in a and "values" in b and (
                    min(sign * y for y in b["values"]) > max(sign * x for x in a["values"])
                )
                if wide > bound and not clear:
                    line += f", unresolved: quartile spread {wide:.1%} above its bound {bound:.0%}"
                if not apart and "values" in a and "values" in b:
                    line += "; runs " + " ".join(f"{v:.4g}" for v in a["values"]) + " -> "
                    line += " ".join(f"{v:.4g}" for v in b["values"])
            lines.append(line)
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="the parent revision, or with --compare its BENCH file")
    parser.add_argument("change", help="the changed revision, or with --compare its BENCH file")
    parser.add_argument("--compare", action="store_true")
    parser.add_argument("--seed", type=int)
    args = parser.parse_args()
    if args.compare:
        old, new = (json.loads(Path(p).read_text()) for p in (args.parent, args.change))
        print("\n".join(compare(old, new)))
        return 0
    if args.seed is None:
        parser.error("give --seed")
    revisions = [_git("rev-parse", "--verify", r + "^{commit}").decode().strip()
                 for r in (args.parent, args.change)]
    run_pairs(*revisions, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
