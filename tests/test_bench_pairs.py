"""``tools/bench_pairs.py``: a side's runs summarize to the schema of the
committed ``BENCH_*.json`` files, and ``--compare`` reads every metric of a
committed pair and counts the pairs won; a record that exists already stops
the tool before any run; each record keeps its tree's digest lines, and
``--compare`` says whether their exact answers agree."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(rate, failed=0):
    return {
        "correct": True,
        "attempted": 440,
        "failed": failed,
        "metrics": {
            "values_per_s": {"value": rate, "unit": "1/s"},
            "latency_p90_ms": {"value": 1000 / rate, "unit": "ms"},
        },
    }


def test_summary_has_the_committed_schema(bench_pairs):
    committed = json.loads((ROOT / "BENCH_b5c7664.json").read_text())["workloads"]["table"]
    entry = bench_pairs.summarize([result(r) for r in (10, 40, 20, 30, 50)])
    assert set(committed) == set(entry)
    assert entry["runs"] == 5
    assert entry["attempted_per_run"] == [440] and entry["failed_per_run"] == [0]
    rate = entry["metrics"]["values_per_s"]
    assert set(committed["metrics"]["values_per_s"]) <= set(rate)
    assert (rate["median"], rate["q1"], rate["q3"], rate["iqr"]) == (30, 20, 40, 20)
    assert rate["values"] == [10, 40, 20, 30, 50]


def test_compare_counts_pairs_and_flags_bounds(bench_pairs):
    def record(revision, other, rates):
        return {"revision": revision, "paired_with": other,
                "workloads": {"table": bench_pairs.summarize([result(r) for r in rates])}}

    old = record("a" * 40, "b" * 40, [100, 101, 102, 103, 104, 105, 106, 107, 108, 109])
    new = record("b" * 40, "a" * 40, [150, 151, 152, 153, 154, 155, 156, 157, 158, 99])
    lines = bench_pairs.compare(old, new)
    rate = next(line for line in lines if "values_per_s" in line)
    assert "better in 9/10 pairs, a gain" in rate
    assert "outside both quartile ranges" in rate
    slow = bench_pairs.compare(new, old)
    assert "WORSE than its bound 25%" in next(line for line in slow if "values_per_s" in line)


def test_compare_reads_every_metric_of_a_committed_pair(bench_pairs):
    old, new = (json.loads((ROOT / f"BENCH_{sha}.json").read_text())
                for sha in ("37b3124", "b5c7664"))
    lines = bench_pairs.compare(old, new)
    assert lines[0] == "37b3124 -> b5c7664"
    assert sum(line.startswith("  ") for line in lines) == 4 * 6
    assert not any("WORSE" in line for line in lines)


def test_an_existing_record_stops_the_runs_before_they_start(bench_pairs, tmp_path, monkeypatch):
    (tmp_path / "BENCH_bbbbbbb.json").write_text("{}\n")
    started = []
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "extract", lambda *args: started.append(args))
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: started.append(args))
    with pytest.raises(SystemExit, match="BENCH_bbbbbbb.json exists"):
        bench_pairs.run_pairs("a" * 40, "b" * 40, 1)
    assert started == []
    assert (tmp_path / "BENCH_bbbbbbb.json").read_text() == "{}\n"
    assert not (tmp_path / "BENCH_aaaaaaa.json").exists()


def test_help_exits_zero(bench_pairs, monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["bench_pairs.py", "--help"])
    with pytest.raises(SystemExit) as done:
        bench_pairs.main()
    assert done.value.code == 0
    assert "parent" in capsys.readouterr().out


def test_compare_shows_the_runs_of_a_metric_within_spread(bench_pairs):
    def record(revision, other, rates):
        return {"revision": revision, "paired_with": other,
                "workloads": {"oracle": bench_pairs.summarize([result(r) for r in rates])}}

    # a bimodal side: its median moves although most pairs are even
    old = record("a" * 40, "b" * 40, [100, 130, 100, 130, 100, 130, 100, 130, 100, 130])
    new = record("b" * 40, "a" * 40, [100, 130, 130, 130, 100, 130, 130, 130, 100, 130])
    rate = next(line for line in bench_pairs.compare(old, new) if "values_per_s" in line)
    assert "within spread" in rate
    assert rate.endswith("; runs 100 130 100 130 100 130 100 130 100 130"
                         " -> 100 130 130 130 100 130 130 130 100 130")
    gain = record("b" * 40, "a" * 40, [150] * 10)
    rate = next(line for line in bench_pairs.compare(old, gain) if "values_per_s" in line)
    assert "outside both quartile ranges" in rate and "runs" not in rate


def test_compare_marks_a_spread_above_the_bound_unresolved(bench_pairs):
    def rate_line(old_rates, new_rates):
        old = {"revision": "a" * 40, "paired_with": "b" * 40,
               "workloads": {"oracle": bench_pairs.summarize([result(r) for r in old_rates])}}
        new = {"revision": "b" * 40, "paired_with": "a" * 40,
               "workloads": {"oracle": bench_pairs.summarize([result(r) for r in new_rates])}}
        return next(line for line in bench_pairs.compare(old, new) if "values_per_s" in line)

    bimodal = [100, 140] * 5  # quartiles 100 and 140: a spread of 33.3% against 25%
    narrow = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]
    line = rate_line(bimodal, narrow)
    assert ", unresolved: quartile spread 33.3% above its bound 25%" in line
    assert "unresolved" in rate_line(narrow, bimodal)
    # only the change side is narrow: every change run must beat every parent run
    assert "unresolved" in rate_line(bimodal, [139] * 10)
    assert "unresolved" not in rate_line(bimodal, [141] * 10)
    assert "unresolved" not in rate_line(narrow, [n + 3 for n in narrow])
    # a latency is better lower: its spread is read the same way
    latency = next(line for line in bench_pairs.compare(
        {"revision": "a" * 40, "workloads": {"oracle": bench_pairs.summarize(
            [result(r) for r in bimodal])}},
        {"revision": "b" * 40, "workloads": {"oracle": bench_pairs.summarize(
            [result(r) for r in [200] * 10])}},
    ) if "latency_p90_ms" in line)
    assert "unresolved" not in latency


def test_each_record_keeps_its_digest_and_compare_reads_it(bench_pairs, tmp_path, monkeypatch):
    parent, change = "a" * 40, "b" * 40
    digests = {parent: ["p1", "p2", "p3", "p4", "p5"], change: ["p1", "p2", "p3", "p4", "c5"]}
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "extract", lambda revision, into: revision)
    monkeypatch.setattr(bench_pairs, "run_digest", lambda tree: digests[tree])
    provenance = {"python": "3", "numpy": "2", "nproc": 2}
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: (provenance, result(100)))
    bench_pairs.run_pairs(parent, change, 1)
    old, new = (json.loads((tmp_path / f"BENCH_{side[:7]}.json").read_text())
                for side in (parent, change))
    assert (old["digest"], new["digest"]) == (digests[parent], digests[change])
    # the fifth line hashes float oracles, so only lines 1-4 must agree
    assert bench_pairs.compare(old, new)[1] == "answers: digest lines 1-4 agree"
    new["digest"][0] = "c1"
    assert bench_pairs.compare(old, new)[1] == "answers: digest lines 1-4 DIFFER"
    del old["digest"]
    assert not any(line.startswith("answers") for line in bench_pairs.compare(old, new))
