"""One fresh process of a benchmark run.

``setup``: run the workload's first request through the ``gcdft`` command
line entry point, as a user of the CLI would, and print the monotonic clock
at its return, so the parent can time interpreter start to first answer.

``measure``: run the closed loop, one client and no think time, over the
workload's fixed request list for the seed (sized for ``--seconds``, or
``trace_requests`` long with ``--fixed``), then check the answers and print
one JSON summary line. Each latency is scaled to the reference machine's
speed by the probes run before and after the request (see ``probe.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import signal
import statistics
import time
import traceback

import gcdft
import workloads
from probe import PROBES, scaled
from gcdft import transform
from tracer import Patches, Tracer, per_layer


class DeadlineExceeded(BaseException):
    """Raised from SIGALRM; a BaseException so no library handler swallows it."""


def _alarm(signum, frame):
    raise DeadlineExceeded


def with_deadline(seconds: float, fn, *args):
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def inject_offset_fault(patches: Patches) -> None:
    """Make every closed form answer one more than it should: a wrong value
    the benchmark's checks must reject."""
    for name in (
        "dft_closed_form_gcd",
        "dft_closed_form_multiplicative",
        "dft_closed_form_completely_mult",
    ):
        original = getattr(transform, name)
        patches.replace(original, lambda *a, _f=original, **k: _f(*a, **k) + 1)


def measure(args) -> dict:
    workload = workloads.WORKLOADS[args.workload](args.seed)
    count = workload.trace_requests if args.fixed else workload.requests_for(args.seconds)
    requests = [workload.generate(index) for index in range(count)]
    tracer = Tracer() if args.trace else None
    if args.fault:
        inject_offset_fault(Patches())
    probe = PROBES[workload.probe]
    raw: list[float] = []
    probes = [probe()]
    outputs: list = []
    errors: list[str | None] = []

    if tracer:
        tracer.install()
    for index, request in enumerate(requests):
        call = (lambda r, i=index: tracer.call(i, workload.run, r)) if tracer else workload.run
        start = time.perf_counter()
        try:
            output = with_deadline(workload.deadline_s, call, request)
        except DeadlineExceeded:
            output, error = None, "deadline"
        except Exception as exc:  # any raise is a failed request, counted by type
            output, error = None, type(exc).__name__
        else:
            error = None
        raw.append(time.perf_counter() - start)
        probes.append(probe())
        outputs.append(output)
        errors.append(error)
    if tracer:
        tracer.uninstall()
    rss_mb = peak_rss_mb()
    latencies = [scaled(*reading) for reading in zip(raw, probes, probes[1:])]

    # The checks, all outside the timed loop.
    values = wrong = 0
    for index, (request, output) in enumerate(zip(requests, outputs)):
        if errors[index] is not None:
            continue
        problem, later = workload.check_now(request, output)
        if problem is None and later is not None:
            try:
                problem = with_deadline(
                    workload.deadline_s, workload.check_later, request, later
                )
            except DeadlineExceeded:
                problem = "check deadline"
        if problem is None:
            values += workload.values(request, output)
        else:
            wrong += 1
            errors[index] = "wrong: " + problem[:80]

    kinds: dict[str, int] = {}
    for error in filter(None, errors):
        kinds[error] = kinds.get(error, 0) + 1
    result = {
        "workload": workload.name,
        "attempted": count,
        "failed": sum(kinds.values()),
        "wrong": wrong,
        "errors": kinds,
        "values": values,
        "busy_s": sum(latencies),
        "values_per_s": values / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[-1] * 1e3,
        "latency_samples": count,
        "samples_beyond_p90": count - int(0.9 * count),
        "peak_rss_mb": rss_mb,
        "raw_busy_s": sum(raw),
        "raw_latency_p50_ms": statistics.median(raw) * 1e3,
        "probe_median_ms": statistics.median(probes) * 1e3,
    }
    if tracer:
        used = list(workload.functions.values())
        used += [gcdft.get_function(name) for name in workloads.CATALOG]
        used = list({id(f): f for f in used}.values())
        result["per_layer"] = per_layer(tracer, workload.name, values, used)
        result["spans"] = len(tracer.table())
        if args.spans:
            tracer.write(args.spans)
    return result


def setup(args) -> dict:
    from gcdft import cli

    workload = workloads.WORKLOADS[args.workload](args.seed)
    argv = workload.cli_args(workload.generate(0))
    with contextlib.redirect_stdout(io.StringIO()):
        code = with_deadline(workload.deadline_s, cli.main, argv)
    returned_at = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    # 3 is the known tolerance defect of --verify (see README.md); any other
    # non-zero exit means the request itself was wrong.
    if code not in (cli.EXIT_OK, cli.EXIT_INCONSISTENCY):
        raise RuntimeError(f"gcdft {' '.join(argv)} exited {code}")
    return {"returned_at_ns": returned_at, "exit_code": code}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="size the request list for a timed loop of about this long")
    parser.add_argument("--fixed", action="store_true",
                        help="run the workload's traced request count instead")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None, help="write the spans to this file")
    parser.add_argument("--fault", action="store_true",
                        help="offset every closed form by one (self-test only)")
    args = parser.parse_args()
    signal.signal(signal.SIGALRM, _alarm)
    try:
        result = measure(args) if args.mode == "measure" else setup(args)
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
