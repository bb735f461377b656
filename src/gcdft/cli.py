"""Command-line front end.

Subcommands: dft, table, verify, bench, ramanujan, factor. Exit codes:
0 success, 1 usage error, 2 verification failure, 3 internal inconsistency.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bench import render_bench, run_bench
from .errors import DomainError, InconsistencyError, OracleScaleError, UndefinedValueError
from .functions import catalog_names, get_function
from .numtheory import factorize
from .ramanujan import (
    DEFINITION_SCALE_LIMIT,
    FLOAT_TOLERANCE,
    ramanujan_definition,
    ramanujan_kluyver,
    ramanujan_von_sterneck,
)
from .tables import build_table, format_exact, render_blocks
from .transform import dft_dispatch, float_agrees
from .verify import M_POLICIES, SweepConfig, render_report, run_verification

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2
EXIT_INCONSISTENCY = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the CLI contract reserves 2 for
    # verification failures, so remap to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _print(text: object) -> None:
    """Print text to stdout and flush it. Once the reader has closed
    stdout, it is pointed at os.devnull: the command runs on to its own exit
    code, and the flush at exit stays quiet."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _add_format(parser: argparse.ArgumentParser, default: str = "text") -> None:
    parser.add_argument(
        "--format", choices=("text", "csv", "json"), default=default,
        help="output format (default %(default)s)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gcdft",
        description=(
            "Exact discrete Fourier transforms of functions of the greatest "
            "common divisor, evaluated through prime-factor closed forms and "
            "cross-checked against brute-force summation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dft", help="one transform value", description=(
        "Compute the transform of f(gcd(., n)) at a single order m."
    ))
    p.add_argument("--f", default="id", metavar="NAME",
                   help=f"catalog function (e.g. {', '.join(catalog_names())})")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--verify", action="store_true",
                   help="run every evaluation path and report agreement")
    _add_format(p)

    p = sub.add_parser("table", help="transform values over all orders")
    p.add_argument("--f", default="id", metavar="NAME")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--compress", action="store_true",
                   help="one row per distinct gcd class instead of all orders")
    _add_format(p)

    p = sub.add_parser("verify", help="identity sweeps across (f, n, m) grids")
    p.add_argument("--n-max", type=int, default=100)
    p.add_argument("--m-policy", choices=M_POLICIES, default="all")
    p.add_argument("--sample-count", type=int, default=20)
    p.add_argument("--functions", default="id",
                   help="comma-separated catalog names (default id)")
    p.add_argument("--tolerance", type=float, default=FLOAT_TOLERANCE)
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the sampled m policy")
    _add_format(p)

    p = sub.add_parser("bench", help="closed form vs brute force timings")
    p.add_argument("--n", dest="n_values", type=int, action="append", required=True,
                   help="value to benchmark (repeatable)")
    p.add_argument("--f", default="id", metavar="NAME")
    p.add_argument("--repetitions", type=int, default=5)
    p.add_argument("--output", default=None, help="write the table to a file")
    _add_format(p, default="csv")

    p = sub.add_parser("ramanujan", help="the three Ramanujan sum evaluators")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    _add_format(p)

    p = sub.add_parser("factor", help="prime factorization")
    p.add_argument("--n", type=int, required=True)
    _add_format(p)

    return parser


def _cmd_dft(args) -> int:
    f = get_function(args.f)
    report = dft_dispatch(f, args.n, args.m, verify=args.verify)
    paths = sorted(report.paths_agreeing)
    if args.format == "text":
        _print(format_exact(report.value))
        if args.verify:
            _print(f"paths agreeing: {', '.join(paths)}")
    elif args.format == "csv":
        _print("f,n,m,value,paths")
        _print(f"{report.f_name},{report.n.value},{report.m_reduced},"
              f"{format_exact(report.value)},{';'.join(paths)}")
    else:
        _print(json.dumps({
            "f": report.f_name,
            "n": report.n.value,
            "m": report.m_reduced,
            "value": format_exact(report.value),
            "paths_agreeing": paths,
        }, indent=2))
    return EXIT_OK


def _cmd_table(args) -> int:
    f = get_function(args.f)
    rows = build_table(f, args.n, compress=args.compress)
    for block in render_blocks(rows, args.format):  # whole lines: the bytes of one print
        _print(block)
    return EXIT_OK


def _cmd_verify(args) -> int:
    config = SweepConfig(
        n_max=args.n_max,
        m_policy=args.m_policy,
        sample_count=args.sample_count,
        functions=tuple(name.strip() for name in args.functions.split(",") if name.strip()),
        tolerance_float=args.tolerance,
        seed=args.seed,
    )
    report = run_verification(config)
    _print(render_report(report, config, args.format))
    return EXIT_OK if report.passed else EXIT_VERIFICATION


def _cmd_bench(args) -> int:
    f = get_function(args.f)
    results = run_bench(f, args.n_values, args.repetitions)
    rendered = render_bench(results, args.format)
    if args.output:
        try:
            with open(args.output, "w") as handle:
                handle.write(rendered + "\n")
        except OSError as exc:
            raise DomainError(f"cannot write {args.output}: {exc.strerror or exc}") from None
        _print(f"wrote {args.output}")
    else:
        _print(rendered)
    failed = [str(r.n) for r in results if not r.spot_check]
    if failed:
        print(f"spot check failed for f={f.name} at n = {', '.join(failed)}", file=sys.stderr)
        return EXIT_INCONSISTENCY
    return EXIT_OK


def _cmd_ramanujan(args) -> int:
    exact = ramanujan_von_sterneck(args.n, args.m)
    kluyver = ramanujan_kluyver(args.n, args.m)
    if args.n <= DEFINITION_SCALE_LIMIT:
        approx = ramanujan_definition(args.n, args.m)
        definition = f"{approx.real:.9f}{approx.imag:+.2e}j"
        agree = exact == kluyver and float_agrees(approx, exact, FLOAT_TOLERANCE)
    else:
        definition = "skipped (n beyond oracle scale)"
        agree = exact == kluyver
    if args.format == "text":
        _print(f"von Sterneck: {exact}")
        _print(f"Kluyver divisor sum: {kluyver}")
        _print(f"definition (float): {definition}")
        _print(f"agreement: {'yes' if agree else 'NO'}")
    elif args.format == "csv":
        _print("n,m,von_sterneck,kluyver,definition,agree")
        _print(f"{args.n},{args.m},{exact},{kluyver},{definition},{int(agree)}")
    else:
        _print(json.dumps({
            "n": args.n, "m": args.m,
            "von_sterneck": exact, "kluyver": kluyver,
            "definition": definition, "agree": agree,
        }, indent=2))
    return EXIT_OK if agree else EXIT_INCONSISTENCY


def _cmd_factor(args) -> int:
    fac = factorize(args.n)
    if args.format == "text":
        _print(f"{fac.value} = {fac}")
    elif args.format == "csv":
        _print("prime,multiplicity")
        for p, s in fac.factors:
            _print(f"{p},{s}")
    else:
        _print(json.dumps({
            "n": fac.value,
            "factors": [{"prime": p, "multiplicity": s} for p, s in fac.factors],
        }, indent=2))
    return EXIT_OK


_COMMANDS = {
    "dft": _cmd_dft,
    "table": _cmd_table,
    "verify": _cmd_verify,
    "bench": _cmd_bench,
    "ramanujan": _cmd_ramanujan,
    "factor": _cmd_factor,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except InconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENCY
    except (DomainError, UndefinedValueError, OracleScaleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
