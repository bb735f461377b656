"""Identity sweeps: every closed form is replayed against the independent
evaluation paths over an (f, n, m) grid. Every check that reads a grid value
(m policy, sample count, tolerance, seed, n_max) reads it from one
:class:`SweepConfig`, which validates all six fields when it is built.

Each check yields ``(identity, None)`` on a pass, one record built when the
check starts, or ``(identity, failure)``, built by :func:`_verdict` only for
a failing check, instead of raising, so a sweep reports the full damage; the
CLI maps a nonempty failure list to exit code 2.
Each check does its per-n work once per n: it factors n once and passes the
``Factorization`` to every exact path it compares, and reads the float
oracles at n from one spectrum or one definition row.
``tools/fault_matrix.py`` faults each rule behind the paths in turn and
shows which identities catch it.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import numbers
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import DomainError, InconsistencyError
from .functions import ArithmeticFunction, Kind, get_function
from .numtheory import as_int, divisors, factorize, totient
from .ramanujan import (
    FLOAT_TOLERANCE,
    ramanujan_definition_row,
    ramanujan_kluyver,
    ramanujan_von_sterneck,
)
from .transform import (
    _class_values,
    dft_brute_spectrum,
    dft_closed_form_completely_mult,
    dft_closed_form_gcd,
    dft_closed_form_multiplicative,
    dft_exact_convolution,
    exact_closed_form,
    float_agrees,
    float_bound,
)

M_POLICIES = ("all", "divisors", "sample")

GCD_DEPENDENCE_SPAN = 3  # orders 1..3n per n in the gcd-dependence check
MULTIPLICATIVITY_EXTRA_ORDERS = 3  # seeded orders per pair beyond the divisors
RAMANUJAN_FLOAT_LIMIT = 500  # the largest n whose float definition is checked


@dataclass(frozen=True)
class SweepConfig:
    n_max: int
    m_policy: str = "all"
    sample_count: int = 20
    functions: tuple[str, ...] = ("id",)
    tolerance_float: float = FLOAT_TOLERANCE
    seed: int = 0

    def __post_init__(self):
        for name in ("n_max", "sample_count", "seed"):  # a bool, float or str raises here
            object.__setattr__(self, name, as_int(getattr(self, name), name))
        if self.n_max < 1:
            raise DomainError("n_max must be >= 1")
        if not isinstance(self.functions, tuple) or not all(
            isinstance(name, str) for name in self.functions
        ):
            raise DomainError(f"functions must be a tuple of names, got {self.functions!r}")
        if not self.functions or len(set(map(get_function, self.functions))) < len(self.functions):
            raise DomainError(
                f"functions must name at least one function, each once, got {self.functions!r}"
            )
        tolerance = self.tolerance_float
        if not isinstance(tolerance, numbers.Real) or isinstance(tolerance, bool):
            raise DomainError(f"tolerance must be a real number, got {tolerance!r}")
        if not (math.isfinite(tolerance) and tolerance > 0):
            raise DomainError(f"tolerance must be finite and > 0, got {tolerance}")
        if self.m_policy not in M_POLICIES:
            raise DomainError(f"m_policy must be one of {M_POLICIES}")
        if self.sample_count < 1 and self.m_policy == "sample":
            raise DomainError("sample count must be >= 1")


@dataclass(frozen=True)
class Failure:
    identity: str
    f_name: str
    n: int
    m: int
    expected: str
    got: str


@dataclass
class SweepReport:
    checks: int = 0
    failures: list[Failure] = field(default_factory=list)
    by_identity: dict[str, list[int]] = field(default_factory=dict)

    def record(self, identity: str, failure: Failure | None) -> None:
        counts = self.by_identity.setdefault(identity, [0, 0])
        counts[0] += 1
        self.checks += 1
        if failure is not None:
            counts[1] += 1
            self.failures.append(failure)

    @property
    def passed(self) -> bool:
        return not self.failures


def _verdict(identity: str, f_name: str, n: int, m: int, expected, got):
    """``(identity, failure)`` for a failing check: ``expected`` by ``str``,
    ``got`` by ``repr`` when it is a float oracle's complex value, else by
    ``str``."""
    shown = repr(complex(got)) if isinstance(got, complex) else str(got)
    return identity, Failure(identity, f_name, n, m, str(expected), shown)


def _missing(error: KeyError) -> str:
    """The expected value shown for a class missing from a class table."""
    return f"class {error.args[0]} missing from the class table"


def orders_for(n: int, config: SweepConfig, rng: random.Random) -> list[int]:
    """Deterministic m grid for a given n under the config's m policy."""
    if config.m_policy == "all":
        return list(range(1, n + 1))
    if config.m_policy == "divisors":
        return divisors(n)
    return sorted(rng.sample(range(1, n + 1), min(config.sample_count, n)))


def check_path_equivalence(
    f: ArithmeticFunction,
    n_values: Iterable[int],
    config: SweepConfig,
) -> Iterator[tuple[str, Failure | None]]:
    """Convolution vs closed form (exact) and vs the FFT spectrum (float,
    within :func:`float_bound` of the exact value), with n factored and the
    spectrum read once per n. An :class:`InconsistencyError` of the float
    oracle at n fails the float check at each of n's orders."""
    rng = random.Random(config.seed)
    exact_pass, float_pass = ("path-equivalence-exact", None), ("path-equivalence-float", None)
    integral_pass = ("integrality", None)
    for n in n_values:
        fac = factorize(n)
        try:
            spectrum = dft_brute_spectrum(f, n).tolist()
        except InconsistencyError as exc:
            spectrum = exc
        bound = float_bound(f, n, config.tolerance_float)
        for m in orders_for(n, config, rng):
            convolution = dft_exact_convolution(f, fac, m)
            closed = exact_closed_form(f, fac, m)
            if closed is not None:
                yield exact_pass if closed == convolution else _verdict(
                    "path-equivalence-exact", f.name, n, m, convolution, closed
                )
            target = closed if closed is not None else convolution
            if isinstance(spectrum, InconsistencyError):
                approx = f"oracle error: {spectrum}"
                yield _verdict("path-equivalence-float", f.name, n, m, target, approx)
            elif float_agrees(approx := spectrum[m % n], target, bound):
                yield float_pass
            else:
                yield _verdict("path-equivalence-float", f.name, n, m, target, approx)
            if f.integer_valued:
                yield integral_pass if convolution.denominator == 1 else _verdict(
                    "integrality", f.name, n, m, "integer", convolution
                )


def check_closed_form_pair(
    f: ArithmeticFunction,
    n_values: Iterable[int],
    config: SweepConfig,
) -> Iterator[tuple[str, Failure | None]]:
    """Geometric closed form vs per-prime-sum closed form (and the id-only
    product vs the general multiplicative one when f = id). Any other f has
    no second closed form and yields nothing, evaluating nothing."""
    if f is get_function("id"):  # the catalog object, which tracers leave in place
        identity, oracle = "gcd-form-vs-multiplicative-form", dft_closed_form_gcd
    elif f.kind is Kind.COMPLETELY_MULTIPLICATIVE:
        identity = "geometric-form-vs-multiplicative-form"
        oracle = functools.partial(dft_closed_form_completely_mult, f)
    else:
        return
    rng, passed = random.Random(config.seed), (identity, None)
    for n in n_values:
        fac = factorize(n)
        for m in orders_for(n, config, rng):
            general = dft_closed_form_multiplicative(f, fac, m)
            other = oracle(fac, m)
            yield passed if other == general else _verdict(identity, f.name, n, m, general, other)


def check_gcd_dependence(
    f: ArithmeticFunction,
    n_values: Iterable[int],
) -> Iterator[tuple[str, Failure | None]]:
    """The closed form at order m equals the convolution at order
    g = gcd(m, n), computed once per divisor g of n; a class missing from
    the class table fails the check."""
    passed = ("gcd-dependence", None)
    for n in n_values:
        fac, by_class = factorize(n), _class_values(f, n)
        for m in range(1, GCD_DEPENDENCE_SPAN * n + 1):
            left = exact_closed_form(f, fac, m)
            try:
                right = by_class[math.gcd(m, n)]
            except KeyError as missing:
                right = _missing(missing)
            yield passed if left == right else _verdict(
                "gcd-dependence", f.name, n, m, right, left
            )


def check_multiplicativity(
    f: ArithmeticFunction,
    config: SweepConfig,
) -> Iterator[tuple[str, Failure | None]]:
    """The closed form at uv equals the product of the convolutions at
    coprime u < v <= min(100, n_max), read from class tables built once per u.

    Orders cover every divisor of uv (hence every distinct gcd class) plus a
    few seeded non-divisors. A class missing from a class table fails the
    check.
    """
    rng, passed = random.Random(config.seed), ("multiplicativity", None)
    pair_max = min(100, config.n_max)
    by_class = {u: _class_values(f, u) for u in range(1, pair_max + 1)}
    for u in range(1, pair_max + 1):
        for v in range(u + 1, pair_max + 1):
            if math.gcd(u, v) != 1:
                continue
            n, cu, cv = u * v, by_class[u], by_class[v]
            fac = factorize(n)
            orders = divisors(n)
            orders += [rng.randrange(1, n + 1) for _ in range(MULTIPLICATIVITY_EXTRA_ORDERS)]
            for m in orders:
                combined = exact_closed_form(f, fac, m)
                try:
                    split = cu[math.gcd(m, u)] * cv[math.gcd(m, v)]
                except KeyError as missing:
                    split = _missing(missing)
                yield passed if combined == split else _verdict(
                    "multiplicativity", f.name, n, m, split, combined
                )


def check_coprime_order_totient(n_values: Iterable[int]) -> Iterator[tuple[str, Failure | None]]:
    """At orders coprime to n the dispatched closed form for f = id collapses
    to the totient."""
    f = get_function("id")  # the catalog object, not the alias ID, which tracers replace
    passed = ("coprime-order-totient", None)
    for n in n_values:
        fac = factorize(n)
        phi = totient(fac)
        for m in range(1, n + 1):
            if math.gcd(m, n) != 1:
                continue
            closed = exact_closed_form(f, fac, m)
            yield passed if closed == phi else _verdict(
                "coprime-order-totient", f.name, n, m, phi, closed
            )


def check_ramanujan_agreement(
    n_values: Iterable[int],
    config: SweepConfig,
) -> Iterator[tuple[str, Failure | None]]:
    """The two exact Ramanujan evaluators agree everywhere; the floating
    definition agrees (rounded) up to n = RAMANUJAN_FLOAT_LIMIT. The float
    values come from one :func:`ramanujan_definition_row` per n, read at
    m mod n and dropped when the sweep moves to the next n."""
    exact_pass = ("ramanujan-exact-agreement", None)
    float_pass = ("ramanujan-float-agreement", None)
    tolerance = config.tolerance_float
    for n in n_values:
        row = ramanujan_definition_row(n) if n <= RAMANUJAN_FLOAT_LIMIT else None
        for m in range(1, n + 1):
            exact = ramanujan_von_sterneck(n, m)
            other = ramanujan_kluyver(n, m)
            yield exact_pass if other == exact else _verdict(
                "ramanujan-exact-agreement", "-", n, m, exact, other
            )
            if row is not None:
                approx = row[m % n]
                yield float_pass if float_agrees(approx, exact, tolerance) else _verdict(
                    "ramanujan-float-agreement", "-", n, m, exact, approx
                )


def _identities(checks: Iterable[tuple[str, Failure | None]], failures: list[Failure]):
    """The identity of each check in turn, each failure appended to ``failures``."""
    for identity, failure in checks:
        if failure is not None:
            failures.append(failure)
        yield identity


def run_verification(config: SweepConfig) -> SweepReport:
    """Run every identity sweep implied by the config and collect failures,
    tallied as :meth:`SweepReport.record` would, without a call per check."""
    report = SweepReport()
    n_values = range(1, config.n_max + 1)
    checks = [check_ramanujan_agreement(n_values, config)]
    for f in map(get_function, config.functions):
        checks.append(check_path_equivalence(f, n_values, config))
        if f.is_multiplicative:
            checks += [
                check_closed_form_pair(f, n_values, config),
                check_gcd_dependence(f, n_values),
                check_multiplicativity(f, config),
            ]
    checks.append(check_coprime_order_totient(n_values))

    checked = Counter(_identities(itertools.chain(*checks), report.failures))
    failed = Counter(failure.identity for failure in report.failures)
    report.by_identity = {identity: [count, failed[identity]] for identity, count in checked.items()}
    report.checks = checked.total()
    return report


def render_report(report: SweepReport, config: SweepConfig, fmt: str = "text") -> str:
    if fmt == "text":
        lines = [
            f"verification sweep: n <= {config.n_max}, m policy {config.m_policy}, "
            f"functions {', '.join(config.functions)}"
        ]
        for identity, (checks, failed) in sorted(report.by_identity.items()):
            status = "ok" if failed == 0 else "FAIL"
            lines.append(f"  {status:4} {identity}: {checks - failed}/{checks} passed")
        if report.failures:
            first = report.failures[0]
            lines.append(
                f"first counterexample: {first.identity} at f={first.f_name}, "
                f"n={first.n}, m={first.m}: expected {first.expected}, got {first.got}"
            )
        lines.append(
            f"total: {report.checks} checks, {len(report.failures)} failures"
        )
        return "\n".join(lines)
    if fmt == "json":
        return json.dumps(
            {
                "n_max": config.n_max,
                "m_policy": config.m_policy,
                "functions": list(config.functions),
                "checks": report.checks,
                "failures": [vars(f) for f in report.failures[:100]],
                "by_identity": {
                    k: {"checks": v[0], "failures": v[1]}
                    for k, v in report.by_identity.items()
                },
                "passed": report.passed,
            },
            indent=2,
        )
    if fmt == "csv":
        lines = ["identity,checks,failures"]
        lines += [
            f"{identity},{counts[0]},{counts[1]}"
            for identity, counts in sorted(report.by_identity.items())
        ]
        return "\n".join(lines)
    raise DomainError(f"unknown report format {fmt!r}")
