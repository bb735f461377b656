"""Identity sweeps: every closed form is replayed against the independent
evaluation paths over configurable (f, n, m) grids.

Each check yields ``(identity, None)`` on a pass, or ``(identity, failure)``,
both built by :func:`_verdict`, instead of raising, so a sweep reports the
full damage; the CLI maps a nonempty failure list to exit code 2.
``tools/fault_matrix.py`` faults each rule behind the paths in turn and
shows which identities catch it.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import DomainError, InconsistencyError
from .functions import ArithmeticFunction, Exact, Kind, get_function
from .numtheory import divisors, totient
from .ramanujan import (
    FLOAT_TOLERANCE,
    ramanujan_definition,
    ramanujan_kluyver,
    ramanujan_von_sterneck,
)
from .transform import (
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
        if self.n_max < 1:
            raise DomainError("n_max must be >= 1")
        if not (math.isfinite(self.tolerance_float) and self.tolerance_float > 0):
            raise DomainError(f"tolerance must be finite and > 0, got {self.tolerance_float}")
        if self.m_policy not in M_POLICIES:
            raise DomainError(f"m_policy must be one of {M_POLICIES}")
        if self.m_policy == "sample" and self.sample_count < 1:
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


def _verdict(identity: str, f_name: str, n: int, m: int, expected, got, ok=None):
    """``(identity, None)`` if ``ok`` (by default, if ``got == expected``),
    else ``(identity, failure)``: ``expected`` by ``str``, ``got`` by ``repr``
    when it is a float oracle's complex value, else by ``str``."""
    if ok is None:
        ok = got == expected
    if ok:
        return identity, None
    shown = repr(complex(got)) if isinstance(got, complex) else str(got)
    return identity, Failure(identity, f_name, n, m, str(expected), shown)


def _class_table(f: ArithmeticFunction, n: int) -> dict[int, Exact]:
    """The exact convolution at every gcd class g | n, keyed on g."""
    return {g: dft_exact_convolution(f, n, g) for g in divisors(n)}


def _missing(error: KeyError) -> str:
    """The expected value shown for a class missing from a class table."""
    return f"class {error.args[0]} missing from the class table"


def orders_for(n: int, policy: str, count: int, rng: random.Random) -> list[int]:
    """Deterministic m grid for a given n under the configured policy."""
    if policy == "all":
        return list(range(1, n + 1))
    if policy == "divisors":
        return divisors(n)
    picks = min(count, n)
    return sorted(rng.sample(range(1, n + 1), picks))


def check_path_equivalence(
    f: ArithmeticFunction,
    n_values: Iterable[int],
    policy: str = "all",
    sample_count: int = 20,
    tolerance: float = FLOAT_TOLERANCE,
    seed: int = 0,
) -> Iterator[tuple[str, Failure | None]]:
    """Convolution vs closed form (exact) and vs the FFT spectrum (float,
    within :func:`float_bound` of the exact value). An
    :class:`InconsistencyError` of the float oracle at n fails the float
    check at each of n's orders."""
    rng = random.Random(seed)
    for n in n_values:
        try:
            spectrum = dft_brute_spectrum(f, n)
        except InconsistencyError as exc:
            spectrum = exc
        bound = float_bound(f, n, tolerance)
        for m in orders_for(n, policy, sample_count, rng):
            convolution = dft_exact_convolution(f, n, m)
            closed = exact_closed_form(f, n, m)
            if closed is not None:
                yield _verdict("path-equivalence-exact", f.name, n, m, convolution, closed)
            target = closed if closed is not None else convolution
            if isinstance(spectrum, InconsistencyError):
                approx, ok = f"oracle error: {spectrum}", False
            else:
                approx = spectrum[m % n]
                ok = float_agrees(approx, target, bound)
            yield _verdict("path-equivalence-float", f.name, n, m, target, approx, ok)
            if f.integer_valued:
                ok = convolution.denominator == 1
                yield _verdict("integrality", f.name, n, m, "integer", convolution, ok)


def check_closed_form_pair(
    f: ArithmeticFunction,
    n_values: Iterable[int],
    policy: str = "all",
    sample_count: int = 20,
    seed: int = 0,
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
    rng = random.Random(seed)
    for n in n_values:
        for m in orders_for(n, policy, sample_count, rng):
            general = dft_closed_form_multiplicative(f, n, m)
            other = oracle(n, m)
            yield _verdict(identity, f.name, n, m, general, other)


def check_gcd_dependence(
    f: ArithmeticFunction,
    n_values: Iterable[int],
) -> Iterator[tuple[str, Failure | None]]:
    """The closed form at order m equals the convolution at order
    g = gcd(m, n), computed once per divisor g of n; a class missing from
    the class table fails the check."""
    for n in n_values:
        by_class = _class_table(f, n)
        for m in range(1, GCD_DEPENDENCE_SPAN * n + 1):
            left = exact_closed_form(f, n, m)
            try:
                right = by_class[math.gcd(m, n)]
            except KeyError as missing:
                right = _missing(missing)
            yield _verdict("gcd-dependence", f.name, n, m, right, left)


def check_multiplicativity(
    f: ArithmeticFunction,
    pair_max: int,
    seed: int = 0,
) -> Iterator[tuple[str, Failure | None]]:
    """The closed form at uv equals the product of the convolutions at
    coprime u and v, read from class tables built once per u <= pair_max.

    Orders cover every divisor of uv (hence every distinct gcd class) plus a
    few seeded non-divisors. A class missing from a class table fails the
    check.
    """
    rng = random.Random(seed)
    by_class = {u: _class_table(f, u) for u in range(1, pair_max + 1)}
    for u in range(1, pair_max + 1):
        for v in range(u + 1, pair_max + 1):
            if math.gcd(u, v) != 1:
                continue
            n = u * v
            orders = divisors(n)
            orders += [rng.randrange(1, n + 1) for _ in range(MULTIPLICATIVITY_EXTRA_ORDERS)]
            for m in orders:
                combined = exact_closed_form(f, n, m)
                try:
                    split = by_class[u][math.gcd(m, u)] * by_class[v][math.gcd(m, v)]
                except KeyError as missing:
                    split = _missing(missing)
                yield _verdict("multiplicativity", f.name, n, m, split, combined)


def check_coprime_order_totient(n_values: Iterable[int]) -> Iterator[tuple[str, Failure | None]]:
    """At orders coprime to n the dispatched closed form for f = id collapses
    to the totient."""
    f = get_function("id")  # the catalog object, not the alias ID, which tracers replace
    for n in n_values:
        phi = totient(n)
        for m in range(1, n + 1):
            if math.gcd(m, n) != 1:
                continue
            yield _verdict("coprime-order-totient", f.name, n, m, phi, exact_closed_form(f, n, m))


def check_ramanujan_agreement(
    n_values: Iterable[int],
    tolerance: float = FLOAT_TOLERANCE,
) -> Iterator[tuple[str, Failure | None]]:
    """The two exact Ramanujan evaluators agree everywhere; the floating
    definition agrees (rounded) up to n = RAMANUJAN_FLOAT_LIMIT."""
    for n in n_values:
        for m in range(1, n + 1):
            exact = ramanujan_von_sterneck(n, m)
            other = ramanujan_kluyver(n, m)
            yield _verdict("ramanujan-exact-agreement", "-", n, m, exact, other)
            if n <= RAMANUJAN_FLOAT_LIMIT:
                approx = ramanujan_definition(n, m)
                ok = float_agrees(approx, exact, tolerance)
                yield _verdict("ramanujan-float-agreement", "-", n, m, exact, approx, ok)


def run_verification(config: SweepConfig) -> SweepReport:
    """Run every identity sweep implied by the config and collect failures."""
    report = SweepReport()
    n_values = range(1, config.n_max + 1)
    grid = dict(policy=config.m_policy, sample_count=config.sample_count, seed=config.seed)
    checks = [check_ramanujan_agreement(n_values, tolerance=config.tolerance_float)]
    for f in map(get_function, config.functions):
        checks.append(check_path_equivalence(f, n_values, tolerance=config.tolerance_float, **grid))
        if f.is_multiplicative:
            checks += [
                check_closed_form_pair(f, n_values, **grid),
                check_gcd_dependence(f, n_values),
                check_multiplicativity(f, pair_max=min(100, config.n_max), seed=config.seed),
            ]
    checks.append(check_coprime_order_totient(n_values))

    for identity, failure in itertools.chain(*checks):
        report.record(identity, failure)
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
