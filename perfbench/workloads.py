"""Seeded inputs, requests and answer checks for the four workloads.

Each workload turns ``(seed, index)`` into one request, runs it through the
public functions of ``gcdft`` and checks the answer. A check runs in two
parts, both outside the timed region: ``check_now`` uses no library code (so
it cannot warm a cache the next request would use), and ``check_later`` runs
after the measured loop and compares against ``dft_exact_convolution``, an
evaluation path independent of the closed forms.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import gcdft
from gcdft import tables, verify
from gcdft.verify import SweepConfig

# Library functions are called through their modules, never imported by name,
# so that the tracer's and the fault injection's replacements reach them.

CATALOG = tuple(gcdft.catalog_names())
ORACLE_PATHS = frozenset({"brute_float", "closed_form", "convolution_exact"})
M_POLICIES = ("all", "divisors", "sample")


def _primes_below(bound: int) -> tuple[int, ...]:
    return tuple(p for p in range(2, bound) if all(p % q for q in range(2, math.isqrt(p) + 1)))


SMOOTH_PRIMES = _primes_below(100)
_MR_BASES = _primes_below(72)


def probable_prime(n: int) -> bool:
    """Strong-probable-prime test to the first 20 prime bases.

    The benchmark's own test, so that generating inputs never calls the
    library it measures.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng: random.Random, bits: int) -> int:
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if probable_prime(candidate):
            return candidate


def smooth_number(rng: random.Random, limit: int) -> tuple[int, dict[int, int]]:
    """A product of primes below 100, grown until the next factor would
    pass ``limit``; returned with its factorization."""
    n, factors = 1, {}
    while True:
        p = rng.choice(SMOOTH_PRIMES)
        if n * p > limit:
            return n, factors
        n *= p
        factors[p] = factors.get(p, 0) + 1


def divisor_count(factors: dict[int, int]) -> int:
    return math.prod(s + 1 for s in factors.values())


def structured_order(rng: random.Random, factors: dict[int, int]) -> int:
    """An order sharing a random part of n's prime powers, so that every
    branch of the per-prime closed form (t = 0, 0 < t < s, t >= s) runs."""
    g = math.prod(p ** rng.randint(0, s + 1) for p, s in factors.items())
    return g * rng.randrange(1, 1000)


def stratified(rng: random.Random, lo: int, hi: int, index: int, bins: int = 10) -> int:
    """A draw from bin ``index % bins`` of ``bins`` equal bins of [lo, hi].

    With the catalog function cycling on ``index % 11``, every ``11 * bins``
    requests cover each (function, bin) pair once, so runs of different seeds
    share one size mix and differ only within the bins.
    """
    width = (hi - lo + 1) / bins
    k = index % bins
    return rng.randrange(lo + int(k * width), lo + int((k + 1) * width))


def parse_exact(text: str) -> int | Fraction:
    if "/" in text:
        num, den = text.split("/")
        return Fraction(int(num), int(den))
    return int(text)


class Workload:
    """One closed-loop workload: a single client, next request after the
    previous answer.

    A measured run times a fixed list of requests, so that the work, the
    failures and the counts of a run depend only on the seed and
    ``--seconds``, never on how fast the machine went. The list is ``cycle``
    requests long, or a whole multiple of it: every request index modulo
    ``cycle`` picks one stratum of the mix (function, size bin, class), so
    every seed gets the same mix. ``request_s`` is the mean time of a request
    and its speed probe on the reference machine, which sizes the list to the
    time asked for. ``probe`` names the speed probe (``probe.py``) whose
    kind of work matches the requests'.
    ``min_requests`` keeps at least ten samples beyond p90, and
    ``max_requests`` caps the list where the library's caches grow with it.
    ``trace_requests`` is the request count of a traced run.
    """

    name: str
    deadline_s: float
    cycle: int
    request_s: float
    min_requests = 110
    max_requests = 1 << 20
    probe = "fraction"
    trace_requests: int

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}-{seed}")
        self.check_rng = random.Random(f"{self.name}-check-{seed}")
        self.functions: dict[str, gcdft.ArithmeticFunction] = {}

    def function(self, name: str) -> gcdft.ArithmeticFunction:
        """One function object per catalog name for the whole run, as a CLI
        process or a script holding the function would have."""
        f = self.functions.get(name)
        if f is None:
            f = self.functions[name] = gcdft.get_function(name)
        return f

    @classmethod
    def requests_for(cls, seconds: float) -> int:
        """Length of the request list of a timed loop of about ``seconds``."""
        cycles = max(1, round(seconds / (cls.request_s * cls.cycle)))
        return min(cls.max_requests, max(cls.min_requests, cycles * cls.cycle))

    def generate(self, index: int) -> dict:
        raise NotImplementedError

    def run(self, request: dict):
        """The timed part: public calls into the library."""
        raise NotImplementedError

    def cli_args(self, request: dict) -> list[str]:
        """The same request as ``gcdft`` command-line arguments."""
        raise NotImplementedError

    def values(self, request: dict, output) -> int:
        """Exact transform values one answered request delivers."""
        return 1

    def check_now(self, request: dict, output):
        """Check without library calls; returns ``(error, pending)``, where
        ``pending`` is handed to :meth:`check_later` (None: nothing left)."""
        raise NotImplementedError

    def check_later(self, request: dict, pending) -> str | None:
        raise NotImplementedError


class PointWorkload(Workload):
    """``dft_dispatch(f, n, m)`` at distinct n: one value per request, with
    caches that cannot help."""

    name = "point"
    deadline_s = 5.0
    cycle = 44  # 4 classes x 11 functions
    request_s = 0.0021
    trace_requests = 4400
    classes = ("smooth", "random", "semiprime", "big")
    # The convolution check factorizes every divisor of n, so it costs about
    # ten times the request: a seeded CHECK_SHARE of the requests is checked,
    # and one with d(n) > CHECK_DIVISORS with a further CHECK_DIVISORS / d(n).
    CHECK_SHARE = 0.05
    CHECK_DIVISORS = 384

    def __init__(self, seed: int):
        super().__init__(seed)
        self.seen: set[int] = set()

    def _draw(self, kind: str, k: int) -> tuple[int, dict[int, int] | None]:
        """The k-th n of a class; factor sizes cycle so every seed gets the
        same size mix."""
        rng = self.rng
        if kind == "smooth":
            return smooth_number(rng, 10**15)
        if kind == "random":
            return rng.randrange(2, 10**18), None
        if kind == "semiprime":
            p = random_prime(rng, 20 + k % 9)
            q = random_prime(rng, 20 + k // 9 % 9)
            return p * q, ({p: 1, q: 1} if p != q else {p: 2})
        # big: a smooth part times a 60-100-bit prime, which is past the
        # deterministic Miller-Rabin limit when it has more than 81 bits
        n, factors = smooth_number(rng, 10**6)
        p = random_prime(rng, 60 + k % 41)
        return n * p, {**factors, p: 1}

    def generate(self, index: int) -> dict:
        kind = self.classes[index % len(self.classes)]
        while True:
            n, factors = self._draw(kind, index // len(self.classes))
            if n not in self.seen:
                break
        self.seen.add(n)
        if factors is None or index % 8 < 4:
            m = self.rng.randrange(1, n + 1)
        else:
            m = structured_order(self.rng, factors)
        f = CATALOG[(index // len(self.classes)) % len(CATALOG)]
        d = divisor_count(factors) if factors is not None else None
        return {"class": kind, "f": f, "n": n, "m": m, "divisors": d}

    def run(self, request):
        return gcdft.dft_dispatch(self.function(request["f"]), request["n"], request["m"])

    def cli_args(self, request):
        return ["dft", "--f", request["f"], "--n", str(request["n"]), "--m", str(request["m"])]

    def check_now(self, request, report):
        if report.n.value != request["n"]:
            return f"report is for n={report.n.value}", None
        if not isinstance(report.value, (int, Fraction)):
            return f"inexact value {report.value!r}", None
        share = self.CHECK_SHARE
        d = request["divisors"]
        if d is not None and d > self.CHECK_DIVISORS:
            share *= self.CHECK_DIVISORS / d
        if self.check_rng.random() >= share:
            return None, None
        return None, report.value

    def check_later(self, request, value):
        expected = gcdft.dft_exact_convolution(
            self.function(request["f"]), request["n"], request["m"]
        )
        if expected != value:
            return f"closed form {value} != convolution {expected}"
        return None


class TableWorkload(Workload):
    """``build_table`` plus CSV rendering: one full table per request."""

    name = "table"
    deadline_s = 20.0
    cycle = 220  # 11 functions x 20 size bins
    request_s = 0.034
    trace_requests = 22

    def generate(self, index):
        return {
            "f": CATALOG[index % len(CATALOG)],
            "n": stratified(self.rng, 60, 1500, index, bins=20),
        }

    def run(self, request):
        rows = tables.build_table(self.function(request["f"]), request["n"])
        return tables.render_table(rows, "csv")

    def cli_args(self, request):
        return ["table", "--f", request["f"], "--n", str(request["n"]), "--format", "csv"]

    def values(self, request, output):
        return request["n"]

    def check_now(self, request, text):
        n = request["n"]
        lines = text.split("\n")
        if lines[0] != "index,gcd,value,form":
            return f"bad header {lines[0]!r}", None
        if len(lines) - 1 != n:
            return f"{len(lines) - 1} rows for n={n}", None
        by_class: dict[int, str] = {}
        for index, line in enumerate(lines[1:], start=1):
            idx, g, value, _form = line.split(",", 3)
            if int(idx) != index or int(g) != math.gcd(index, n):
                return f"row {index} reads {line!r}", None
            if by_class.setdefault(int(g), value) != value:
                return f"gcd class {g} has two values", None
        return None, by_class

    def check_later(self, request, by_class):
        f = self.function(request["f"])
        for g, text in by_class.items():
            expected = gcdft.dft_exact_convolution(f, request["n"], g)
            if parse_exact(text) != expected:
                return f"class {g}: table {text} != convolution {expected}"
        return None


class SweepWorkload(Workload):
    """``run_verification`` plus the JSON report: one small identity sweep
    per request."""

    name = "sweep"
    deadline_s = 30.0
    cycle = 110  # 11 functions x 10 values of n_max
    request_s = 0.061
    trace_requests = 12

    def generate(self, index):
        return {
            "f": CATALOG[index % len(CATALOG)],
            "policy": M_POLICIES[index % len(M_POLICIES)],
            "n_max": 10 + index % 10,
            "seed": self.rng.randrange(2**32),
        }

    def run(self, request):
        config = SweepConfig(
            n_max=request["n_max"],
            m_policy=request["policy"],
            functions=(request["f"],),
            seed=request["seed"],
        )
        report = verify.run_verification(config)
        return report, verify.render_report(report, config, "json")

    def cli_args(self, request):
        return [
            "verify", "--n-max", str(request["n_max"]), "--m-policy", request["policy"],
            "--functions", request["f"], "--seed", str(request["seed"]), "--format", "json",
        ]

    def values(self, request, output):
        return output[0].checks

    def check_now(self, request, output):
        report, text = output
        rendered = json.loads(text)
        if not report.passed or rendered["passed"] is not True:
            return f"sweep failed: {report.failures[:1]}", None
        if rendered["checks"] != report.checks or report.checks < 1:
            return f"report counts {rendered['checks']} vs {report.checks}", None
        return None, None


class OracleWorkload(Workload):
    """``dft_dispatch(..., verify=True)`` at distinct n in [10^4, 3*10^5]: the
    brute float sum, its gcd-bucket cache and the exact convolution."""

    name = "oracle"
    deadline_s = 10.0
    cycle = 110  # 11 functions x 10 size bins
    request_s = 0.027
    # Each distinct n leaves about 1.4 MB in the library's caches, so a
    # longer list would only grow the process: 220 requests peak near 320 MB.
    max_requests = 220
    probe = "array"  # the time goes to numpy's gcd, exp and masked sums
    trace_requests = 66

    def __init__(self, seed: int):
        super().__init__(seed)
        self.seen: set[int] = set()

    def generate(self, index):
        while True:
            n = stratified(self.rng, 10**4, 3 * 10**5, index)
            if n not in self.seen:
                break
        self.seen.add(n)
        return {
            "f": CATALOG[index % len(CATALOG)],
            "n": n,
            "m": self.rng.randrange(1, n + 1),
        }

    def run(self, request):
        return gcdft.dft_dispatch(
            self.function(request["f"]), request["n"], request["m"], verify=True
        )

    def cli_args(self, request):
        return PointWorkload.cli_args(self, request) + ["--verify"]

    def check_now(self, request, report):
        if report.n.value != request["n"]:
            return f"report is for n={report.n.value}", None
        if report.paths_agreeing != ORACLE_PATHS:
            return f"paths agreeing: {sorted(report.paths_agreeing)}", None
        return None, report.value

    check_later = PointWorkload.check_later


WORKLOADS = {w.name: w for w in (PointWorkload, TableWorkload, SweepWorkload, OracleWorkload)}
