"""Evaluation paths for the discrete Fourier transform of f(gcd(k, n)).

The transform sum_{k=1..n} f(gcd(k, n)) * exp(-2*pi*i*k*m/n) is computed three
independent ways:

* a brute-force floating sum (the oracle, O(n) per call), folded over k and
  n - k: as gcd(k, n) = gcd(n - k, n), the terms pair into a real cosine sum
  over k <= n/2, so the value's imaginary part is 0 by construction,
* an exact Dirichlet convolution of f with the Ramanujan sum, over its nonzero
  terms: products over the primes of n of the rule of :mod:`gcdft.ramanujan`,
  paired with the positions of d as (c_d(m), position of d) int pairs,
  cached per class (n, gcd(m, n)), shared by every f,
* exact prime-factor products: the per-prime product for any multiplicative
  f (one per-prime kernel, :func:`_local_factors`), Schramm's product for
  f = id, and a fully closed geometric form for completely multiplicative f,
  which reads f(p) once per prime and no other value of f.

The transform depends on m only through its gcd class g = gcd(m, n), and the
factor of p^s || n only through t = v_p(g) <= s, so any integer m, zero and
negative included, needs no reduction first. The per-prime product reads each
t in its own loop, on a bounded kernel memo keyed on (f, p, s); the oracles
read the class through :func:`numtheory._class_exponents`. A divisor is its
position in :func:`numtheory.divisor_tuple`, the lattice walk's order, where
:func:`functions._divisor_values` holds f(n/d); the float oracles sieve in it.
Past 10^6 divisors, where that walk raises, a multiplicative f's convolution
sums one class-lattice walk of c_{p^e}(m) * f(p^(s-e)). No divisor is factored.

:func:`exact_closed_form` is the only place that picks a closed form: the
per-prime product for every multiplicative f. Schramm's product and the
geometric form are independent oracles for verify and the tests, never
dispatch paths. All exact paths must agree, each in plain ``int`` whenever
its value is integral; the dispatcher can cross-check them. The convolution
and the per-prime product take a ``Factorization`` n and an ``int`` m as
they are, with no conversion: a verify sweep calls each 10^5 times or more.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm, prod

import numpy as np

from . import numtheory
from .errors import DomainError, InconsistencyError, OracleScaleError
from .functions import ArithmeticFunction, Exact, Kind, _divisor_values, as_exact
from .numtheory import Factorization, _class_exponents, as_factorization, as_int
from .numtheory import divisor_tuple, factorize
from .ramanujan import DEFINITION_SCALE_LIMIT, FLOAT_TOLERANCE, _prime_power_sum

PATH_BRUTE_FLOAT = "brute_float"
PATH_CONVOLUTION = "convolution_exact"
PATH_CLOSED_FORM = "closed_form"

# Kind.GENERAL bound once: an enum member lookup costs ~0.1 us on CPython 3.11
_GENERAL = Kind.GENERAL

# A float oracle's rounding error (brute sum or FFT) grows with the l1 norm of
# the summed sequence f(gcd(k, n)), so its check is relative to that norm.
BRUTE_RELATIVE_TOLERANCE = 1e-12


@dataclass(frozen=True)
class DftReport:
    """One computed transform value plus which evaluation paths confirmed it."""

    n: Factorization
    m_reduced: int
    f_name: str
    value: Exact
    paths_agreeing: frozenset[str]

    def __repr__(self) -> str:
        # a frozenset's repr lists strings in hash order, which changes with
        # the process's hash seed: the paths are listed sorted instead
        paths = ", ".join(map(repr, sorted(self.paths_agreeing)))
        return (
            f"DftReport(n={self.n!r}, m_reduced={self.m_reduced!r}, f_name={self.f_name!r}, "
            f"value={self.value!r}, paths_agreeing=frozenset({{{paths}}}))"
        )


def reduce_order(m: int, n: int) -> int:
    """Reduce any integer m to the representative in 1..n (residue 0 -> n)."""
    m, n = as_int(m, "m"), as_int(n, "n")
    if n < 1:
        raise DomainError("n must be >= 1")
    r = m % n
    return r if r else n


def _lattice_divisors(fac: Factorization) -> tuple[int, ...]:
    """``divisor_tuple(fac)``, every divisor of d before d, as a sieve needs; a tuple
    that is not exactly the d(n) distinct divisors of n raises :class:`InconsistencyError`."""
    divs, count = divisor_tuple(fac), prod(s + 1 for _, s in fac.factors)
    if len(divs) != count or len(set(divs)) != count or lcm(*divs) != fac.value:  # each d | n
        raise InconsistencyError(f"{divs} are not the {count} divisors of {fac.value}")
    return divs


@lru_cache(maxsize=16)
def _gcd_buckets(n: int) -> tuple[tuple[int, ...], np.ndarray]:
    """Divisors of n and, for k = 1..n, ``index[k-1]`` = the position of
    gcd(k, n) among them, in the smallest unsigned dtype that holds d(n) - 1.

    A divisor sieve: ``index[d-1::d] = i`` over the divisors in lattice
    order, so each k ends on gcd(k, n), which follows its divisors there.
    That is sigma(n)/n strided writes per entry, with no gcd computed."""
    divs = _lattice_divisors(factorize(n))
    index = np.empty(n, dtype=np.min_scalar_type(len(divs) - 1))
    for i, d in enumerate(divs):
        index[d - 1 :: d] = i
    index.flags.writeable = False  # shared by every caller through the cache
    return divs, index


def _float_value(f: ArithmeticFunction, value: Exact, d: int, n: int) -> float:
    """f(d) = ``value`` as a float, for the float oracles at n."""
    try:
        return float(value)
    except OverflowError:
        raise OracleScaleError(
            f"{f.name}({d}) is beyond float range: no float oracle at n = {n}"
        ) from None


def _gcd_sequence(f: ArithmeticFunction, n: int, count: int | None = None) -> np.ndarray:
    """The floats f(gcd(k, n)), k = 1..count (all of 1..n by default): each
    divisor d <= count, in lattice order, writes f(d) (from the far end of
    :func:`_divisor_values`) to its multiples, so k ends on gcd(k, n)."""
    if (n := as_int(n)) < 1:
        raise OracleScaleError("n must be >= 1")
    if n > DEFINITION_SCALE_LIMIT:
        raise OracleScaleError(
            f"brute-force oracle is rated for n <= {DEFINITION_SCALE_LIMIT}, got {n}"
        )
    count = n if count is None else count
    a = np.empty(count)
    fac = factorize(n)
    for d, value in zip(_lattice_divisors(fac), reversed(_divisor_values(f, fac))):
        if d <= count:
            a[d - 1 :: d] = _float_value(f, value, d, n)
    return a


def dft_brute_float(f: ArithmeticFunction, n: int, m: int) -> complex:
    """Direct floating sum over k = 1..n of f(gcd(k, n)) e(-km/n), term by
    term, folded: gcd(k, n) = gcd(n - k, n), so the terms k and n - k pair
    into a cosine (Schramm 2008) and
    h = f(n) + [n even] f(n/2) (-1)^m + 2 sum_{1<=k<n/2} f(gcd(k, n)) cos(2 pi km/n).
    The sequence is read for k <= n/2 only, k = n/2 with weight 1/2, and the
    value is real: its imaginary part is 0.0 by construction.

    Writing k = q*B + j + 1 with B = isqrt(n//2) + 1 splits every twiddle into
    e(-(qBm mod n)/n) * e(-((j+1)m mod n)/n): two tables of about sqrt(n/2)
    entries whose phases are reduced mod n in exact integer arithmetic, so
    the phase error stays ~1e-15 without a full-length exp. The sum over j is
    then a matrix-vector product over rows of B terms, and the sum over q a
    dot product, whose real part is the cosine sum. Oracle use only
    (n <= 10^6)."""
    m = m if type(m) is int else as_int(m, "m")
    half = as_int(n) // 2
    a = _gcd_sequence(f, n, half)
    top = _float_value(f, _divisor_values(f, factorize(n))[0], n, n)
    if n % 2 == 0:
        a[-1] *= 0.5  # k = n/2 is its own partner n - k
    block = isqrt(half) + 1
    rows, tail = divmod(half, block)
    m %= n
    turn = -2j * np.pi / n
    fine = np.exp(turn * (np.arange(1, block + 1, dtype=np.int64) * m % n))
    coarse = np.exp(turn * (np.arange(rows + 1, dtype=np.int64) * block * m % n))
    # real and imaginary parts of the fine twiddles as two columns
    fine_columns = fine.view(np.float64).reshape(block, 2)
    row_sums = np.empty((rows + 1, 2))
    row_sums[:rows] = a[: rows * block].reshape(rows, block) @ fine_columns
    row_sums[rows] = a[rows * block :] @ fine_columns[:tail]
    folded = row_sums.view(np.complex128).ravel() @ coarse
    return complex(top + 2.0 * folded.real)


def dft_brute_spectrum(f: ArithmeticFunction, n: int) -> np.ndarray:
    """Float transform values for every order at once via an FFT of the
    sequence f(gcd(k, n)); entry [m % n] is the transform at order m.

    Independent of the exact paths; used for bulk float cross-checks.
    """
    # entry 0 of the FFT input is k = 0, i.e. gcd(0, n) = n, the last entry
    a = _gcd_sequence(f, n)
    return np.fft.fft(np.concatenate((a[-1:], a[:-1])))


def _class_lattice(fac: Factorization, g: int, weight) -> list[list]:
    """Per p^s || n, weight(p, s, e, t) for the e <= min(t + 1, s), t = v_p(g): the box of
    the d | n with c_d(m) != 0 at the orders of class g, as c_{p^e}(m) = 0 beyond
    (:func:`ramanujan._prime_power_sum`)."""
    return [
        [weight(p, s, e, t) for e in range(min(t + 1, s) + 1)]
        for (p, s), t in zip(fac.factors, _class_exponents(fac, g))
    ]


@lru_cache(maxsize=1 << 7)
def _ramanujan_terms(fac: Factorization, g: int) -> tuple[tuple[int, int], ...]:
    """(c_d(m), position of d) int pairs: the walk of :func:`_class_lattice`'s c_{p^e}(m)
    with its box's positions by Horner's rule; bounded and keyed on (n, g): it serves every f."""
    choices = _class_lattice(fac, g, lambda p, s, e, t: _prime_power_sum(p, e, t))
    products = numtheory._lattice_terms(fac, choices)
    positions = [0]
    for (_, s), exponents in zip(fac.factors, map(range, map(len, choices))):
        positions = [i * (s + 1) + e for i in positions for e in exponents]
    return tuple(zip(products, positions))


def dft_exact_convolution(f: ArithmeticFunction, n: int | Factorization, m: int) -> Exact:
    """Exact transform as the Dirichlet convolution of f with the Ramanujan
    sum, sum over d | n of f(n/d) * c_d(m): :func:`_divisor_values` at the
    positions of :func:`_ramanujan_terms`. Where that walk over every divisor
    of n raises, a multiplicative f sums one :func:`_class_lattice` walk of
    the products c_{p^e}(m) * f(p^(s-e)) instead."""
    fac = n if isinstance(n, Factorization) else numtheory.factorize(n)
    g = gcd(m if type(m) is int else as_int(m, "m"), fac.value)
    try:
        values = _divisor_values(f, fac)
    except OracleScaleError:
        if f.kind is _GENERAL:
            raise
        choices = _class_lattice(
            fac, g, lambda p, s, e, t: _prime_power_sum(p, e, t) * f.prime_power(p, s - e)
        )
        result = sum(numtheory._lattice_terms(fac, choices))
    else:
        result = sum(c * values[i] for c, i in _ramanujan_terms(fac, g))
    return result if type(result) is int else as_exact(result)


def _class_values(f: ArithmeticFunction, n: int | Factorization) -> dict[int, Exact]:
    """The exact convolution at every gcd class g | n, keyed on g, in the
    order of :func:`numtheory.divisor_tuple`."""
    fac = as_factorization(n)
    return {g: dft_exact_convolution(f, fac, g) for g in divisor_tuple(fac)}


def dft_closed_form_gcd(n: int | Factorization, m: int) -> int:
    """Schramm's transform of the gcd itself (f = id), an oracle only:
    prod_i [(t_i + 1) * phi(p_i^s_i) + [t_i = s_i] * p_i^(s_i-1)]."""
    fac = as_factorization(n)
    result = 1
    for (p, s), t in zip(fac.factors, _class_exponents(fac, m)):
        factor = (t + 1) * (p**s - p ** (s - 1))
        if t == s:
            factor += p ** (s - 1)
        result *= factor
    return result


@lru_cache(maxsize=1 << 8)
def _local_factors(f: ArithmeticFunction, p: int, s: int) -> tuple[Exact, ...]:
    """The factors of p^s || n in the transform, entry t at the orders of
    class t = v_p(gcd(m, n)) <= s:
    f(p^s) + (p-1) * sum_{b=1..t} p^(b-1) f(p^(s-b)),
    minus f(p^(s-t-1)) * p^t when t < s (dropped at t = s, so f never sees
    a negative exponent), from one pass that reads each f(p^e) once. Memoized
    on (f, p, s), f by identity, and bounded, as distinct large primes would grow it."""
    term, factors = f.prime_power(p, s), []
    for t in range(s):
        weighted = f.prime_power(p, s - t - 1) * p**t
        factors.append(term - weighted)
        term += (p - 1) * weighted
    return (*factors, term)


def dft_closed_form_multiplicative(
    f: ArithmeticFunction, n: int | Factorization, m: int
) -> Exact:
    """Exact transform of a multiplicative f as the product of the
    :func:`_local_factors` of each prime power of n at its class."""
    if f.kind is _GENERAL:
        raise DomainError("closed form requires a multiplicative function")
    fac = n if isinstance(n, Factorization) else numtheory.factorize(n)
    g = gcd(m if type(m) is int else as_int(m, "m"), fac.value)
    result = 1
    for p, s in fac.factors:
        t = 0  # v_p(g), the class of p, as in _class_exponents
        while g % p == 0:
            g, t = g // p, t + 1
        result *= _local_factors(f, p, s)[t]
    return result if type(result) is int else as_exact(result)


def dft_closed_form_completely_mult(
    f: ArithmeticFunction, n: int | Factorization, m: int
) -> Exact:
    """Exact transform of a completely multiplicative f, with a = f(p) read
    once per prime and the per-prime sum collapsed into a geometric ratio:
    a^s - [t < s] a^(s-t-1) p^t, plus, for t >= 1,
    (p-1) * a^(s-t) * (a^t - p^t) / (a - p), an int where it divides, or
    (p-1) * t * p^(s-1) when a = p. As 0^0 = 1, f(p) = 0 needs no branch of
    its own. An oracle only: must always agree with
    :func:`dft_closed_form_multiplicative`."""
    if f.kind is not Kind.COMPLETELY_MULTIPLICATIVE:
        raise DomainError("geometric closed form requires a completely multiplicative function")
    fac = as_factorization(n)
    result = 1
    for (p, s), t in zip(fac.factors, _class_exponents(fac, m)):
        a = f.prime_power(p, 1)
        term = a**s
        if t < s:
            term -= a ** (s - t - 1) * p**t
        if t >= 1 and a == p:
            term += (p - 1) * t * p ** (s - 1)
        elif t >= 1:
            ratio = (p - 1) * a ** (s - t) * (a**t - p**t)
            whole, rest = divmod(ratio, a - p)
            term += Fraction(ratio, a - p) if rest else whole  # Fraction only if not whole
        result *= term
    return as_exact(result)


def gcd_power_sum(f: ArithmeticFunction, n: int | Factorization) -> Exact:
    """sum_{k=1..n} f(gcd(k, n)) = (f * phi)(n), i.e. the transform at order
    m = n, by the path :func:`dft_dispatch` picks for f's kind."""
    return dft_dispatch(f, n, 0).value


def exact_closed_form(f: ArithmeticFunction, n: int | Factorization, m: int) -> Exact | None:
    """The transform from the closed form for f's kind: the per-prime product
    for a multiplicative f, and None for a general f (which only the
    convolution evaluates)."""
    return None if f.kind is _GENERAL else dft_closed_form_multiplicative(f, n, m)


def float_bound(f: ArithmeticFunction, n: int, tolerance: float) -> float:
    """How far a float oracle may stray from the exact transform at n: the
    larger of ``tolerance`` and BRUTE_RELATIVE_TOLERANCE times the l1 norm
    sum_k |f(gcd(k, n))| = sum_{d | n} phi(d) * |f(n/d)|, computed exactly
    over the terms of the full class g = n, where c_d = phi(d)."""
    fac = factorize(n)
    values = _divisor_values(f, fac)
    l1 = sum(c * abs(values[i]) for c, i in _ramanujan_terms(fac, n))
    try:
        norm = float(l1)
    except OverflowError:
        raise OracleScaleError(
            f"the l1 norm of {f.name} at n = {n} is beyond float range: no float oracle"
        ) from None
    return max(tolerance, BRUTE_RELATIVE_TOLERANCE * norm)


def float_agrees(approx: complex, exact: Exact, bound: float) -> bool:
    """Whether a float oracle's value lies within ``bound`` of the real exact
    value, in both its real and its imaginary part. The brute sum, and with it
    the single Ramanujan float definition, is real by construction, so the
    imaginary test bites on the FFT spectrum and the Ramanujan definition row."""
    return abs(approx.real - float(exact)) < bound and abs(approx.imag) < bound


def dft_dispatch(
    f: ArithmeticFunction,
    n: int | Factorization,
    m: int,
    *,
    verify: bool = False,
) -> DftReport:
    """Evaluate the transform via the best exact path for f's kind; with
    ``verify`` every evaluable path runs and exact disagreement raises
    :class:`InconsistencyError`. The brute float value is accepted within
    :func:`float_bound`."""
    fac = as_factorization(n)
    m_reduced = reduce_order(m, fac.value)

    value = exact_closed_form(f, fac, m_reduced)
    if value is None:
        value = dft_exact_convolution(f, fac, m_reduced)
        agreeing = {PATH_CONVOLUTION}
    else:
        agreeing = {PATH_CLOSED_FORM}

    if verify:
        if PATH_CONVOLUTION not in agreeing:
            convolution = dft_exact_convolution(f, fac, m_reduced)
            if convolution != value:
                raise InconsistencyError(
                    f"exact paths disagree for f={f.name}, n={fac.value}, "
                    f"m={m_reduced}: closed form {value}, convolution {convolution}"
                )
            agreeing.add(PATH_CONVOLUTION)
        if fac.value <= DEFINITION_SCALE_LIMIT:
            brute = dft_brute_float(f, fac.value, m_reduced)
            if not float_agrees(brute, value, float_bound(f, fac.value, FLOAT_TOLERANCE)):
                raise InconsistencyError(
                    f"brute-force value {brute} is out of tolerance of exact "
                    f"{value} for f={f.name}, n={fac.value}, m={m_reduced}"
                )
            agreeing.add(PATH_BRUTE_FLOAT)

    return DftReport(fac, m_reduced, f.name, value, frozenset(agreeing))
