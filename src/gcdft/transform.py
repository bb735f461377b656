"""Evaluation paths for the discrete Fourier transform of f(gcd(k, n)).

The transform sum_{k=1..n} f(gcd(k, n)) * exp(-2*pi*i*k*m/n) is computed three
independent ways:

* a brute-force floating sum (the oracle, O(n) per call): each divisor d of n,
  largest last, writes f(d) to the multiples of d, and each twiddle is the
  product of two split tables of about sqrt(n) entries,
* an exact Dirichlet convolution of f with the Ramanujan sum,
* exact prime-factor products: the per-prime product for any multiplicative
  f (one per-prime kernel, :func:`_local_factor`), Schramm's product for
  f = id, and a fully closed geometric form for completely multiplicative f.

The transform depends on m only through its gcd class g = gcd(m, n), and the
factor of p^s || n only through t = v_p(g) <= s, so any integer m, zero and
negative included, needs no reduction first. The per-prime product reads each
t in its own loop, on a bounded kernel memo keyed on (f, p, s, t); the oracles
read the class through :func:`_class_exponents`.

:func:`exact_closed_form` is the only place that picks a closed form: the
per-prime product for every multiplicative f, in plain ``int`` whenever f is
integer-valued. Schramm's product and the geometric form are independent
oracles for verify and the tests, never dispatch paths. All exact paths must
agree; the dispatcher can cross-check them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

import numpy as np

from .errors import DomainError, InconsistencyError, OracleScaleError
from .functions import ArithmeticFunction, Exact, Kind, as_exact, evaluate
from .numtheory import Factorization, as_factorization, as_int, divisor_tuple, totient
from .ramanujan import DEFINITION_SCALE_LIMIT, FLOAT_TOLERANCE, ramanujan_von_sterneck

PATH_BRUTE_FLOAT = "brute_float"
PATH_CONVOLUTION = "convolution_exact"
PATH_CLOSED_FORM = "closed_form"

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


def reduce_order(m: int, n: int) -> int:
    """Reduce any integer m to the representative in 1..n (residue 0 -> n)."""
    r = m % n
    return r if r else n


def _class_exponents(fac: Factorization, m: int) -> tuple[int, ...]:
    """The gcd class of the order m: for each p^s in ``fac.factors``, the
    multiplicity t <= s of p in g = gcd(m, n). As gcd(0, n) = n and
    gcd(-m, n) = gcd(m, n), every integer m falls in the class of its
    residue mod n."""
    g = gcd(as_int(m, "m"), fac.value)
    exponents = []
    for p, _ in fac.factors:
        t = 0
        while g % p == 0:
            g //= p
            t += 1
        exponents.append(t)
    return tuple(exponents)


def _ascending_divisors(n: int) -> tuple[int, ...]:
    """``divisor_tuple(n)``, checked to be the ascending divisors a sieve needs."""
    divs = divisor_tuple(n)
    if divs[0] != 1 or any(n % d for d in divs) or list(divs) != sorted(set(divs)):
        raise InconsistencyError(f"{divs} are not the ascending divisors of {n}")
    return divs


@lru_cache(maxsize=16)
def _gcd_buckets(n: int) -> tuple[tuple[int, ...], np.ndarray]:
    """Divisors of n and, for k = 1..n, ``index[k-1]`` = the position of
    gcd(k, n) among them, in the smallest unsigned dtype that holds d(n) - 1.

    A divisor sieve: ``index[d-1::d] = i`` over the divisors in ascending
    order, so each k ends on its largest divisor of n, which is gcd(k, n).
    That is sigma(n)/n strided writes per entry, with no gcd computed."""
    divs = _ascending_divisors(n)
    index = np.empty(n, dtype=np.min_scalar_type(len(divs) - 1))
    for i, d in enumerate(divs):
        index[d - 1 :: d] = i
    index.flags.writeable = False  # shared by every caller through the cache
    return divs, index


def _gcd_sequence(f: ArithmeticFunction, n: int) -> np.ndarray:
    """The floats f(gcd(k, n)), k = 1..n: each divisor d, ascending, writes f(d)
    to the multiples of d, so k ends on gcd(k, n). Oracle use only (n <= 10^6)."""
    if n < 1:
        raise OracleScaleError("n must be >= 1")
    if n > DEFINITION_SCALE_LIMIT:
        raise OracleScaleError(
            f"brute-force oracle is rated for n <= {DEFINITION_SCALE_LIMIT}, got {n}"
        )
    a = np.empty(n)
    for d in _ascending_divisors(n):
        a[d - 1 :: d] = float(evaluate(f, d))
    return a


def dft_brute_float(f: ArithmeticFunction, n: int, m: int) -> complex:
    """Direct floating sum over k = 1..n of f(gcd(k, n)) e(-km/n).

    Writing k = q*B + j + 1 with B = isqrt(n) + 1 splits every twiddle into
    e(-(qBm mod n)/n) * e(-((j+1)m mod n)/n): two tables of about sqrt(n)
    entries whose phases are reduced mod n in exact integer arithmetic, so
    the phase error stays ~1e-15 without a full-length exp. The sum over j is
    then a matrix-vector product over rows of B terms, and the sum over q a
    dot product. Oracle use only (n <= 10^6)."""
    a = _gcd_sequence(f, n)
    block = isqrt(n) + 1
    rows, tail = divmod(n, block)
    m %= n
    turn = -2j * np.pi / n
    fine = np.exp(turn * (np.arange(1, block + 1, dtype=np.int64) * m % n))
    coarse = np.exp(turn * (np.arange(rows + 1, dtype=np.int64) * block * m % n))
    # real and imaginary parts of the fine twiddles as two columns
    fine_columns = fine.view(np.float64).reshape(block, 2)
    row_sums = np.empty((rows + 1, 2))
    row_sums[:rows] = a[: rows * block].reshape(rows, block) @ fine_columns
    row_sums[rows] = a[rows * block :] @ fine_columns[:tail]
    return complex(row_sums.view(np.complex128).ravel() @ coarse)


def dft_brute_spectrum(f: ArithmeticFunction, n: int) -> np.ndarray:
    """Float transform values for every order at once via an FFT of the
    sequence f(gcd(k, n)); entry [m % n] is the transform at order m.

    Independent of the exact paths; used for bulk float cross-checks.
    """
    # entry 0 of the FFT input is k = 0, i.e. gcd(0, n) = n, the last entry
    return np.fft.fft(np.roll(_gcd_sequence(f, n), 1))


def dft_exact_convolution(
    f: ArithmeticFunction, n: int | Factorization, m: int
) -> Exact:
    """Exact transform as the Dirichlet convolution of f with the Ramanujan
    sum: sum over d | n of f(n/d) * c_d(m).

    An int n reads the per-n divisor cache and von Sterneck's cached c_d(m).
    A given Factorization is not factored again: c_d(m) is multiplicative in
    d, and for t = v_p(gcd(m, n)) its factor c_{p^e}(m) is phi(p^e) for
    e <= t, -p^t for e = t + 1 and 0 beyond, so only the d with every factor
    nonzero are built from the primes of n, each with the factors of n/d."""
    fac = as_factorization(n)
    m = as_int(m, "m")
    if fac is not n:
        total = 0
        for d in divisor_tuple(fac.value):
            r = ramanujan_von_sterneck(d, m)
            if r:
                total += evaluate(f, fac.value // d) * r
        return total
    # (c_d(m), n/d, factors of n/d) over the d built from the primes so far
    terms = [(1, 1, ())]
    for (p, s), t in zip(fac.factors, _class_exponents(fac, m)):
        local = [(1, 0)] + [(p**e - p ** (e - 1), e) for e in range(1, t + 1)]
        if t < s:
            local.append((-(p**t), t + 1))
        terms = [
            (c * r, v * p ** (s - e), co + ((p, s - e),) if e < s else co)
            for c, v, co in terms
            for r, e in local
        ]
    return sum(c * evaluate(f, Factorization._proven(v, co)) for c, v, co in terms)


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
def _local_factor(f: ArithmeticFunction, p: int, s: int, t: int) -> Exact:
    """The factor of p^s || n in the transform at an order of class
    t = v_p(gcd(m, n)) <= s:
    f(p^s) + (p-1) * sum_{b=1..t} p^(b-1) f(p^(s-b)),
    minus f(p^(s-t-1)) * p^t when t < s (the term is dropped entirely when
    t = s, so f never sees a negative exponent). Memoized on (f, p, s, t),
    f by identity, and bounded, as distinct large primes would grow it."""
    term = f.prime_power(p, s)
    for b in range(1, t + 1):
        term += (p - 1) * p ** (b - 1) * f.prime_power(p, s - b)
    if t < s:
        term -= f.prime_power(p, s - t - 1) * p**t
    return term


def dft_closed_form_multiplicative(
    f: ArithmeticFunction, n: int | Factorization, m: int
) -> Exact:
    """Exact transform of a multiplicative f as the product of
    :func:`_local_factor` over the prime powers of n."""
    if not f.is_multiplicative:
        raise DomainError("closed form requires a multiplicative function")
    fac = as_factorization(n)
    g = gcd(as_int(m, "m"), fac.value)
    result = 1
    for p, s in fac.factors:
        t = 0  # v_p(g), the class of p, as in _class_exponents
        while g % p == 0:
            g, t = g // p, t + 1
        result *= _local_factor(f, p, s, t)
    return result


def dft_closed_form_completely_mult(
    f: ArithmeticFunction, n: int | Factorization, m: int
) -> Exact:
    """Exact transform of a completely multiplicative f with the per-prime sum
    collapsed into a geometric ratio:
    (p-1) * f(p^(s-1)) * (f(p^t) - p^t) / (f(p^t) - p*f(p^(t-1))).

    Whenever the ratio degenerates (f(p) = p, and generally any vanishing
    denominator) that prime falls back to the uncollapsed sum, so mixed cases
    such as f = id still evaluate; must always agree with
    :func:`dft_closed_form_multiplicative`."""
    if f.kind is not Kind.COMPLETELY_MULTIPLICATIVE:
        raise DomainError("geometric closed form requires a completely multiplicative function")
    fac = as_factorization(n)
    result = 1
    for (p, s), t in zip(fac.factors, _class_exponents(fac, m)):
        term = f.prime_power(p, s)
        if t < s:
            term -= f.prime_power(p, s - t - 1) * p**t
        if t >= 1:
            denominator = f.prime_power(p, t) - p * f.prime_power(p, t - 1)
            if denominator == 0:
                term = _local_factor(f, p, s, t)
            else:
                ratio = Fraction(f.prime_power(p, t) - p**t, denominator)
                term += (p - 1) * f.prime_power(p, s - 1) * ratio
        result *= term
    return as_exact(result)


def gcd_power_sum(f: ArithmeticFunction, n: int | Factorization) -> Exact:
    """sum_{k=1..n} f(gcd(k, n)), i.e. the transform at order m = n."""
    fac = as_factorization(n)
    return dft_closed_form_multiplicative(f, fac, fac.value)


def exact_closed_form(
    f: ArithmeticFunction, n: int | Factorization, m: int
) -> Exact | None:
    """The transform from the closed form for f's kind: the per-prime product
    for a multiplicative f, and None for a general f (which only the
    convolution evaluates)."""
    if f.kind is not Kind.GENERAL:
        return dft_closed_form_multiplicative(f, n, m)
    return None


def float_bound(f: ArithmeticFunction, n: int, tolerance: float) -> float:
    """How far a float oracle may stray from the exact transform at n: the
    larger of ``tolerance`` and BRUTE_RELATIVE_TOLERANCE times the l1 norm
    sum_k |f(gcd(k, n))| = sum_{d | n} |f(d)| * phi(n/d), computed exactly."""
    l1 = sum(abs(evaluate(f, d)) * totient(n // d) for d in divisor_tuple(n))
    return max(tolerance, BRUTE_RELATIVE_TOLERANCE * float(l1))


def float_agrees(approx: complex, exact: Exact, bound: float) -> bool:
    """Whether a float oracle's value lies within ``bound`` of the real exact
    value, in both its real and its imaginary part."""
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
    m_reduced = reduce_order(as_int(m, "m"), fac.value)

    value = exact_closed_form(f, fac, m_reduced)
    if value is None:
        value = dft_exact_convolution(f, n, m_reduced)
        agreeing = {PATH_CONVOLUTION}
    else:
        agreeing = {PATH_CLOSED_FORM}

    if verify:
        if PATH_CONVOLUTION not in agreeing:
            convolution = dft_exact_convolution(f, n, m_reduced)
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

    return DftReport(fac, m_reduced, f.name, as_exact(value), frozenset(agreeing))
