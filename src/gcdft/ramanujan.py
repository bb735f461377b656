"""Three independent evaluators for the Ramanujan sum c_n(m).

The sum is defined over the k <= n coprime to n of exp(2*pi*i*k*m/n); it is
real, integer valued, and even in m, so the sign convention of the exponent
does not matter (c_n(m) == c_n(-m), which the tests pin down). All evaluators
reduce m mod n first; residue 0 is handled through gcd(0, n) = n.

c_n(m) is multiplicative in n, and its value at a prime power,
:func:`_prime_power_sum`, is the one exact rule of the package: von
Sterneck's form is its product over the primes of n, and the exact
convolution in :mod:`gcdft.transform` builds its terms from it. Kluyver's
divisor sum, a walk over the divisors of gcd(m, n) on n's divisor lattice, and
the floating definition are the rule's independent checks. The definition
reads its terms from one table, held for the last n, of the k coprime to n
and the n-th roots of unity, indexed at the exact phases: per residue for
:func:`ramanujan_definition`, or for every residue of n at once for
:func:`ramanujan_definition_row`, which gives the same floats.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import numtheory
from .errors import OracleScaleError
from .numtheory import DEFINITION_SCALE_LIMIT, _class_exponents, as_int, factorize

FLOAT_TOLERANCE = 1e-6


@lru_cache(maxsize=1)
def _definition_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The k in 1..n <= 10^6 coprime to n, every multiple of a prime of n
    cleared, and e(j/n) for j = 0..n-1: read-only and held for the last n,
    so that the blocks of one :func:`ramanujan_definition_row` and repeated
    ``ramanujan_definition(n, m)`` calls at one n build it once."""
    if n < 1:
        raise OracleScaleError("n must be >= 1")
    if n > DEFINITION_SCALE_LIMIT:
        raise OracleScaleError(
            f"definition oracle is rated for n <= {DEFINITION_SCALE_LIMIT}, got {n}"
        )
    coprime = np.ones(n, dtype=bool)
    for p, _ in factorize(n).factors:
        coprime[p - 1 :: p] = False
    k = np.flatnonzero(coprime) + 1
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    k.flags.writeable = roots.flags.writeable = False
    return k, roots


def _definition_sums(n: int, residues) -> np.ndarray:
    """The definition's sum at each order in ``residues``, one row of terms
    per order, each row summed on its own: the table is checked before any
    order is reduced mod n."""
    k, roots = _definition_table(n)
    # k*r is reduced mod n in exact integer arithmetic before the angle is
    # formed, keeping the phase error at the 1e-15 level even for huge m.
    return roots[np.outer([r % n for r in residues], k) % n].sum(axis=1)


def ramanujan_definition(n: int, m: int) -> complex:
    """Floating-point sum over the k coprime to n; oracle use only (n <= 10^6).

    The imaginary part of the result should vanish and the real part should
    sit within FLOAT_TOLERANCE of an integer. Each term is the float that
    ``np.exp(2j * np.pi * phase / n)`` gives, read from the roots of unity
    of :func:`_definition_table` at the phases of its k.
    """
    n, m = as_int(n, "n"), as_int(m, "m")
    return complex(_definition_sums(n, [m])[0])


def ramanujan_definition_row(n: int) -> list[complex]:
    """:func:`ramanujan_definition` at every residue r = 0..n-1, entry r
    equal to ``ramanujan_definition(n, r)`` bit for bit: n * phi(n) terms,
    gathered from the table in blocks of orders of at most
    DEFINITION_SCALE_LIMIT terms each. Oracle use only (n <= 10^6); a verify
    sweep reads the row once per n and lets it go."""
    n = as_int(n, "n")
    k, _ = _definition_table(n)
    step = DEFINITION_SCALE_LIMIT // len(k)  # >= 1, as len(k) = phi(n) <= n
    return [
        z
        for start in range(0, n, step)
        for z in _definition_sums(n, range(start, min(start + step, n))).tolist()
    ]


def _prime_power_sum(p: int, e: int, t: int) -> int:
    """c_{p^e}(m) for t = v_p(gcd(m, n)) and e <= v_p(n): phi(p^e) for
    e <= t, -p^t for e = t + 1 and 0 beyond. The one exact rule that von
    Sterneck's form and the exact convolution both build from."""
    if e <= t:
        return p**e - p**e // p  # phi(p^e), and phi(1) = 1
    return -(p**t) if e == t + 1 else 0


@lru_cache(maxsize=1 << 18)
def _von_sterneck(n: int, g: int) -> int:
    fac = factorize(n)
    exponents = _class_exponents(fac, g)
    return math.prod(_prime_power_sum(p, s, t) for (p, s), t in zip(fac.factors, exponents))


def ramanujan_von_sterneck(n: int, m: int) -> int:
    """Exact evaluation of mu(n/g) * phi(n) / phi(n/g), g = gcd(m, n), as the
    product of :func:`_prime_power_sum` over the p^s || n."""
    if type(n) is not int or type(m) is not int:
        n, m = as_int(n, "n"), as_int(m, "m")
    if n < 1:
        raise OracleScaleError("n must be >= 1")
    return _von_sterneck(n, math.gcd(m % n, n))


@lru_cache(maxsize=1 << 18)
def _kluyver(n: int, g: int) -> int:
    """Sum of mu(n/d) * d over d | g: the walk of p^e * mu(p^(s-e)), e = 0..v_p(g),
    summed, v_p(g) read from g's own factorization, mu(p^k) = 1, -1, then 0."""
    fac, of_g = factorize(n), dict(factorize(g).factors)
    choices = [
        [p**e * (1, -1, 0)[min(s - e, 2)] for e in range(of_g.get(p, 0) + 1)]
        for p, s in fac.factors
    ]
    return sum(numtheory._lattice_terms(fac, choices))


def ramanujan_kluyver(n: int, m: int) -> int:
    """Exact evaluation via the divisor sum of mu(n/d) * d over d | gcd(m, n).
    A walk over more than DEFINITION_SCALE_LIMIT divisors raises
    :class:`OracleScaleError` before any term is built."""
    if type(n) is not int or type(m) is not int:
        n, m = as_int(n, "n"), as_int(m, "m")
    if n < 1:
        raise OracleScaleError("n must be >= 1")
    return _kluyver(n, math.gcd(m % n, n))
