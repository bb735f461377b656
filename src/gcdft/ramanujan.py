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
the floating definition are the rule's independent checks. With
eps(d) = [d = 1], eps(gcd(k, n)) is the indicator of the k coprime to n, so
the definition is the transform of eps (Toth and Haukkanen's r-even DFT):
the float oracles of :mod:`gcdft.transform` at eps give one value, from the
folded brute sum, and every residue of n at once, from the FFT.
"""

from __future__ import annotations

import math
from functools import lru_cache

from . import numtheory
from .errors import OracleScaleError
from .functions import ArithmeticFunction
from .numtheory import DEFINITION_SCALE_LIMIT, _class_exponents, as_int, factorize

FLOAT_TOLERANCE = 1e-6

# eps(p^e) = 0 for e >= 1: the identity of Dirichlet convolution, kept out of
# the catalog, whose names the CLI and the digest list
_EPSILON = ArithmeticFunction.multiplicative("eps", lambda p, e: 0)


def ramanujan_definition(n: int, m: int) -> complex:
    """Floating-point sum over the k coprime to n; oracle use only (n <= 10^6):
    ``transform.dft_brute_float`` at eps, whose folded cosine sum is real,
    so the imaginary part is 0.0 and the real part should sit within
    FLOAT_TOLERANCE of an integer."""
    from . import transform  # transform imports this module's exact rule

    n, m = as_int(n, "n"), as_int(m, "m")
    return transform.dft_brute_float(_EPSILON, n, m)


def ramanujan_definition_row(n: int) -> list[complex]:
    """The definition at every residue r = 0..n-1, entry r within rounding of
    ``ramanujan_definition(n, r)``: ``transform.dft_brute_spectrum`` at eps,
    one FFT. Oracle use only (n <= 10^6); a verify sweep reads the row once
    per n and lets it go."""
    from . import transform  # transform imports this module's exact rule

    return transform.dft_brute_spectrum(_EPSILON, as_int(n, "n")).tolist()


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
