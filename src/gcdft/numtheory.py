"""Exact integer primitives: gcd, primality, factorization and the classical
multiplicative functions built on prime-power factorizations.

Everything here works on arbitrary-precision Python ints; no operation is
allowed to overflow or round.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError

_TRIAL_DIVISION_BOUND = 10_000

# Miller-Rabin with these witnesses is deterministic for all n below
# 3_317_044_064_679_887_385_961_981 (> 2^64); larger inputs get extra random
# witnesses on top, leaving an error probability below 4^-20.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981
_MR_EXTRA_ROUNDS = 20


def _small_primes(bound: int = _TRIAL_DIVISION_BOUND) -> tuple[int, ...]:
    sieve = bytearray(b"\x01") * (bound + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = b"\x00" * len(sieve[p * p :: p])
    return tuple(i for i, flag in enumerate(sieve) if flag)


SMALL_PRIMES = _small_primes()
_SMALL_PRIME_SET = frozenset(SMALL_PRIMES)


def gcd(a: int, b: int) -> int:
    """Greatest common divisor of two nonnegative integers; gcd(a, 0) = a."""
    if a < 0 or b < 0:
        raise DomainError("gcd arguments must be nonnegative")
    if a == 0 and b == 0:
        raise DomainError("gcd(0, 0) is undefined")
    return math.gcd(a, b)


def is_prime(n: int) -> bool:
    """Deterministic primality below ~3.3e24, strong-probable-prime above."""
    if n < 2:
        return False
    if n <= _TRIAL_DIVISION_BOUND:
        return n in _SMALL_PRIME_SET
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        if n % p == 0:
            return False
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    witnesses: tuple[int, ...] = _MR_WITNESSES
    if n >= _MR_DETERMINISTIC_LIMIT:
        rng = random.Random(n)
        witnesses = witnesses + tuple(
            rng.randrange(2, n - 1) for _ in range(_MR_EXTRA_ROUNDS)
        )
    for a in witnesses:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """Brent-cycle Pollard rho; returns a nontrivial factor of composite odd n."""
    if n % 2 == 0:
        return 2
    rng = random.Random(n)
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = q = r = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def _integer_root(c: int, k: int) -> int:
    """floor(c^(1/k)) for c >= 1, exactly: ``isqrt`` for k = 2, else Newton's
    iteration down from the power of two above the root."""
    if k == 2:
        return math.isqrt(c)
    x = 1 << -(-c.bit_length() // k)
    while True:
        y = ((k - 1) * x + c // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _perfect_power(c: int) -> tuple[int, int]:
    """(r, k) with c = r^k for the least prime k that fits, else (c, 1).

    Only for c whose prime factors all exceed the trial-division bound: then
    r > _TRIAL_DIVISION_BOUND, so only the primes k with
    _TRIAL_DIVISION_BOUND^k <= c need a root."""
    for k in SMALL_PRIMES:
        if _TRIAL_DIVISION_BOUND**k > c:
            break
        r = _integer_root(c, k)
        if r**k == c:
            return r, k
    return c, 1


@dataclass(frozen=True)
class Factorization:
    """A positive integer together with its canonical prime factorization.

    ``factors`` is a tuple of (prime, multiplicity) pairs with strictly
    increasing primes and every multiplicity >= 1; the empty tuple encodes 1.
    """

    value: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.value < 1:
            raise DomainError("Factorization value must be positive")
        product = 1
        previous = 0
        for p, s in self.factors:
            if p <= previous:
                raise DomainError("factor primes must be strictly increasing")
            if s < 1:
                raise DomainError("factor multiplicities must be >= 1")
            if not is_prime(p):
                raise DomainError(f"{p} is not prime")
            previous = p
            product *= p**s
        if product != self.value:
            raise DomainError(
                f"factors reconstitute {product}, expected {self.value}"
            )

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def __int__(self) -> int:
        return self.value

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return " * ".join(
            f"{p}^{s}" if s > 1 else str(p) for p, s in self.factors
        )


@lru_cache(maxsize=1 << 18)
def factorize(n: int) -> Factorization:
    """Canonical prime factorization of n >= 1.

    Trial division over the primes below 10^4, then, on each composite
    cofactor, a perfect-power root before Pollard rho; Miller-Rabin proves
    the remaining cofactors prime.
    """
    if n < 1:
        raise DomainError("factorize requires n >= 1")
    value = n
    factors: dict[int, int] = {}
    for p in SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    if n > 1:
        pending = [(n, 1)]  # (cofactor, multiplicity)
        while pending:
            c, e = pending.pop()
            if c <= SMALL_PRIMES[-1] or is_prime(c):
                factors[c] = factors.get(c, 0) + e
                continue
            r, k = _perfect_power(c)
            if k > 1:
                pending.append((r, e * k))
                continue
            d = _pollard_rho(c)
            pending += [(d, e), (c // d, e)]
    return Factorization(value, tuple(sorted(factors.items())))


def as_int(value: object, name: str = "n") -> int:
    """``value`` as a plain int. Bools and non-integers (floats, strings)
    raise :class:`DomainError`, so no float reaches an exact result."""
    if type(value) is int:
        return value
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise DomainError(f"{name} must be an integer, got {value!r}")


def as_factorization(n: int | Factorization) -> Factorization:
    """Accept either an integer or an existing Factorization."""
    if isinstance(n, Factorization):
        return n
    return factorize(as_int(n))


@lru_cache(maxsize=1 << 18)
def divisor_tuple(n: int) -> tuple[int, ...]:
    """All positive divisors of n, ascending, as a shared immutable tuple."""
    fac = factorize(n)
    divs = [1]
    for p, s in fac.factors:
        powers = [p**e for e in range(1, s + 1)]
        divs += [d * q for d in divs for q in powers]
    divs.sort()
    return tuple(divs)


def divisors(n: int | Factorization) -> list[int]:
    """All positive divisors of n in ascending order."""
    return list(divisor_tuple(int(n)))


@lru_cache(maxsize=1 << 18)
def moebius(n: int | Factorization) -> int:
    """Moebius function: 0 unless n is squarefree, else (-1)^(#prime factors)."""
    fac = as_factorization(n)
    if any(s > 1 for _, s in fac.factors):
        return 0
    return -1 if len(fac.factors) % 2 else 1


@lru_cache(maxsize=1 << 18)
def totient(n: int | Factorization) -> int:
    """Euler totient via the prime-power product; totient(1) = 1."""
    fac = as_factorization(n)
    result = 1
    for p, s in fac.factors:
        result *= p**s - p ** (s - 1)
    return result


def jordan(k: int, n: int | Factorization) -> int:
    """Jordan totient J_k(n) = prod(p^(k*s) - p^(k*(s-1))); jordan(1, n) == totient(n)."""
    if k < 1:
        raise DomainError("jordan requires k >= 1")
    fac = as_factorization(n)
    result = 1
    for p, s in fac.factors:
        result *= p ** (k * s) - p ** (k * (s - 1))
    return result
