"""Exact integer primitives: gcd, primality, factorization, the divisor
lattice walk of plain products of one weight per prime, listed once per n by the cached
:func:`divisor_tuple` (keyed by an int or a ``Factorization``), and the
classical multiplicative functions built on prime-power factorizations. All of
it is exact on arbitrary-precision Python ints: nothing overflows or rounds.
"""

from __future__ import annotations

import bisect
import math
import operator
import random
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError, FactorizationBudgetError, OracleScaleError

# The most terms a divisor walk, a table or an oracle sum is rated for.
DEFINITION_SCALE_LIMIT = 10**6

_TRIAL_DIVISION_BOUND = 10_000
# The least composite with no prime factor below _TRIAL_DIVISION_BOUND is
# 10007^2, so a cofactor below it that trial division left is prime (below
# 8192^2 trial division may stop at a smaller q, but then n < q^2).
_TRIAL_PROVEN = 10_007**2

# (psi_t, t): psi_t is the least strong pseudoprime to all of the first t
# prime bases, so Miller-Rabin on those t bases is exact below psi_t (Jaeschke
# 1993; Sorenson and Webster, Math. Comp. 2017). psi_8 = psi_7 and
# psi_10 = psi_11 = psi_9, so those t are skipped.
_MR_TIERS = (
    (2_047, 1),
    (1_373_653, 2),
    (25_326_001, 3),
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
    (318_665_857_834_031_151_167_461, 12),
    (3_317_044_064_679_887_385_961_981, 13),
)
_MR_BOUNDS = tuple(bound for bound, _ in _MR_TIERS)
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_DETERMINISTIC_LIMIT = _MR_BOUNDS[-1]

# Polynomial steps Pollard rho may take on one cofactor below 2^128, over all
# restarts: 12 sqrt(p) for a prime factor p just below 2^40. Brent's rho,
# charged as below, took at most 9.7 sqrt(p) steps on 20000 seeded 28-bit p.
# A step on a larger cofactor costs _step_units of them, so the budget bounds
# work, not steps. Pollard p-1 draws on the same budget before rho.
_RHO_BUDGET = 12 << 20

# Pollard p-1's bounds. On the cofactors that reach rho in a seeded
# point-workload list, p-1 then rho took less CPU time at B1 = 500 and 1000
# than at 300 or with rho alone, and 500 takes fewer multiplications where p-1
# fails; with B1 = 500, B2 = 2 * 10^4 was fastest or within noise of the
# fastest of 10^4, 2 * 10^4, 3 * 10^4 and 5 * 10^4.
_PM1_B1 = 500
_PM1_B2 = 20_000
# Stage 2's giant step: each prime of (B1, B2] is k w +- j for an odd j < w/2
# coprime to w = 2 * 3 * 5 * 7.
_PM1_W = 210


def _small_primes(bound: int = _TRIAL_DIVISION_BOUND) -> tuple[int, ...]:
    sieve = bytearray(b"\x01") * (bound + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = b"\x00" * len(sieve[p * p :: p])
    return tuple(i for i, flag in enumerate(sieve) if flag)


SMALL_PRIMES = _small_primes()
_SMALL_PRIME_SET = frozenset(SMALL_PRIMES)
# Trial division by one gcd with the product of the primes below q, for the
# least q here with n < q^2, else of all of SMALL_PRIMES: a shorter product is
# cheaper to gcd, and n < q^2 needs no prime from q up.
_PRIMORIAL_Q = tuple(1 << k for k in range(5, 14))
_PRIMORIAL_SQUARES = tuple(q * q for q in _PRIMORIAL_Q)
_PRIMORIALS = tuple(
    math.prod(p for p in SMALL_PRIMES if p < q)
    for q in _PRIMORIAL_Q + (_TRIAL_DIVISION_BOUND,)
)


def _largest_power(p: int, bound: int) -> int:
    """The largest power of p that is at most bound >= p."""
    q = p
    while q * p <= bound:
        q *= p
    return q


# Pollard p-1's stage 1 raises 2 to the largest power <= B1 of each prime
# <= B1, first all at once, then one power at a time where that catches every
# prime of n.
_PM1_POWERS = tuple(_largest_power(p, _PM1_B1) for p in SMALL_PRIMES if p <= _PM1_B1)
_PM1_EXPONENT = math.prod(_PM1_POWERS)


def _pm1_plan() -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Stage 2's blocks (k, js), k ascending: the odd j < w/2 coprime to w
    for which k w + j or k w - j is a prime of (B1, B2]."""
    primes = frozenset(p for p in _small_primes(_PM1_B2) if p > _PM1_B1)
    baby = [j for j in range(1, _PM1_W // 2, 2) if math.gcd(j, _PM1_W) == 1]
    plan = []
    for k in range(1, _PM1_B2 // _PM1_W + 2):
        js = tuple(j for j in baby if k * _PM1_W + j in primes or k * _PM1_W - j in primes)
        if js:
            plan.append((k, js))
    return tuple(plan)


_PM1_PLAN = _pm1_plan()
# One p-1 run, charged as rho steps: a multiplication mod n per bit of each
# exponent and per other product. One run takes the replay or stage 2, not
# both, so this bounds it with room to spare.
_PM1_STEPS = (
    _PM1_EXPONENT.bit_length()  # stage 1
    + sum(q.bit_length() for q in _PM1_POWERS)  # its replay
    + 1  # the inverse of x, as one
    + 1 + _PM1_W // 4 + 1  # V_2; V_3, V_5, ..., V_(w/2); V_w
    + _PM1_PLAN[-1][0] - 1  # V_2w, V_3w, ... to the last block
    + sum(len(js) for _, js in _PM1_PLAN)  # one per pair
)


def gcd(a: int, b: int) -> int:
    """Greatest common divisor of two nonnegative integers; gcd(a, 0) = a."""
    a, b = as_int(a, "a"), as_int(b, "b")
    if a < 0 or b < 0:
        raise DomainError("gcd arguments must be nonnegative")
    if a == 0 and b == 0:
        raise DomainError("gcd(0, 0) is undefined")
    return math.gcd(a, b)


def _mr_bases(n: int) -> tuple[int, ...]:
    """The Miller-Rabin bases for n: the first t primes of the tier n falls
    in, and from ``_MR_DETERMINISTIC_LIMIT`` up all 13 of them."""
    tier = bisect.bisect_right(_MR_BOUNDS, n)
    if tier < len(_MR_TIERS):
        return _MR_WITNESSES[: _MR_TIERS[tier][1]]
    return _MR_WITNESSES


def _strong_probable_prime(n: int, bases: tuple[int, ...]) -> bool:
    """True when odd n > 2 passes the strong Fermat test to every base."""
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for a in bases:
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


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """The strong Lucas test of odd n > 2 that is not a perfect square, with
    Selfridge's method-A parameters: D the first of 5, -7, 9, -11, ... with
    (D/n) = -1, P = 1 and Q = (1 - D) / 4 (Baillie and Wagstaff, Math. Comp.
    1980). With n + 1 = d 2^r and d odd, n passes when U_d = 0 mod n or
    V_(d 2^i) = 0 mod n for some 0 <= i < r."""
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else 2 - D
    Q = (1 - D) // 4
    d = n + 1
    r = (d & -d).bit_length() - 1
    d >>= r
    # U_k, V_k and Q^k mod n from k = 1, doubling k and adding 1 bit by bit
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = U + V, D * U + V
            U = (U + n if U & 1 else U) // 2 % n
            V = (V + n if V & 1 else V) // 2 % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(r - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Primality of n, exact below ~3.3e24.

    Miller-Rabin on the first t prime bases, with t the least tier of
    ``_MR_TIERS`` whose bound psi_t exceeds n: psi_t is the least strong
    pseudoprime to those t bases (2047 -> 1 base, 1373653 -> 2, ...,
    psi_12 = 318665857834031151167461 -> 12, psi_13 = 3317044064679887385961981
    -> 13; Sorenson and Webster, Math. Comp. 2017). From psi_13 up a perfect
    square is composite, and otherwise n must pass the 13 bases and the strong
    Lucas test: with base 2 among the 13, that is the Baillie-PSW test, to
    which no pseudoprime is known, and a True means probable prime.
    """
    n = as_int(n)
    if n < 2:
        return False
    if n <= _TRIAL_DIVISION_BOUND:
        return n in _SMALL_PRIME_SET
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        if n % p == 0:
            return False
    if not _strong_probable_prime(n, _mr_bases(n)):
        return False
    return n < _MR_DETERMINISTIC_LIMIT or (
        math.isqrt(n) ** 2 != n and _strong_lucas_probable_prime(n)
    )


def _step_units(n: int) -> int:
    """The charge against ``_RHO_BUDGET`` of one multiplication mod n:
    ceil(bits(n) / 128)^2, one below 2^128, as schoolbook multiplication and
    division grow with the square of the size."""
    return (-(-n.bit_length() // 128)) ** 2


def _pollard_pm1(n: int) -> int | None:
    """Pollard's p-1 with base 2: a nontrivial factor of composite odd n, or
    None. It finds one where a prime p of n has p - 1 dividing E q, with E
    the product of the largest powers <= B1 of the primes <= B1 and q = 1 or
    a prime of (B1, B2], unless the one prime power or pair below that
    catches p catches every prime of n. It takes at most ``_PM1_STEPS``
    multiplications mod n.

    Stage 1 is x = 2^E. Where gcd(x - 1, n) = n it has caught every prime of
    n at once, and it is replayed one prime power at a time, with a gcd after
    each. Stage 2 pairs the primes of (B1, B2] as k w +- j (Montgomery, Math.
    Comp. 1987): with V_i = x^i + x^-i, V_kw - V_j = x^-kw (x^(kw+j) - 1)
    (x^(kw-j) - 1), so one multiplication by it covers kw + j and kw - j. It
    takes a gcd after each block of one k and rescans a block whose gcd is n
    pair by pair."""
    x = pow(2, _PM1_EXPONENT, n)
    g = math.gcd(x - 1, n)
    if g == n:
        y = 2
        for q in _PM1_POWERS:
            y = pow(y, q, n)
            if (g := math.gcd(y - 1, n)) > 1:
                break
    if g > 1:
        return g if g < n else None
    # x is a power of 2 and n is odd, so x has an inverse mod n
    v = before = x + pow(x, -1, n)  # V_1, and V_-1 = V_1
    v2 = (v * v - 2) % n
    baby = [0] * (_PM1_W // 2 + 1)
    baby[1] = v
    for j in range(3, _PM1_W // 2 + 1, 2):  # V_(j+2) = V_j V_2 - V_(j-2)
        before, v = v, (v * v2 - before) % n
        baby[j] = v
    vw = (v * v - 2) % n  # V_w = V_(w/2)^2 - 2
    before, giant, k = 2, vw, 1  # V_0, V_w
    acc = 1
    for block, js in _PM1_PLAN:
        while k < block:  # V_((k+1)w) = V_kw V_w - V_((k-1)w)
            before, giant, k = giant, (giant * vw - before) % n, k + 1
        for j in js:
            acc = acc * (giant - baby[j]) % n
        if (g := math.gcd(acc, n)) > 1:
            if g == n:
                g = next((d for j in js if 1 < (d := math.gcd(giant - baby[j], n)) < n), n)
            return g if g < n else None
    return None


def _split(n: int) -> int:
    """A nontrivial factor of composite odd n that is not a perfect power:
    Pollard p-1, then Pollard rho where p-1 finds none. p-1 fails where no
    prime p of n has a p - 1 that :func:`_pollard_pm1` catches, or where the
    one prime power of stage 1, or the one pair of stage 2, that catches p
    catches every prime of n. Both draw on one
    budget of ``_RHO_BUDGET`` units, a multiplication mod n costing
    :func:`_step_units` of n; p-1 runs only where its ``_PM1_STEPS`` fit, and
    rho gets what is left."""
    budget = _RHO_BUDGET // _step_units(n)  # in multiplications mod n
    if _PM1_STEPS <= budget:
        budget -= _PM1_STEPS
        if d := _pollard_pm1(n):
            return d
    return _pollard_rho(n, budget)


def _pollard_rho(n: int, budget: int) -> int:
    """Brent-cycle Pollard rho; returns a nontrivial factor of composite odd n.

    Each polynomial step is charged to ``budget``, in steps of n's size and
    summed over restarts, before it is taken: the r steps that move x ahead in
    one go, the steps compared against x batch by batch. :func:`_split` sizes
    the budget by :func:`_step_units` of n, so it bounds the work and not only
    the steps. :class:`FactorizationBudgetError` is raised when the next charge
    does not fit."""
    rng = random.Random(n)
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = q = r = 1
        x = ys = y
        while g == 1:
            # the steps ahead can only pay off with a batch after them
            if budget < r + min(m, r):
                raise _rho_exhausted(n)
            budget -= r
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                batch = min(m, r - k)
                if budget < batch:
                    raise _rho_exhausted(n)
                budget -= batch
                ys = y
                for _ in range(batch):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


def _rho_exhausted(n: int) -> FactorizationBudgetError:
    return FactorizationBudgetError(
        f"Pollard rho found no factor of {n} within {_RHO_BUDGET} steps"
    )


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
        factors = tuple((as_int(p, "prime"), as_int(s, "multiplicity")) for p, s in self.factors)
        object.__setattr__(self, "value", as_int(self.value, "Factorization value"))
        object.__setattr__(self, "factors", factors)
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

    @classmethod
    def _proven(
        cls, value: int, factors: tuple[tuple[int, int], ...]
    ) -> Factorization:
        """An instance built without the checks of ``__post_init__``, for
        factors that :func:`factorize` has just proven."""
        fac = object.__new__(cls)
        object.__setattr__(fac, "value", value)
        object.__setattr__(fac, "factors", factors)
        return fac

    def __hash__(self) -> int:
        return hash(self.value)  # the value fixes the factors

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


def _divide_out(n: int, p: int) -> tuple[int, int]:
    """(n / p^s, s) for the largest s with p^s | n."""
    s = 0
    while n % p == 0:
        n //= p
        s += 1
    return n, s


@lru_cache(maxsize=1 << 18, typed=True)
def factorize(n: int) -> Factorization:
    """Canonical prime factorization of n >= 1; each prime is proven once.

    Trial division only by the primes of one gcd: of n with the product of
    the primes below 10^4, or for n < q^2 (q = 32, 64, ..., 8192) of the
    primes below q. A cofactor below 10007^2 left by trial division is prime,
    with no Miller-Rabin: its prime factors are at least 10007, or at least q
    with the cofactor below q^2. A larger one goes to :func:`is_prime`; if
    composite it gets an exact perfect-power root, else Pollard p-1 (B1 =
    500, a paired stage 2 to B2 = 2 * 10^4, and a replay or rescan where one
    gcd catches every prime), and Pollard rho where p-1 finds no factor; each
    part again goes to :func:`is_prime` unless below 10007^2. Pollard rho
    raises :class:`FactorizationBudgetError` on a cofactor it cannot split
    within ``_RHO_BUDGET`` steps, shared with p-1 and charged by the
    cofactor's size. A float or a bool raises :class:`DomainError`, also where
    an equal numpy int is cached: the cache is keyed by type.
    """
    n = as_int(n)
    if n < 1:
        raise DomainError("factorize requires n >= 1")
    value = n
    factors: list[tuple[int, int]] = []
    # g is squarefree, so what is left of it once p * p > g is prime
    g = math.gcd(n, _PRIMORIALS[bisect.bisect_right(_PRIMORIAL_SQUARES, n)])
    for p in SMALL_PRIMES:
        if p * p > g:
            break
        if g % p == 0:
            g //= p
            n, s = _divide_out(n, p)
            factors.append((p, s))
    if g > 1:
        n, s = _divide_out(n, g)
        factors.append((g, s))
    if n < _TRIAL_PROVEN:
        if n > 1:
            factors.append((n, 1))
        return Factorization._proven(value, tuple(factors))
    large: dict[int, int] = {}  # proven prime -> multiplicity
    pending = [(n, 1)]  # (cofactor free of trial primes, multiplicity)
    while pending:
        c, e = pending.pop()
        if c in large or c < _TRIAL_PROVEN or is_prime(c):
            large[c] = large.get(c, 0) + e
            continue
        r, k = _perfect_power(c)
        if k > 1:
            pending.append((r, e * k))
            continue
        d = _split(c)
        pending += [(d, e), (c // d, e)]
    return Factorization._proven(value, tuple(factors) + tuple(sorted(large.items())))


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
    return n if isinstance(n, Factorization) else factorize(n)


def _class_exponents(fac: Factorization, m: int) -> tuple[int, ...]:
    """The gcd class of the order m: for each p^s in ``fac.factors``, the
    multiplicity t <= s of p in g = gcd(m, n). As gcd(0, n) = n and
    gcd(-m, n) = gcd(m, n), every integer m falls in the class of its
    residue mod n."""
    g = math.gcd(as_int(m, "m"), fac.value)
    exponents = []
    for p, _ in fac.factors:
        g, t = _divide_out(g, p)
        exponents.append(t)
    return tuple(exponents)


def _lattice_terms(fac: Factorization, choices=None) -> list:
    """The products over the p^s || n of one weight per prime, chosen from its
    list in ``choices``, in product order (the last prime fastest). By default
    each prime chooses p^e, e = 0..s: the divisors of n, each at its position,
    d and n/d mirrored. A walk of more than DEFINITION_SCALE_LIMIT terms raises
    :class:`OracleScaleError` first."""
    if choices is None:
        choices = [[p**e for e in range(s + 1)] for p, s in fac.factors]
    if (count := math.prod(map(len, choices))) > DEFINITION_SCALE_LIMIT:
        raise OracleScaleError(
            f"a walk over {count} divisors of n = {fac.value} is above {DEFINITION_SCALE_LIMIT}"
        )
    terms = [1]  # the weights' products over the primes so far
    for local in choices:
        terms = [w * r for w in terms for r in local]
    return terms


@lru_cache(maxsize=1 << 18, typed=True)
def divisor_tuple(n: int | Factorization) -> tuple[int, ...]:
    """n's divisors in :func:`_lattice_terms`' order, every divisor of d before d: the one
    divisor walk, one tuple for an int n and its Factorization, which is never factored."""
    if isinstance(n, Factorization):
        return tuple(_lattice_terms(n))
    return divisor_tuple(factorize(n))


def divisors(n: int | Factorization) -> list[int]:
    """The divisors of n in ascending order: :func:`divisor_tuple`, sorted."""
    return sorted(divisor_tuple(n))


def moebius(n: int | Factorization) -> int:
    """Moebius function: 0 unless n is squarefree, else (-1)^(#prime factors)."""
    fac = as_factorization(n)
    if any(s > 1 for _, s in fac.factors):
        return 0
    return -1 if len(fac.factors) % 2 else 1


def totient(n: int | Factorization) -> int:
    """Euler totient, the Jordan totient J_1; totient(1) = 1."""
    return jordan(1, n)


def jordan(k: int, n: int | Factorization) -> int:
    """Jordan totient J_k(n) = prod(p^(k*s) - p^(k*(s-1)))."""
    k = as_int(k, "k")
    if k < 1:
        raise DomainError("jordan requires k >= 1")
    fac = as_factorization(n)
    result = 1
    for p, s in fac.factors:
        result *= p ** (k * s) - p ** (k * (s - 1))
    return result
