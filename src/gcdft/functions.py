"""Arithmetic functions as prime-power rules, with Dirichlet convolution,
sum functions and Moebius inversion, which read f at every divisor of n by
position from :func:`_divisor_values`: the products of one walk of a multiplicative
f's prime-power values, or a general f at :func:`numtheory.divisor_tuple`.

Values are exact: a plain ``int`` whenever a value is integral and a
``fractions.Fraction`` only when it is not. :func:`as_exact` puts every value
that enters the library (prime-power rule results, table entries) and every
sum or product returned here in that form, and rejects floats.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable, Mapping
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from numbers import Rational

from . import numtheory
from .errors import DomainError, UndefinedValueError
from .numtheory import Factorization, as_factorization, as_int

Exact = int | Fraction


def as_exact(value: object) -> Exact:
    """``value`` as an ``int`` when it is integral and a ``Fraction``
    otherwise. Anything that is not a rational number (floats included)
    raises :class:`DomainError`, so no float reaches an exact result."""
    if type(value) is int:
        return value
    if not isinstance(value, Rational):
        raise DomainError(f"exact values must be rational, got {value!r}")
    return int(value) if value.denominator == 1 else Fraction(value)


class Kind(Enum):
    MULTIPLICATIVE = "multiplicative"
    COMPLETELY_MULTIPLICATIVE = "completely-multiplicative"
    GENERAL = "general"


class ArithmeticFunction:
    """An arithmetic function defined by its values on prime powers.

    Both multiplicative kinds carry a ``(p, e) -> value`` rule; a completely
    multiplicative one is built from a ``p -> value`` rule as f(p^e) = f(p)^e.
    General functions carry a finite value table, keyed by integers >= 1.
    Each kind takes only the rule it reads; any other argument raises
    :class:`DomainError`. f(1) = 1 is implied for the two multiplicative
    kinds. Instances are immutable, and the rule runs on every prime-power
    call.
    """

    __slots__ = ("name", "kind", "_pp_rule", "_table", "integer_valued")

    def __init__(
        self,
        name: str,
        kind: Kind,
        *,
        prime_power_rule: Callable[[int, int], Exact] | None = None,
        direct_rule: Mapping[int, Exact] | None = None,
        integer_valued: bool = True,
    ):
        if not isinstance(name, str):
            raise DomainError(f"a function name must be a string, got {name!r}")
        if not isinstance(kind, Kind):
            raise DomainError(f"kind must be a Kind, got {kind!r}")
        table = None
        if kind is Kind.GENERAL:
            if prime_power_rule is not None or not isinstance(direct_rule, Mapping):
                raise DomainError("a general function takes a value table (a mapping) and no rule")
            table = {as_int(k, "a table key"): as_exact(v) for k, v in direct_rule.items()}
            if any(k < 1 for k in table):
                raise DomainError(f"table keys must be >= 1, got {min(table)}")
        elif prime_power_rule is None or direct_rule is not None:
            raise DomainError(f"a {kind.value} function takes a prime-power rule and no table")
        elif not callable(prime_power_rule):
            raise DomainError(f"a rule must be callable, got {prime_power_rule!r}")
        if type(integer_valued) is not bool:
            raise DomainError(f"integer_valued must be a bool, got {integer_valued!r}")
        self.name = name
        self.kind = kind
        self._pp_rule = prime_power_rule
        self._table = table
        self.integer_valued = integer_valued

    @classmethod
    def multiplicative(
        cls, name: str, rule: Callable[[int, int], Exact], *, integer_valued: bool = True
    ) -> "ArithmeticFunction":
        return cls(name, Kind.MULTIPLICATIVE, prime_power_rule=rule, integer_valued=integer_valued)

    @classmethod
    def completely_multiplicative(
        cls, name: str, rule: Callable[[int], Exact], *, integer_valued: bool = True
    ) -> "ArithmeticFunction":
        return cls(
            name,
            Kind.COMPLETELY_MULTIPLICATIVE,
            # a rule that is not callable reaches the constructor's check as given
            prime_power_rule=(lambda p, e: rule(p) ** e) if callable(rule) else rule,
            integer_valued=integer_valued,
        )

    @classmethod
    def from_table(
        cls, name: str, table: Mapping[int, Exact], *, integer_valued: bool = True
    ) -> "ArithmeticFunction":
        return cls(name, Kind.GENERAL, direct_rule=table, integer_valued=integer_valued)

    @property
    def is_multiplicative(self) -> bool:
        return self.kind is not Kind.GENERAL

    def prime_power(self, p: int, e: int) -> Exact:
        """f(p^e) for an integer p >= 2 and e >= 0; f(p^0) = 1 by convention.
        A bool, float or string p or e, or p < 2, raises :class:`DomainError`.
        p is not tested for primality."""
        if not (type(p) is int and type(e) is int):
            p, e = as_int(p, "p"), as_int(e, "e")
        if p < 2:
            raise DomainError(f"{self.name}(p^e): p must be at least 2, got {p}")
        if e < 0:
            raise DomainError(f"{self.name}(p^{e}): negative exponent")
        if e == 0:
            return 1
        if self._pp_rule is None:
            return self(p**e)
        return as_exact(self._pp_rule(p, e))

    def __call__(self, n: int | Factorization) -> Exact:
        return evaluate(self, n)

    def __repr__(self) -> str:
        return f"ArithmeticFunction({self.name!r}, {self.kind.value})"


def evaluate(f: ArithmeticFunction, n: int | Factorization) -> Exact:
    """f(n) at an integer n: the product of f's prime-power values, or a general f's entry."""
    if f.kind is Kind.GENERAL:
        value = n.value if isinstance(n, Factorization) else as_int(n)
        if value not in f._table:
            raise UndefinedValueError(f"{f.name} has no rule for {value}")
        return f._table[value]
    # a product of proper fractions can be integral
    return as_exact(math.prod(f.prime_power(p, s) for p, s in as_factorization(n).factors))


@lru_cache(maxsize=1 << 8)
def _divisor_values(f: ArithmeticFunction, fac: Factorization) -> tuple[Exact, ...]:
    """f(n/d) at the lattice position of each d | n, and so f(d) at the
    mirrored one: a general f's table read at :func:`numtheory.divisor_tuple`
    from the far end, or for a multiplicative f the walk of each p^s || n's
    values f(p^e), e = s down to 0, whose products are f(n/d) in the order
    of the d. Bounded, keyed on f by identity, and shared by every caller."""
    if f.kind is Kind.GENERAL:
        return tuple(evaluate(f, v) for v in reversed(numtheory.divisor_tuple(fac)))
    choices = [[f.prime_power(p, e) for e in range(s, -1, -1)] for p, s in fac.factors]
    return tuple(map(as_exact, numtheory._lattice_terms(fac, choices)))


def dirichlet_convolve(
    f: ArithmeticFunction, g: ArithmeticFunction, n: int | Factorization
) -> Exact:
    """(f * g)(n) = sum over divisors d of n of f(n/d) * g(d), exactly; g(d)
    is read from the far end of :func:`_divisor_values`."""
    fac = as_factorization(n)
    pairs = zip(_divisor_values(f, fac), reversed(_divisor_values(g, fac)))
    return as_exact(sum(a * b for a, b in pairs))


def sum_function(t: ArithmeticFunction, n: int | Factorization) -> Exact:
    """The sum function (1 * t)(n), i.e. the divisor sum of t."""
    return as_exact(sum(_divisor_values(t, as_factorization(n))))


def sum_function_product(t: ArithmeticFunction, n: int | Factorization) -> Exact:
    """Sum function of a multiplicative t as the per-prime product
    prod_i [1 + t(p_i) + ... + t(p_i^(s_i))], i.e. :func:`sum_function_of`
    at n; must agree with :func:`sum_function` whenever t is multiplicative.
    """
    if not t.is_multiplicative:
        raise DomainError("product form requires a multiplicative function")
    return evaluate(sum_function_of(t), n)


def sum_function_of(t: ArithmeticFunction) -> ArithmeticFunction:
    """The sum function of a multiplicative t as a multiplicative function."""
    if not t.is_multiplicative:
        raise DomainError("sum_function_of requires a multiplicative function")
    return ArithmeticFunction.multiplicative(
        f"S[{t.name}]",
        lambda p, e: sum(t.prime_power(p, j) for j in range(e + 1)),
        integer_valued=t.integer_valued,
    )


def moebius_invert(f: ArithmeticFunction, n: int | Factorization) -> Exact:
    """(f * mu)(n) for multiplicative f, via the prime-factor product
    prod_i [f(p_i^(s_i)) - f(p_i^(s_i - 1))]; the empty product at n = 1 is 1.

    Applied to a sum function S^t this recovers t.
    """
    if not f.is_multiplicative:
        raise DomainError("moebius_invert requires a multiplicative function")
    steps = (f.prime_power(p, s) - f.prime_power(p, s - 1) for p, s in as_factorization(n).factors)
    return as_exact(math.prod(steps))


# --- built-in catalog ------------------------------------------------------

ONE = ArithmeticFunction.completely_multiplicative("1", lambda p: 1)
ID = ArithmeticFunction.completely_multiplicative("id", lambda p: p)
PHI = ArithmeticFunction.multiplicative("phi", lambda p, e: p**e - p ** (e - 1))
MU = ArithmeticFunction.multiplicative("mu", lambda p, e: -1 if e == 1 else 0)
TAU = ArithmeticFunction.multiplicative("tau", lambda p, e: e + 1)
SIGMA = ArithmeticFunction.multiplicative(
    "sigma", lambda p, e: (p ** (e + 1) - 1) // (p - 1)
)
LIOUVILLE = ArithmeticFunction.completely_multiplicative("lambda", lambda p: -1)


def id_power(k: int) -> ArithmeticFunction:
    """id_k(n) = n^k; completely multiplicative. Negative k yields rationals."""
    k = as_int(k, "k")
    # the catalog's objects, which a tool that replaces ONE or ID leaves in place
    if k == 0:
        return _CATALOG["1"]
    if k == 1:
        return _CATALOG["id"]
    return ArithmeticFunction.completely_multiplicative(
        f"id_{k}",
        lambda p: p**k if k > 0 else Fraction(1, p**-k),
        integer_valued=k > 0,
    )


def jordan_function(k: int) -> ArithmeticFunction:
    """J_k as a multiplicative function; jordan_function(1) is phi."""
    k = as_int(k, "k")
    if k < 1:
        raise DomainError("jordan_function requires k >= 1")
    if k == 1:
        return _CATALOG["phi"]
    return ArithmeticFunction.multiplicative(
        f"J_{k}", lambda p, e: p ** (k * e) - p ** (k * (e - 1))
    )


_CATALOG: dict[str, ArithmeticFunction] = {
    "1": ONE,
    "one": ONE,
    "id": ID,
    "phi": PHI,
    "mu": MU,
    "tau": TAU,
    "sigma": SIGMA,
    "lambda": LIOUVILLE,
    "liouville": LIOUVILLE,
}

# [0-9], not \d, which matches every Unicode decimal digit
_ID_K = re.compile(r"id_(-?[0-9]+)")
_J_K = re.compile(r"J_([0-9]+)")


@lru_cache(maxsize=1 << 5)
def get_function(name: str) -> ArithmeticFunction:
    """Look up a catalog function by name; id_<k> and J_<k> take a parameter.
    Memoized: one name is one object, so its cached values and the kernel memo carry over."""
    if not isinstance(name, str):
        raise DomainError(f"a function name must be a string, got {name!r}")
    if name in _CATALOG:
        return _CATALOG[name]
    for pattern, family in ((_ID_K, id_power), (_J_K, jordan_function)):
        if m := pattern.fullmatch(name):
            try:
                k = int(m.group(1))
            except ValueError:  # more digits than int() converts
                digits = len(m.group(1).lstrip("-"))
                raise DomainError(f"a parameter of {digits} digits is too long") from None
            return family(k)
    raise UndefinedValueError(f"unknown arithmetic function {name!r}")


def catalog_names() -> list[str]:
    """Canonical names accepted by :func:`get_function` (parametrized families
    are shown with a sample parameter)."""
    return ["1", "id", "id_2", "id_3", "phi", "mu", "tau", "sigma", "lambda", "J_2", "J_3"]
