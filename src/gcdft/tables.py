"""Table construction and rendering for transform values over all orders.

A table row maps an order index to gcd(index, n) and the exact transform
value, plus a per-prime-factor display string. The transform depends on the
order only through that gcd, so a table is built from one evaluation per gcd
class (one per divisor of n); compressed tables emit one row per class.
"""

from __future__ import annotations

import io
import json
import math
from csv import reader as csv_reader
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .functions import ID, ArithmeticFunction
from .numtheory import Factorization, as_factorization, divisors
from .transform import _class_exponents, dft_dispatch

_PRIME_LETTERS = "pqwxyz"


@dataclass(frozen=True)
class TableRow:
    index: int
    gcd_value: int
    transform_value: int | Fraction
    symbolic_form: str


def format_exact(value: int | Fraction) -> str:
    """Decimal string for integers, "num/den" for proper rationals."""
    if isinstance(value, Fraction) and value.denominator != 1:
        return f"{value.numerator}/{value.denominator}"
    return str(int(value))


def parse_exact(text: str) -> int | Fraction:
    if "/" in text:
        num, den = text.split("/")
        return Fraction(int(num), int(den))
    return int(text)


def _prime_letter(i: int) -> str:
    if i < len(_PRIME_LETTERS):
        return _PRIME_LETTERS[i]
    return f"p{i + 1}"


def _symbolic_gcd_form(fac: Factorization, exponents: tuple[int, ...]) -> str:
    """Per-prime-factor display in totient form for f = id, e.g. "(2p-1)(q-1)"
    for n = pq at an order divisible by p only; ``exponents`` is the gcd
    class, t = v_p(gcd(m, n)) <= s for each p^s || n."""
    pieces = []
    for i, ((_, s), t) in enumerate(zip(fac.factors, exponents)):
        letter = _prime_letter(i)
        if s == 1:
            pieces.append(f"(2{letter}-1)" if t >= 1 else f"({letter}-1)")
            continue
        count = t + 1
        base = f"phi({letter}^{s})"
        if t == s:
            tail = letter if s == 2 else f"{letter}^{s - 1}"
            pieces.append(f"[{count}{base}+{tail}]")
        elif count == 1:
            pieces.append(base)
        else:
            pieces.append(f"{count}{base}")
    return "".join(pieces) or "1"


def build_table(
    f: ArithmeticFunction, n: int | Factorization, *, compress: bool = False
) -> list[TableRow]:
    """Rows of the transform at every order 1..n, or one representative row
    per gcd class when compressed (the divisor itself represents its class).

    Each class g | n is evaluated once. For f other than id its form joins
    the per-prime values h_{p^t}(p^s), t = v_p(g), each computed once."""
    fac = as_factorization(n)
    local: dict[tuple[int, int], str] = {}
    classes = {}
    for g in divisors(fac):
        exponents = _class_exponents(fac, g)
        if f is ID:
            form = _symbolic_gcd_form(fac, exponents)
        else:
            for (p, s), t in zip(fac.factors, exponents):
                if (p, t) not in local:
                    local[p, t] = format_exact(dft_dispatch(f, as_factorization(p**s), p**t).value)
            form = "*".join(local[p, t] for (p, _), t in zip(fac.factors, exponents)) or "1"
        classes[g] = (dft_dispatch(f, fac, g).value, form)
    indices = classes if compress else range(1, fac.value + 1)
    return [TableRow(i, g := math.gcd(i, fac.value), *classes[g]) for i in indices]


TABLE_FIELDS = ("index", "gcd", "value", "form")


def render_table(rows: list[TableRow], fmt: str = "text") -> str:
    if fmt == "text":
        cells = [
            (str(r.index), str(r.gcd_value), format_exact(r.transform_value), r.symbolic_form)
            for r in rows
        ]
        widths = [
            max(len(h), *(len(c[i]) for c in cells)) if cells else len(h)
            for i, h in enumerate(TABLE_FIELDS)
        ]
        lines = ["  ".join(h.ljust(w) for h, w in zip(TABLE_FIELDS, widths))]
        lines += ["  ".join(c.ljust(w) for c, w in zip(cell, widths)) for cell in cells]
        return "\n".join(lines)
    if fmt == "csv":
        lines = [",".join(TABLE_FIELDS)]
        lines += [
            f"{r.index},{r.gcd_value},{format_exact(r.transform_value)},{r.symbolic_form}"
            for r in rows
        ]
        return "\n".join(lines)
    if fmt == "json":
        return json.dumps(
            [
                {
                    "index": r.index,
                    "gcd": r.gcd_value,
                    "value": format_exact(r.transform_value),
                    "form": r.symbolic_form,
                }
                for r in rows
            ],
            indent=2,
        )
    raise DomainError(f"unknown table format {fmt!r}")


def parse_table(text: str, fmt: str) -> list[TableRow]:
    """Inverse of :func:`render_table` for the csv and json formats."""
    if fmt == "csv":
        records = list(csv_reader(io.StringIO(text)))
        if records and records[0] == list(TABLE_FIELDS):
            records = records[1:]
        return [
            TableRow(int(idx), int(g), parse_exact(value), form)
            for idx, g, value, form in records
        ]
    if fmt == "json":
        return [
            TableRow(r["index"], r["gcd"], parse_exact(r["value"]), r["form"])
            for r in json.loads(text)
        ]
    raise DomainError(f"cannot parse table format {fmt!r}")
