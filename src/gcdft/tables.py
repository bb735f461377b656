"""Table construction and rendering for transform values over all orders.

A table row maps an order index to gcd(index, n) and the exact transform
value, plus a per-prime-factor display string. The transform depends on the
order only through that gcd, so a table is built from one evaluation per gcd
class (one per divisor of n): the rows of a class share its value and form,
and compressed tables emit one row per class. Rendering formats each class
once and each row only its index.
"""

from __future__ import annotations

import io
import json
from csv import reader as csv_reader
from fractions import Fraction
from math import gcd, prod
from operator import itemgetter
from typing import NamedTuple

from .errors import DomainError
from .functions import ArithmeticFunction, get_function
from .numtheory import Factorization, _class_exponents, as_factorization, divisors
from .ramanujan import DEFINITION_SCALE_LIMIT
from .transform import dft_dispatch

_PRIME_LETTERS = "pqwxyz"


class TableRow(NamedTuple):
    index: int
    gcd_value: int
    transform_value: int | Fraction
    symbolic_form: str


def format_exact(value: int | Fraction) -> str:
    """Decimal string for integers, "num/den" for proper rationals."""
    if type(value) is int:
        return str(value)
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
    A table, full or compressed, has at most DEFINITION_SCALE_LIMIT rows.

    Each class g | n is evaluated once. For f other than id its form joins
    the per-prime values h_{p^t}(p^s), t = v_p(g), each computed once."""
    fac = as_factorization(n)
    # a compressed table has a row per divisor, counted before any is listed
    rows = prod(s + 1 for _, s in fac.factors) if compress else fac.value
    if rows > DEFINITION_SCALE_LIMIT:
        kind = "compressed" if compress else "full"
        hint = "" if compress else "; a compressed one (--compress) has a row per gcd class"
        raise DomainError(
            f"a {kind} table of n = {fac.value} has {rows} rows, above"
            f" {DEFINITION_SCALE_LIMIT}{hint}"
        )
    symbolic = f is get_function("id")  # the catalog object, which tracers leave in place
    local: dict[tuple[int, int], str] = {}
    if not symbolic:  # h_{p^t}(p^s) for every t <= s, each prime checked once
        for p, s in fac.factors:
            prime_power = Factorization(p**s, ((p, s),))
            for t in range(s + 1):
                local[p, t] = format_exact(dft_dispatch(f, prime_power, p**t).value)
    classes = {}
    for g in divisors(n):  # an int n reads the per-n divisor cache
        exponents = _class_exponents(fac, g)
        pieces = (local[p, t] for (p, _), t in zip(fac.factors, exponents))
        form = _symbolic_gcd_form(fac, exponents) if symbolic else "*".join(pieces) or "1"
        classes[g] = (g, dft_dispatch(f, fac, g).value, form)
    make, value = TableRow._make, fac.value
    indices = classes if compress else range(1, value + 1)
    return [make((i, *classes[gcd(i, value)])) for i in indices]


TABLE_FIELDS = ("index", "gcd", "value", "form")
_CLASS = itemgetter(1, 2, 3)  # the (gcd, value, form) a row shares with its class


def render_table(rows: list[TableRow], fmt: str = "text") -> str:
    """Rows as text, csv or json. Each distinct (gcd, value, form) is
    formatted once, keyed by equality (equal int and Fraction values format
    alike), and each row formats only its index."""
    cells = dict.fromkeys(map(_CLASS, rows))
    for g, value, form in cells:
        cells[g, value, form] = (str(g), format_exact(value), form)
    if fmt == "text":
        indices = [str(r.index) for r in rows]
        columns = [indices, *zip(*cells.values())] if rows else [()] * 4
        widths = [max([len(h), *map(len, c)]) for h, c in zip(TABLE_FIELDS, columns)]
        tails = {k: "  ".join(map(str.ljust, c, widths[1:])) for k, c in cells.items()}
        lines = ["  ".join(map(str.ljust, TABLE_FIELDS, widths))]
        lines += [f"{i.ljust(widths[0])}  {tails[r[1:]]}" for i, r in zip(indices, rows)]
        return "\n".join(lines)
    if fmt == "csv":
        tails = {k: ",".join(c) for k, c in cells.items()}
        lines = [",".join(TABLE_FIELDS)]
        lines += [f"{r.index},{tails[r[1:]]}" for r in rows]
        return "\n".join(lines)
    if fmt == "json":
        records = [(r.index, r.gcd_value, cells[r[1:]][1], r.symbolic_form) for r in rows]
        return json.dumps([dict(zip(TABLE_FIELDS, rec)) for rec in records], indent=2)
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
