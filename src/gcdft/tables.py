"""Table construction and rendering for transform values over all orders.

A table row maps an order index to gcd(index, n), the exact transform value
and a form: the value's per-prime factors (totient forms for f = id), or the
value itself for a general f, whose transform does not factor. The transform
depends on the order only through that gcd, so a :class:`Table` keeps one
(gcd, value, form) cell per gcd class, one per divisor of n, and, per row,
its index and the position of its class. A class sieve places every order in
its class with no gcd per row, and a :class:`TableRow` is built only when one
is asked for. Rendering formats each class once and each row only its index.
"""

from __future__ import annotations

import io
import json
from collections.abc import Iterator, Sequence
from csv import reader as csv_reader
from fractions import Fraction
from itertools import product
from math import prod
from operator import eq
from typing import NamedTuple

from . import transform
from .errors import DomainError
from .functions import ArithmeticFunction, as_exact, get_function
from .numtheory import Factorization, _lattice_terms, as_factorization
from .ramanujan import DEFINITION_SCALE_LIMIT

_PRIME_LETTERS = "pqwxyz"


class TableRow(NamedTuple):
    index: int
    gcd_value: int
    transform_value: int | Fraction
    symbolic_form: str


class Table(Sequence):
    """The rows of a table, held as its gcd classes: ``cells`` has one
    (gcd, value, form) per class, ``indices`` the row indices and
    ``positions`` the position in ``cells`` of each row's class. A row is
    built only when asked for; a table equals any sequence of equal rows."""

    __slots__ = ("cells", "indices", "positions")
    __hash__ = None

    def __init__(self, cells: Sequence, indices: Sequence[int], positions: Sequence[int]):
        self.cells, self.indices, self.positions = cells, indices, positions

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        return TableRow(self.indices[i], *self.cells[self.positions[i]])

    def __iter__(self):
        cells = self.cells
        return (TableRow(i, *cells[p]) for i, p in zip(self.indices, self.positions))

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))


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


def _gcd_piece(i: int, s: int, t: int) -> str:
    """The factor of p^s || n, p the i-th prime of n, in totient form for
    f = id at an order of class t = v_p(gcd(m, n)) <= s, e.g. "(2q-1)" for
    s = 1, t = 1 or "[4phi(p^3)+p^2]" for s = t = 3."""
    letter = _PRIME_LETTERS[i] if i < len(_PRIME_LETTERS) else f"p{i + 1}"
    if s == 1:
        return f"(2{letter}-1)" if t else f"({letter}-1)"
    base = f"phi({letter}^{s})"
    if t == s:
        tail = letter if s == 2 else f"{letter}^{s - 1}"
        return f"[{t + 1}{base}+{tail}]"
    return f"{t + 1}{base}" if t else base


def _symbolic_gcd_form(fac: Factorization, exponents: tuple[int, ...]) -> str:
    """The form of f = id at the gcd class ``exponents``, its :func:`_gcd_piece`
    per prime joined: "(2p-1)(q-1)" for n = pq at an order divisible by p only."""
    pieces = (_gcd_piece(i, s, t) for i, ((_, s), t) in enumerate(zip(fac.factors, exponents)))
    return "".join(pieces) or "1"


def build_table(
    f: ArithmeticFunction, n: int | Factorization, *, compress: bool = False
) -> Table:
    """The transform at every order 1..n, or one representative row per gcd
    class when compressed (the divisor itself represents its class), as a
    :class:`Table` of one cell per class, at most DEFINITION_SCALE_LIMIT rows.

    For a multiplicative f each h_{p^t}(p^s), p^s || n and t <= s, is read
    once from the per-prime kernel :func:`transform._local_factor`;
    :func:`numtheory._lattice_terms` multiplies one per prime into each class
    g and its value, and the form joins the same pieces (or :func:`_gcd_piece`
    for f = id). A general f's class g is one exact convolution, and its form
    is its value. A sieve sets every multiple of each divisor d, ascending,
    to d's class, so the order k ends in the class of gcd(k, n)."""
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
    if not f.is_multiplicative:  # its transform does not factor
        values = ((g, transform.dft_exact_convolution(f, fac, g)) for _, g in _lattice_terms(fac))
        cells = sorted((g, v, format_exact(v)) for g, v in values)
    else:
        symbolic = f is get_function("id")  # the catalog object, which tracers leave in place
        choices, pieces = [], []
        for i, (p, s) in enumerate(fac.factors):
            local = [(t, transform._local_factor(f, p, s, t)) for t in range(s + 1)]
            choices.append([(v, t) for t, v in local])
            pieces.append([_gcd_piece(i, s, t) if symbolic else format_exact(v) for t, v in local])
        join = "".join if symbolic else "*".join
        cells = sorted(  # by class: the classes g are distinct
            (g, as_exact(v), join(form) or "1")
            for (v, g), form in zip(_lattice_terms(fac, choices), product(*pieces))
        )
    classes = [g for g, _, _ in cells]
    if compress:
        return Table(tuple(cells), tuple(classes), range(len(classes)))
    value = fac.value
    positions = [0] * value
    for j, d in enumerate(classes):
        positions[d - 1 :: d] = [j] * (value // d)
    return Table(tuple(cells), range(1, value + 1), tuple(positions))


TABLE_FIELDS = ("index", "gcd", "value", "form")
# Rows per rendered block: a block's lines are held at once, the table's are not.
_BLOCK_ROWS = 1 << 14


def render_table(rows: Sequence[TableRow], fmt: str = "text") -> str:
    """Rows as text, csv or json: the blocks of :func:`render_blocks`,
    joined by newlines."""
    return "\n".join(render_blocks(rows, fmt))


def render_blocks(rows: Sequence[TableRow], fmt: str = "text") -> Iterator[str]:
    """The render of :func:`render_table` in blocks of whole lines, each of at
    most _BLOCK_ROWS rows (the first one holds the header), so a large table
    can be written block by block. Rendered from (row indices, class position
    per row, cells per class): a :class:`Table` hands these over; other rows
    are grouped once by equal (gcd, value, form), so equal int and Fraction
    values format alike. Each class is formatted once and each row only its
    index, and no row object is built."""
    if fmt not in ("text", "csv", "json"):
        raise DomainError(f"unknown table format {fmt!r}")
    if isinstance(rows, Table):
        indices, positions, cells = rows.indices, rows.positions, rows.cells
    else:
        classes: dict[tuple, int] = {}
        positions = [classes.setdefault(r[1:], len(classes)) for r in rows]
        indices, cells = [r.index for r in rows], list(classes)
    shown = [(str(g), format_exact(value), form) for g, value, form in cells]
    count = len(indices)
    if fmt == "text":
        width = max(len(TABLE_FIELDS[0]), max(map(len, map(str, indices)), default=0))
        columns = list(zip(*shown)) if count else [()] * 3
        widths = [width] + [max([len(h), *map(len, c)]) for h, c in zip(TABLE_FIELDS[1:], columns)]
        tails = ["  ".join(map(str.ljust, c, widths[1:])) for c in shown]
        head = "  ".join(map(str.ljust, TABLE_FIELDS, widths))

        def body(block, places, last):
            return [f"{str(i).ljust(width)}  {tails[p]}" for i, p in zip(block, places)]

    elif fmt == "csv":
        tails = [",".join(c) for c in shown]
        head = ",".join(TABLE_FIELDS)

        def body(block, places, last):
            return [f"{i},{tails[p]}" for i, p in zip(block, places)]

    else:  # the text of json.dumps(records, indent=2), a record per row
        tails = [
            f',\n    "gcd": {g},\n    "value": {json.dumps(v)},\n    "form": {json.dumps(form)}'
            "\n  }"
            for g, v, form in shown
        ]
        head = "[" if count else "[]"

        def body(block, places, last):
            records = [f'  {{\n    "index": {i}{tails[p]}' for i, p in zip(block, places)]
            return [",\n".join(records) + ("\n]" if last else ",")]

    lines = [head]
    for k in range(0, count, _BLOCK_ROWS):
        end = k + _BLOCK_ROWS
        lines += body(indices[k:end], positions[k:end], end >= count)
        yield "\n".join(lines)
        lines = []
    if not count:  # the header alone
        yield head


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
