"""Table construction and rendering for transform values over all orders.

A table row maps an order index to gcd(index, n), the exact transform value
and a form: the value's per-prime factors (totient forms for f = id), or the
value itself for a general f, whose transform does not factor. The transform
depends on the order only through that gcd, so a :class:`Table` keeps one
(gcd, value, form) cell per gcd class, one per divisor of n, and, per row,
its index and the position of its class, one byte per row for a full table.
A class sieve places every order in its class with no gcd per row, and a
:class:`TableRow` is built only when one is asked for. Rendering formats each
class once, and a block is one join of its index strings and class texts
ending in the row separator, a first block's strings sliced from a shared list.
"""

from __future__ import annotations

import io
import json
import sys
from collections.abc import Iterator, Sequence
from csv import reader as csv_reader
from fractions import Fraction
from itertools import product, repeat
from math import log10, prod
from operator import eq, itemgetter
from typing import NamedTuple

from . import transform
from .errors import DomainError, OracleScaleError
from .functions import ArithmeticFunction, as_exact, get_function
from .numtheory import Factorization, as_factorization
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
    ``positions`` the position in ``cells`` of each row's class: a ``range``
    of indices and ``bytes`` of positions for a full table, the divisors and
    a ``range`` for a compressed one. A row is built only when asked for; a
    table equals any sequence of equal rows."""

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
    """Decimal string for integers, "num/den" for proper rationals. A value
    past the interpreter's int-to-str digit limit raises
    :class:`OracleScaleError`, naming its digit count."""
    try:
        if type(value) is int:
            return str(value)
        if isinstance(value, Fraction) and value.denominator != 1:
            return f"{value.numerator}/{value.denominator}"
        return str(int(value))
    except ValueError:  # only the digit limit: value is an exact rational
        size = max(abs(value.numerator), value.denominator)
        digits = int(size.bit_length() * log10(2))  # the count, or one short of it
        digits += size >= 10**digits
        raise OracleScaleError(
            f"the value has {digits} decimal digits; Python prints at most "
            f"{sys.get_int_max_str_digits()}"
        ) from None


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


def build_table(
    f: ArithmeticFunction, n: int | Factorization, *, compress: bool = False
) -> Table:
    """The transform at every order 1..n, or one representative row per gcd
    class when compressed (the divisor itself represents its class), as a
    :class:`Table` of one cell per class, at most DEFINITION_SCALE_LIMIT rows.

    For a multiplicative f each h_{p^t}(p^s), p^s || n and t <= s, is read
    once from the per-prime kernel :func:`transform._local_factor`, and each
    class's g, value and form are products over the per-prime lists of p^t,
    of those values and of their pieces (:func:`_gcd_piece` for f = id). A
    general f's classes are :func:`transform._class_values`, one exact
    convolution each, and a form is its value. A sieve sets the
    byte of every multiple of each divisor d, ascending, to d's class, so the
    order k ends in the class of gcd(k, n)."""
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
        cells = [(g, v, format_exact(v)) for g, v in transform._class_values(f, fac).items()]
    else:
        symbolic = f is get_function("id")  # the catalog object, which tracers leave in place
        powers, local, pieces = [], [], []
        for i, (p, s) in enumerate(fac.factors):
            powers.append([p**t for t in range(s + 1)])
            local.append([transform._local_factor(f, p, s, t) for t in range(s + 1)])
            pieces.append([_gcd_piece(i, s, t) if symbolic else format_exact(v)
                           for t, v in enumerate(local[-1])])
        join = "".join if symbolic else "*".join
        cells = sorted(  # by class: the classes g are distinct
            (prod(g), as_exact(prod(v)), join(form) or "1")
            for g, v, form in zip(product(*powers), product(*local), product(*pieces))
        )
    classes = [g for g, _, _ in cells]
    if compress:
        return Table(tuple(cells), tuple(classes), range(len(classes)))
    value = fac.value
    # A position fits in a byte: n <= 10^6 has at most 240 divisors (d(n) =
    # 240 at 720720, 831600, 942480, 982800 and 997920), and bytes([j])
    # raises past 255.
    positions = bytearray(value)
    for j, d in enumerate(classes):
        positions[d - 1 :: d] = bytes([j]) * (value // d)
    return Table(tuple(cells), range(1, value + 1), bytes(positions))


TABLE_FIELDS = ("index", "gcd", "value", "form")
# Rows per rendered block: a block's lines are held at once, the table's are not.
_BLOCK_ROWS = 1 << 14
# str(i) at position i, shared by every render: grown on demand up to the
# largest index rendered, and never past _BLOCK_ROWS.
_INDEX_TEXT: list[str] = []


def render_table(rows: Sequence[TableRow], fmt: str = "text") -> str:
    """Rows as text, csv or json: the blocks of :func:`render_blocks`,
    joined by newlines."""
    return "\n".join(render_blocks(rows, fmt))


def _index_keys(block: Sequence[int]) -> list[str]:
    """The index strings of a block's rows: a slice of the shared list when
    the block is an ascending range within 0.._BLOCK_ROWS, as a full table's
    first block is, else one formatted per index."""
    # an ascending range lies between its ends: no negative index reaches the list
    if type(block) is range and 0 <= block[0] <= block[-1] <= _BLOCK_ROWS:
        _INDEX_TEXT.extend(map(str, range(len(_INDEX_TEXT), block[-1] + 1)))
        # a one-row range may run down: slice it upwards all the same
        return _INDEX_TEXT[block[0] : block[-1] + 1 : abs(block.step)]
    return [f"{i}" for i in block]


def render_blocks(rows: Sequence[TableRow], fmt: str = "text") -> Iterator[str]:
    """The render of :func:`render_table` in blocks of whole lines, each of at
    most _BLOCK_ROWS rows (the first one holds the header), so a large table
    can be written block by block. Rendered from (row indices, class position
    per row, cells per class): a :class:`Table` hands these over; other rows
    are grouped once by equal (gcd, value, form), so equal int and Fraction
    values format alike. Each class's tail is formatted once, alone and ended
    by the row separator, and a block is one join of its index strings and
    its rows' tails; no row object or row string is built."""
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
    # a row ends in closes[0], "\n" and lead; a block's last in closes[last block]
    lead, closes = "", ("", "")
    if fmt == "text":
        ends = ()  # the longest decimal is the smallest or the largest index's
        if count:  # a range lies between its ends
            span = (indices[0], indices[-1]) if type(indices) is range else indices
            ends = (min(span), max(span))
        width = max([len(TABLE_FIELDS[0]), *map(len, map(str, ends))])
        columns = list(zip(*shown)) if count else [()] * 3
        widths = [width] + [max([len(h), *map(len, c)]) for h, c in zip(TABLE_FIELDS[1:], columns)]
        tails = ["  " + "  ".join(map(str.ljust, c, widths[1:])) for c in shown]
        head = "  ".join(map(str.ljust, TABLE_FIELDS, widths))
    elif fmt == "csv":
        tails = ["," + ",".join(c) for c in shown]
        head = ",".join(TABLE_FIELDS)
    else:  # the text of json.dumps(records, indent=2), a record per row
        tails = [
            f',\n    "gcd": {g},\n    "value": {json.dumps(v)},\n    "form": {json.dumps(form)}'
            "\n  }"
            for g, v, form in shown
        ]
        head = "[" if count else "[]"
        lead, closes = '  {\n    "index": ', (",", "\n]")
    ended = [f"{t}{closes[0]}\n{lead}" for t in tails]
    opening = f"{head}\n{lead}"
    for k in range(0, count, _BLOCK_ROWS):
        end = k + _BLOCK_ROWS
        places = positions[k:end]
        parts = [""] * (2 * len(places))
        parts[0::2] = _index_keys(indices[k:end])
        if fmt == "text":
            parts[0::2] = map(str.ljust, parts[0::2], repeat(width))
        parts[1::2] = map(ended.__getitem__, places)
        parts[0] = opening + parts[0]
        parts[-1] = tails[places[-1]] + closes[end >= count]
        # the rows' strings are freed before the caller writes the block
        text, parts = "".join(parts), None
        yield text
        opening = lead
    if not count:  # the header alone
        yield head


def parse_table(text: str, fmt: str) -> list[TableRow]:
    """Inverse of :func:`render_table` for the csv and json formats. Malformed
    text raises :class:`DomainError`, naming the record (or text) it failed on."""
    if fmt not in ("csv", "json"):
        raise DomainError(f"cannot parse table format {fmt!r}")
    rows, record = [], text  # the whole text, until it parses into records
    try:
        records = json.loads(text) if fmt == "json" else list(csv_reader(io.StringIO(text)))
        if fmt == "csv" and records[:1] == [list(TABLE_FIELDS)]:
            records = records[1:]
        for record in records:
            idx, g, value, form = record if fmt == "csv" else itemgetter(*TABLE_FIELDS)(record)
            if fmt == "csv":
                idx, g = int(idx), int(g)
            elif type(idx) is not int or type(g) is not int:  # json holds them as ints
                raise TypeError(f"index and gcd must be ints, got {idx!r} and {g!r}")
            rows.append(TableRow(idx, g, parse_exact(value), form))
    except (ValueError, ZeroDivisionError, KeyError, TypeError) as error:
        raise DomainError(f"malformed {fmt} table record {record!r}: {error!r}") from None
    return rows
