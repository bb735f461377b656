"""A Table is an immutable sequence of rows held as gcd classes: it behaves
as the list of its rows, renders as that list does, and builds no row object
unless one is asked for."""

import json
import math
from fractions import Fraction

import pytest

from gcdft import tables
from gcdft.functions import ID, SIGMA, ArithmeticFunction, catalog_names, get_function
from gcdft.numtheory import divisors
from gcdft.cli import main
from gcdft.tables import (
    TABLE_FIELDS,
    Table,
    TableRow,
    build_table,
    format_exact,
    render_blocks,
    render_table,
)

RATIONAL = ArithmeticFunction.from_table(
    "rational", {k: Fraction(k % 7 - 3, 1 + k % 4) for k in range(1, 1002)}, integer_valued=False
)
FUNCTIONS = [*map(get_function, catalog_names() + ["id_-1"]), RATIONAL]
FORMATS = ("text", "csv", "json")


def per_row_render(rows, fmt):
    """Every row formatted on its own: the reference for render_table."""
    records = [
        (str(r.index), str(r.gcd_value), format_exact(r.transform_value), r.symbolic_form)
        for r in rows
    ]
    if fmt == "csv":
        return "\n".join(map(",".join, [TABLE_FIELDS, *records]))
    if fmt == "json":
        return json.dumps(
            [dict(zip(TABLE_FIELDS, (r.index, r.gcd_value, rec[2], rec[3])))
             for r, rec in zip(rows, records)],
            indent=2,
        )
    widths = [max(map(len, column)) for column in zip(TABLE_FIELDS, *records)]
    return "\n".join("  ".join(map(str.ljust, rec, widths)) for rec in [TABLE_FIELDS, *records])


class TestSequence:
    def test_length_indices_and_slices(self):
        for compress in (False, True):
            table = build_table(SIGMA, 360, compress=compress)
            rows = list(table)
            assert isinstance(table, Table)
            assert len(table) == len(rows) == (24 if compress else 360)
            for i in (0, 5, -1, -len(rows)):
                assert table[i] == rows[i]
            for i in (len(rows), -len(rows) - 1):
                with pytest.raises(IndexError):
                    table[i]
            for s in (slice(2, 5), slice(None, None, -1), slice(1, None, 3), slice(7, 2)):
                assert table[s] == rows[s]

    def test_iteration_and_equality_with_lists(self):
        table = build_table(ID, 12)
        rows = [TableRow(k, math.gcd(k, 12), table[k - 1].transform_value,
                         table[k - 1].symbolic_form) for k in range(1, 13)]
        assert list(table) == rows
        assert table == rows and rows == table
        assert table == tuple(rows) and tuple(rows) == table
        assert table == build_table(ID, 12)
        assert table != rows[:-1] and rows[:-1] != table
        assert table != rows[::-1]
        assert table != build_table(ID, 12, compress=True)
        assert build_table(ID, 1) == [TableRow(1, 1, 1, "1")]

    def test_unhashable_and_immutable(self):
        table = build_table(SIGMA, 30)
        with pytest.raises(TypeError):
            hash(table)
        with pytest.raises(TypeError):
            table[0] = TableRow(1, 1, 0, "")
        with pytest.raises(TypeError):
            del table[0]
        with pytest.raises(AttributeError):
            table[0].transform_value = 0

    def test_sieve_places_each_order_in_its_gcd_class(self):
        for n in range(1, 301):
            table = build_table(ID, n)
            assert [g for g, _, _ in table.cells] == divisors(n)
            assert [table.cells[p][0] for p in table.positions] == [
                math.gcd(k, n) for k in range(1, n + 1)
            ]


class TestRendering:
    @pytest.mark.parametrize("f", FUNCTIONS, ids=lambda f: f.name)
    def test_table_renders_as_its_rows(self, f):
        for n in [*range(1, 131), 360, 720, 1001]:
            for compress in (False, True):
                table = build_table(f, n, compress=compress)
                rows = list(table)
                for fmt in FORMATS:
                    rendered = render_table(table, fmt)
                    assert rendered == render_table(rows, fmt) == per_row_render(rows, fmt)

    def test_empty_rows(self):
        for fmt in FORMATS:
            assert render_table([], fmt) == per_row_render([], fmt)

    def test_blocks_join_to_the_render(self, monkeypatch, capsys):
        monkeypatch.setattr(tables, "_BLOCK_ROWS", 7)
        for f in (SIGMA, RATIONAL):
            for n in (1, 6, 7, 8, 14, 15, 60):
                for compress in (False, True):
                    table = build_table(f, n, compress=compress)
                    rows = list(table)
                    for fmt in FORMATS:
                        blocks = list(render_blocks(table, fmt))
                        assert len(blocks) == -(-len(rows) // 7)
                        assert "\n".join(blocks) == per_row_render(rows, fmt)
                        assert list(render_blocks(rows, fmt)) == blocks
        for fmt in FORMATS:
            assert main(["table", "--f", "sigma", "--n", "60", "--format", fmt]) == 0
            assert capsys.readouterr().out == render_table(build_table(SIGMA, 60), fmt) + "\n"


@pytest.fixture
def constructed(monkeypatch):
    """Counts the rows built through ``tables.TableRow``."""
    built = []

    class Spy(TableRow):
        __slots__ = ()

        def __new__(cls, *args):
            built.append(args)
            return super().__new__(cls, *args)

        @classmethod
        def _make(cls, iterable):
            built.append(iterable)
            return super()._make(iterable)

    monkeypatch.setattr(tables, "TableRow", Spy)
    return built


class TestNoRowPerOrder:
    def test_build_and_render_make_no_row(self, constructed):
        text = render_table(build_table(SIGMA, 720720), "csv")
        assert text.count("\n") == 720720
        assert constructed == []
        for compress in (False, True):
            for fmt in FORMATS:
                render_table(build_table(RATIONAL, 360, compress=compress), fmt)
        assert constructed == []

    def test_one_row_is_built_when_asked_for(self, constructed):
        table = build_table(SIGMA, 720720)
        row = table[5]
        assert len(constructed) == 1
        assert row == build_table(SIGMA, 720720, compress=True)[5]
        assert row[:2] == (6, 6)
