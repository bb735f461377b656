"""A rendered row is its index string followed by its class's text. A block
whose indices are a range within one block's length, as a full table's first
block is, takes its index strings as one slice of a shared list, grown on
demand and never past that length; every other block formats its indices.
A full table keeps one byte per row for its class."""

import math
from fractions import Fraction

import pytest

from gcdft import tables
from gcdft.functions import ID, SIGMA
from gcdft.tables import Table, TableRow, build_table, render_blocks, render_table
from test_table_sequence import FORMATS, RATIONAL, per_row_render

CASES = [(f, n, c) for f in (ID, SIGMA, RATIONAL) for n in (1, 9, 360, 1001) for c in (False, True)]


@pytest.fixture
def fresh(monkeypatch):
    """An empty shared list of index strings, restored afterwards."""
    monkeypatch.setattr(tables, "_INDEX_TEXT", [])
    return tables._INDEX_TEXT


class TestSharedIndexText:
    def test_a_fresh_and_a_grown_list_render_alike(self, fresh):
        renders = {
            (f.name, n, c, fmt): render_table(build_table(f, n, compress=c), fmt)
            for f, n, c in CASES
            for fmt in FORMATS
        }
        assert len(fresh) == 1001 + 1
        render_table(build_table(SIGMA, 20000), "csv")  # its first block fills the list
        assert len(fresh) == tables._BLOCK_ROWS + 1
        assert fresh == [str(i) for i in range(tables._BLOCK_ROWS + 1)]
        for f, n, c in CASES:
            table = build_table(f, n, compress=c)
            for fmt in FORMATS:
                rendered = render_table(table, fmt)
                assert rendered == renders[f.name, n, c, fmt]
                assert rendered == per_row_render(list(table), fmt)

    def test_rows_off_the_list_format_their_index(self, fresh):
        rows = [TableRow(-1, 1, 2, "2"), TableRow(0, 3, Fraction(-1, 2), "x"),
                TableRow(10**7, 1, 2, "2")]
        cells = ((1, 2, "2"), (3, 4, "4"))
        for fmt in FORMATS:
            assert render_table(rows, fmt) == per_row_render(rows, fmt)
            for indices in ((-2, -1, 0, 3), (0, 1, 2, 3), range(-2, 2), range(9, 5, -1)):
                table = Table(cells, indices, b"\0\1\0\1")
                assert render_table(table, fmt) == per_row_render(list(table), fmt)
        assert fresh == []
        for fmt in FORMATS:  # an ascending range within the list reads it
            table = Table(cells, range(0, 8, 2), b"\0\1\0\1")
            assert render_table(table, fmt) == per_row_render(list(table), fmt)
        assert fresh == [str(i) for i in range(7)]

    @pytest.mark.parametrize("low, high", [(-100, 99), (-10**6, 99999), (-99, 10**7)])
    def test_text_width_from_the_smallest_and_largest_index(self, low, high):
        rows = [TableRow(low, 1, 1, "1"), TableRow(5, 5, 20, "4*5"), TableRow(high, 1, 1, "1")]
        for order in (rows, rows[::-1], rows[1:], rows[:2]):
            for fmt in FORMATS:
                assert render_table(order, fmt) == per_row_render(order, fmt)

    def test_the_list_never_grows_past_one_block(self, fresh, monkeypatch):
        monkeypatch.setattr(tables, "_BLOCK_ROWS", 64)
        for n in (50, 200, 64, 65, 129):
            for compress in (False, True):
                table = build_table(SIGMA, n, compress=compress)
                for fmt in FORMATS:
                    blocks = list(render_blocks(table, fmt))
                    assert "\n".join(blocks) == per_row_render(list(table), fmt)
                    assert len(fresh) <= 65
        assert len(fresh) == 65


class TestByteSieve:
    def test_a_full_table_keeps_a_byte_per_row(self):
        n = 720720  # d(n) = 240, the most of any n <= 10^6
        table = build_table(SIGMA, n)
        assert type(table.positions) is bytes
        assert len(table.positions) == n and max(table.positions) == 239
        for k in [*range(1, 721), *range(1, n + 1, 997), n - 1, n]:
            assert table[k - 1][:2] == (k, math.gcd(k, n))

    def test_a_compressed_table_keeps_a_range(self):
        for f in (SIGMA, RATIONAL):
            table = build_table(f, 360, compress=True)
            assert table.positions == range(24)
            assert type(build_table(f, 360).positions) is bytes
