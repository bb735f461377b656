"""A rendered block is one join of its index strings interleaved with its
rows' class tails, each ending in the row separator but the block's last.
These renders are checked against every row formatted on its own, at the
real block size and at small ones, through both the shared-list slice and
the per-index path."""

import json

import pytest

from gcdft import tables
from gcdft.functions import SIGMA
from gcdft.tables import Table, build_table, render_blocks, render_table
from test_table_index_text import fresh  # noqa: F401  (a fixture)
from test_table_sequence import FORMATS, per_row_render


def test_three_real_blocks_across_a_digit_boundary():
    n = 40000  # blocks of 16384, 16384 and 7232 rows; indices reach 5 digits
    table = build_table(SIGMA, n)
    rows = list(table)
    for fmt in FORMATS:
        blocks = list(render_blocks(table, fmt))
        assert len(blocks) == 3
        rendered = "\n".join(blocks)
        assert rendered == render_table(table, fmt) == per_row_render(rows, fmt)
        if fmt == "json":
            records = json.loads(rendered)
            assert len(records) == n
            assert [r["index"] for r in records] == list(range(1, n + 1))


CELLS = ((1, 2, "2"), (3, 4, "4"), (7, 8, "x/y"))


@pytest.mark.parametrize("block_rows, listed", [(7, 0), (42, 43)])
def test_a_stepped_range_renders_through_the_slice(fresh, monkeypatch, block_rows, listed):
    monkeypatch.setattr(tables, "_BLOCK_ROWS", block_rows)
    indices = range(0, 43, 3)  # 15 rows: blocks of 7, 7 and 1 rows, or one block
    table = Table(CELLS, indices, bytes(i % 3 for i in range(len(indices))))
    for fmt in FORMATS:
        blocks = list(render_blocks(table, fmt))
        assert len(blocks) == -(-len(indices) // block_rows)
        if block_rows == 7:  # the last block holds one row
            assert blocks[-1].startswith(("42", '  {\n    "index": 42,'))
        assert "\n".join(blocks) == per_row_render(list(table), fmt)
    # a block reads the list only when it lies within 0.._BLOCK_ROWS
    assert fresh == [str(i) for i in range(listed)]


def test_a_one_row_range_running_down(fresh):
    for start in (0, 5):
        table = Table(CELLS, range(start, start - 1, -1), b"\2")
        for fmt in FORMATS:
            assert render_table(table, fmt) == per_row_render(list(table), fmt)
    assert fresh == [str(i) for i in range(6)]
