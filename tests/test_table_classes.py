"""Per-class table rows: shared class cells rendered once, the full-table
row bound, and tables and convolutions of a given Factorization, which is
never factored again."""

import json
import time
from fractions import Fraction

import pytest

from gcdft.cli import EXIT_USAGE, main
from gcdft.errors import DomainError
from gcdft.functions import ID, SIGMA, ArithmeticFunction, id_power
from gcdft.numtheory import Factorization, factorize
from gcdft.tables import TableRow, build_table, format_exact, parse_table, render_table
from gcdft.transform import dft_dispatch, dft_exact_convolution


class TestPerClassRendering:
    """render_table formats each distinct (gcd, value, form) once; the
    output must be what formatting every row on its own gives."""

    @staticmethod
    def per_row_csv(rows):
        lines = ["index,gcd,value,form"]
        lines += [
            f"{r.index},{r.gcd_value},{format_exact(r.transform_value)},{r.symbolic_form}"
            for r in rows
        ]
        return "\n".join(lines)

    def test_equal_values_of_other_types_render_per_row(self):
        rows = [
            TableRow(1, 8, 40, "a"),
            TableRow(2, 8, Fraction(40, 1), "a"),
            TableRow(3, 8, Fraction(7, 3), "b"),
            TableRow(4, 8, Fraction(14, 6), "b"),
            TableRow(5, 8, Fraction(40, 1), "a"),
            TableRow(6, 4, 40, "a"),
        ]
        assert rows[2].transform_value is not rows[3].transform_value
        assert render_table(rows, "csv") == self.per_row_csv(rows)
        assert [e["value"] for e in json.loads(render_table(rows, "json"))] == [
            "40", "40", "7/3", "7/3", "40", "40"
        ]
        text = render_table(rows, "text").splitlines()
        assert [line.split() for line in text[1:]] == [
            [str(r.index), str(r.gcd_value), format_exact(r.transform_value), r.symbolic_form]
            for r in rows
        ]

    def test_rows_are_immutable(self):
        row = build_table(ID, 6)[0]
        with pytest.raises(AttributeError):
            row.transform_value = 0
        with pytest.raises(AttributeError):
            row.index = 2

    def test_full_rational_table_round_trips(self):
        rows = build_table(id_power(-1), 360)
        assert len(rows) == 360
        assert any(isinstance(r.transform_value, Fraction) for r in rows)
        for fmt in ("csv", "json"):
            assert parse_table(render_table(rows, fmt), fmt) == rows


class TestFullTableBound:
    def test_full_table_above_the_row_limit_is_rejected(self):
        fac = Factorization(2**20, ((2, 20),))
        with pytest.raises(DomainError, match="--compress"):
            build_table(ID, fac)
        rows = build_table(ID, fac, compress=True)
        assert [r.index for r in rows] == [2**k for k in range(21)]

    def test_cli_exits_one(self, capsys):
        assert main(["table", "--f", "id", "--n", str(2**20)]) == EXIT_USAGE
        assert "--compress" in capsys.readouterr().err


class TestGivenFactorization:
    """A Factorization passed in is never factored again: n = pq with
    181-bit pq is far beyond Pollard rho's budget."""

    P = 1237940039285380274899124357  # nextprime(2^90)
    Q = 2475880078570760549798248507  # nextprime(2^91)

    def fac(self):
        return Factorization(self.P * self.Q, ((self.P, 1), (self.Q, 1)))

    def test_verified_dispatch_is_fast(self):
        start = time.perf_counter()
        report = dft_dispatch(SIGMA, self.fac(), 6, verify=True)
        assert time.perf_counter() - start < 1.0
        assert report.paths_agreeing == {"closed_form", "convolution_exact"}

    def test_compressed_table_is_fast(self):
        fac = self.fac()
        start = time.perf_counter()
        rows = build_table(SIGMA, fac, compress=True)
        assert time.perf_counter() - start < 1.0
        assert [r.index for r in rows] == [1, self.P, self.Q, self.P * self.Q]
        for row in rows:
            assert row.transform_value == dft_dispatch(SIGMA, fac, row.index).value

    def test_factored_convolution_matches_int_convolution(self):
        general = ArithmeticFunction.from_table(
            "general", {k: Fraction(k % 5 - 2, 1 + k % 3) for k in range(1, 61)}
        )
        for f in (SIGMA, id_power(-1), general):
            for n in range(1, 61):
                fac = Factorization(n, factorize(n).factors)
                for m in range(n + 1):
                    assert dft_exact_convolution(f, fac, m) == dft_exact_convolution(f, n, m)
