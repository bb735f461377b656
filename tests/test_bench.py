"""Benchmark harness structure; timing magnitudes are reported, not asserted."""

import csv
import io

import pytest

from gcdft import transform
from gcdft.bench import BENCH_FIELDS, bench_one, render_bench, run_bench
from gcdft.errors import DomainError
from gcdft.functions import ID, ArithmeticFunction, get_function


class TestBenchOne:
    def test_floor_case(self):
        result = bench_one(ID, 2, repetitions=3)
        assert result.n == 2
        assert result.spot_check
        assert result.value == 3  # gcd(1,2) + gcd(2,2)
        assert result.brute_median_s > 0
        assert result.closed_median_s > 0

    def test_moderate_composite(self):
        result = bench_one(ID, 5040, repetitions=3)
        assert result.spot_check
        assert result.speedup > 1

    def test_non_identity_function(self):
        result = bench_one(get_function("id_2"), 720, repetitions=2)
        assert result.spot_check
        assert result.value == sum(
            pow(__import__("math").gcd(k, 720), 2) for k in range(1, 721)
        )

    def test_general_function(self):
        g = ArithmeticFunction.from_table("g", {d: d * d - 3 for d in range(1, 400)})
        result = bench_one(g, 360, repetitions=2)
        assert result.spot_check
        assert result.value == 279060

    def test_spot_check_is_relative_to_sequence_size(self):
        # h = 418680712986624000; the float sum rounds at ~1e-16 of its l1 norm
        result = bench_one(get_function("J_3"), 720720, repetitions=1)
        assert result.spot_check

    def test_spot_check_catches_an_offset_closed_form(self, monkeypatch):
        closed_form = transform.exact_closed_form
        monkeypatch.setattr(
            transform, "exact_closed_form", lambda f, n, m: closed_form(f, n, m) + 1
        )
        result = bench_one(get_function("sigma"), 60, repetitions=1)
        assert result.value == transform.dft_exact_convolution(get_function("sigma"), 60, 60) + 1
        assert not result.spot_check


class TestRendering:
    def test_csv_structure(self):
        results = run_bench(ID, [2, 60], repetitions=2)
        text = render_bench(results, "csv")
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == list(BENCH_FIELDS)
        assert len(rows) == 3
        assert rows[1][0] == "2"
        assert rows[2][0] == "60"
        assert all(row[-1] == "1" for row in rows[1:])  # spot checks pass

    def test_text_and_json(self):
        results = run_bench(ID, [12], repetitions=2)
        assert "speedup" in render_bench(results, "text")
        import json

        payload = json.loads(render_bench(results, "json"))
        assert payload[0]["n"] == 12
        assert payload[0]["spot_check"] is True

    def test_unknown_format_is_a_domain_error(self):
        with pytest.raises(DomainError):
            render_bench([], "xml")
