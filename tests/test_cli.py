"""CLI surface: subcommands, formats and the exit-code contract."""

import csv
import io
import json
import time

import pytest

from gcdft import verify
from gcdft.cli import (
    EXIT_INCONSISTENCY,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFICATION,
    main,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDft:
    def test_basic_value(self, capsys):
        code, out, _ = run_cli(capsys, "dft", "--f", "id", "--n", "6", "--m", "2")
        assert code == EXIT_OK
        assert out.strip() == "6"

    def test_coprime_order_totient(self, capsys):
        code, out, _ = run_cli(capsys, "dft", "--f", "id", "--n", "12", "--m", "5")
        assert code == EXIT_OK
        assert out.strip() == "4"

    def test_trivial(self, capsys):
        code, out, _ = run_cli(capsys, "dft", "--f", "id", "--n", "1", "--m", "1")
        assert code == EXIT_OK
        assert out.strip() == "1"

    def test_verify_lists_paths(self, capsys):
        code, out, _ = run_cli(
            capsys, "dft", "--f", "phi", "--n", "10", "--m", "3", "--verify"
        )
        assert code == EXIT_OK
        assert "brute_float" in out
        assert "convolution_exact" in out
        assert "closed_form" in out

    def test_verify_of_large_values_exits_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "dft", "--f", "J_2", "--n", "288774", "--m", "164704", "--verify"
        )
        assert code == EXIT_OK
        assert out.split()[0] == "65851410688"
        assert "brute_float" in out

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "dft", "--f", "id_2", "--n", "9", "--m", "3",
            "--format", "json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["value"] == "96"
        assert payload["m"] == 3

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "dft", "--f", "id", "--n", "12", "--m", "12",
            "--format", "csv", "--verify",
        )
        assert code == EXIT_OK
        header, row = out.strip().splitlines()
        assert header == "f,n,m,value,paths"
        fields = row.split(",")
        assert fields[:4] == ["id", "12", "12", "40"]
        assert set(fields[4].split(";")) == {
            "brute_float", "closed_form", "convolution_exact",
        }

    def test_unknown_function_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "dft", "--f", "zeta", "--n", "6", "--m", "1")
        assert code == EXIT_USAGE
        assert "zeta" in err

    def test_zero_n_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "dft", "--f", "id", "--n", "0", "--m", "1")
        assert code == EXIT_USAGE


class TestTable:
    def test_compressed_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--f", "id", "--n", "15", "--compress",
            "--format", "csv",
        )
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["index", "gcd", "value", "form"]
        assert [r[2] for r in rows[1:]] == ["8", "20", "18", "45"]

    def test_full_text(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--n", "6")
        assert code == EXIT_OK
        assert len(out.strip().splitlines()) == 7  # header + 6 orders

    def test_zero_n_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "table", "--n", "0")
        assert code == EXIT_USAGE


class TestVerify:
    def test_clean_run_exits_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--n-max", "30", "--functions", "id,phi",
        )
        assert code == EXIT_OK
        assert "0 failures" in out

    def test_sampled_policy_with_seed(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--n-max", "40", "--m-policy", "sample",
            "--sample-count", "5", "--seed", "7", "--functions", "id_2",
        )
        assert code == EXIT_OK
        code2, out2, _ = run_cli(
            capsys, "verify", "--n-max", "40", "--m-policy", "sample",
            "--sample-count", "5", "--seed", "7", "--functions", "id_2",
        )
        assert out == out2

    def test_injected_fault_exits_two(self, capsys, monkeypatch):
        honest = verify.exact_closed_form
        monkeypatch.setattr(verify, "exact_closed_form", lambda f, n, m: -honest(f, n, m))
        code, out, _ = run_cli(capsys, "verify", "--n-max", "15", "--functions", "id")
        assert code == EXIT_VERIFICATION
        assert "FAIL" in out

    def test_json_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--n-max", "12", "--format", "json",
        )
        assert code == EXIT_OK
        assert json.loads(out)["passed"] is True


class TestBench:
    def test_csv_to_stdout(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--n", "2", "--n", "60", "--repetitions", "2",
        )
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][0] == "n"
        assert len(rows) == 3

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "bench.csv"
        code, out, _ = run_cli(
            capsys, "bench", "--n", "12", "--repetitions", "2",
            "--output", str(target),
        )
        assert code == EXIT_OK
        assert target.exists()
        assert target.read_text().startswith("n,")

    def test_unwritable_output_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "bench.csv"
        code, out, err = run_cli(
            capsys, "bench", "--n", "10", "--repetitions", "1", "--output", str(target),
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: cannot write ")
        assert len(err.splitlines()) == 1
        assert not target.exists()

    def test_zero_repetitions_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "bench", "--n", "10", "--repetitions", "0")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.strip() == "error: repetitions must be >= 1"

    def test_failed_spot_check_exits_three(self, capsys, monkeypatch):
        from gcdft import transform

        closed_form = transform.exact_closed_form
        monkeypatch.setattr(
            transform, "exact_closed_form", lambda f, n, m: closed_form(f, n, m) + 1
        )
        code, out, err = run_cli(
            capsys, "bench", "--n", "60", "--f", "sigma", "--repetitions", "1",
        )
        assert code == EXIT_INCONSISTENCY
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [row["spot_check"] for row in rows] == ["0"]
        assert "60" in err


class TestRamanujan:
    def test_three_evaluators_agree(self, capsys):
        code, out, _ = run_cli(capsys, "ramanujan", "--n", "12", "--m", "4")
        assert code == EXIT_OK
        assert "von Sterneck" in out
        assert "agreement: yes" in out

    def test_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "ramanujan", "--n", "9", "--m", "3", "--format", "csv"
        )
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[1][2] == rows[1][3] == "-3"

    def test_imaginary_part_of_the_definition_is_checked(self, capsys, monkeypatch):
        import gcdft.cli as cli

        honest = cli.ramanujan_definition
        monkeypatch.setattr(cli, "ramanujan_definition", lambda n, m: honest(n, m) + 1e-3j)
        code, out, _ = run_cli(capsys, "ramanujan", "--n", "12", "--m", "4")
        assert code == EXIT_INCONSISTENCY
        assert "agreement: NO" in out

    def test_kluyver_sum_over_too_many_divisors_is_usage_error(self, capsys):
        # the product of the first 20 primes has 2^20 > 10^6 divisors
        n = 1
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71):
            n *= p
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "ramanujan", "--n", str(n), "--m", "0")
        assert time.perf_counter() - start < 15.0
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(n) in err
        code, out, _ = run_cli(capsys, "ramanujan", "--n", str(n), "--m", "1")
        assert code == EXIT_OK
        assert "agreement: yes" in out


class TestFactor:
    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "--n", "360")
        assert code == EXIT_OK
        assert out.strip() == "360 = 2^3 * 3^2 * 5"

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "--n", "12", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["factors"] == [
            {"prime": 2, "multiplicity": 2},
            {"prime": 3, "multiplicity": 1},
        ]

    def test_zero_rejected(self, capsys):
        code, _, err = run_cli(capsys, "factor", "--n", "0")
        assert code == EXIT_USAGE

    def test_strong_pseudoprime_to_twelve_bases_is_split(self, capsys):
        # psi_12, a strong pseudoprime to every prime base up to 37
        code, out, _ = run_cli(capsys, "factor", "--n", "318665857834031151167461")
        assert code == EXIT_OK
        assert out.strip() == "318665857834031151167461 = 399165290221 * 798330580441"


def test_rho_budget_exhausted_is_usage_error(capsys):
    # nextprime(2^90) * nextprime(2^91): no rho run splits it in reach
    n = 1237940039285380274899124357 * 2475880078570760549798248507
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "dft", "--f", "id", "--n", str(n), "--m", "1")
    assert time.perf_counter() - start < 15.0
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: Pollard rho found no factor")


class TestInconsistencyExit:
    def test_exact_path_disagreement_exits_three(self, capsys, monkeypatch):
        import gcdft.cli as cli
        from gcdft.errors import InconsistencyError

        def explode(*args, **kwargs):
            raise InconsistencyError("paths disagree")

        monkeypatch.setattr(cli, "dft_dispatch", explode)
        code, _, err = run_cli(
            capsys, "dft", "--f", "id", "--n", "6", "--m", "2", "--verify"
        )
        assert code == EXIT_INCONSISTENCY
        assert "inconsistency" in err


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == EXIT_USAGE

    def test_missing_required_argument(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dft", "--f", "id"])
        assert exc.value.code == EXIT_USAGE

    def test_bad_format_choice(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dft", "--f", "id", "--n", "6", "--m", "1", "--format", "xml"])
        assert exc.value.code == EXIT_USAGE


def test_exit_code_constants():
    assert (EXIT_OK, EXIT_USAGE, EXIT_VERIFICATION, EXIT_INCONSISTENCY) == (0, 1, 2, 3)
