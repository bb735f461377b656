"""Values of f beyond float range: the float oracles raise OracleScaleError,
naming n, so the CLI exits 1 with ``error: ...``, and the exact paths still
answer."""

import pytest

from gcdft.cli import EXIT_OK, EXIT_USAGE, main
from gcdft.errors import OracleScaleError
from gcdft.functions import get_function
from gcdft.transform import (
    dft_brute_float,
    dft_brute_spectrum,
    dft_dispatch,
    dft_exact_convolution,
    float_bound,
)

ID_200 = get_function("id_200")


class TestLibrary:
    def test_brute_oracles(self):
        with pytest.raises(OracleScaleError, match="n = 1000"):
            dft_brute_float(ID_200, 1000, 1)
        with pytest.raises(OracleScaleError, match="n = 1000"):
            dft_brute_spectrum(ID_200, 1000)

    def test_float_bound(self):
        with pytest.raises(OracleScaleError, match="n = 1000"):
            float_bound(ID_200, 1000, 1e-6)

    def test_verified_dispatch(self):
        with pytest.raises(OracleScaleError, match="n = 1000"):
            dft_dispatch(ID_200, 1000, 1, verify=True)

    def test_exact_paths_need_no_float(self):
        assert dft_dispatch(ID_200, 1000, 1).value == dft_exact_convolution(ID_200, 1000, 1)


class TestCli:
    @pytest.mark.parametrize(
        "argv",
        [
            ["dft", "--f", "id_200", "--n", "1000", "--m", "1", "--verify"],
            ["verify", "--n-max", "5", "--functions", "id_500"],
            ["bench", "--n", "1000", "--f", "id_200", "--repetitions", "1"],
        ],
        ids=["dft-verify", "verify", "bench"],
    )
    def test_exits_usage_with_an_error_line(self, capsys, argv):
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "beyond float range" in err

    def test_dft_without_verify_is_exact(self, capsys):
        assert main(["dft", "--f", "id_200", "--n", "1000", "--m", "1"]) == EXIT_OK
        out = capsys.readouterr().out.strip()
        assert int(out) == dft_dispatch(ID_200, 1000, 1).value
        assert int(out) > 10**309  # far beyond float range
