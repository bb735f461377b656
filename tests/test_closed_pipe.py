"""The CLI on a stdout whose reader has gone: no traceback, and the
command's own exit code."""

import os
import subprocess
import sys
from pathlib import Path

from gcdft.cli import EXIT_OK, EXIT_VERIFICATION

SRC = Path(__file__).resolve().parent.parent / "src"

# `gcdft` with the closed form negated wherever the verify sweep reads it
NEGATED_CLOSED_FORM = """
import sys
from gcdft import cli, verify
honest = verify.exact_closed_form
verify.exact_closed_form = lambda f, n, m: -honest(f, n, m)
sys.exit(cli.main(sys.argv[1:]))
"""


def gcdft(*argv, launcher=("-m", "gcdft")):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.Popen(
        [sys.executable, *launcher, *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )


def test_reader_closes_after_one_line():
    # about 2.6 MB of csv, far above what the pipe buffers
    proc = gcdft("table", "--f", "sigma", "--n", "100000", "--format", "csv")
    assert proc.stdout.readline() == b"index,gcd,value,form\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == EXIT_OK
    assert proc.stderr.read() == b""


def test_verdict_survives_a_closed_pipe():
    proc = gcdft("verify", "--n-max", "12", "--functions", "sigma",
                 launcher=("-c", NEGATED_CLOSED_FORM))
    proc.stdout.close()  # closed before the report is written
    assert proc.wait(timeout=60) == EXIT_VERIFICATION
    assert proc.stderr.read() == b""
