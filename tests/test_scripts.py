"""The scripts under scripts/ run from a checkout and print what the package computes."""

import pathlib
import subprocess
import sys

from qfano import fixtures, wps

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def run_script(name: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name)], capture_output=True, text=True, timeout=120
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout


def test_fixture_report_prints_each_hilbert_series():
    lines = run_script("fixture_report.py").splitlines()
    prefix = "  hilbert through t^12: "
    printed = [tuple(map(int, s[len(prefix):].split())) for s in lines if s.startswith(prefix)]
    assert printed == [wps.hilbert(f.shape, 12).coefficients for f in fixtures.FIXTURES]
