"""The command line runs on the standard library, mpmath and the package
alone: sympy is a test dependency."""

import os
import subprocess
import sys

from conftest import fixture_path

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

CALLS = [
    ["analyze", fixture_path("cartan_t3.json"), "--json"],
    ["normal-forms", fixture_path("spectrum_12.json")],
    ["normal-forms", fixture_path("cartan_t3.json"), "--element=-1,-1"],
    ["lift", fixture_path("cartan_t3.json"), "--step", "2"],
]

PROGRAM = """
import sys
from anosov_forge.cli import main
codes = [main(argv) for argv in {calls!r}]
assert "sympy" not in sys.modules, "the command line imported sympy"
print(codes)
"""


def test_cli_never_imports_sympy(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", PROGRAM.format(calls=CALLS)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # every call ends with a verdict: exit 0 (holds) or 1 (refuted)
    codes = proc.stdout.strip().splitlines()[-1]
    assert set(codes.strip("[]").split(", ")) <= {"0", "1"}, codes
