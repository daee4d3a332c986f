"""Every example script runs to completion at a small scale."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = ROOT / "examples"

#: One command line per invocation; scripts that take a scale run at 0.05.
INVOCATIONS = [
    ["dss_nack_storm.py", "0.05"],
    ["latency_table.py"],
    ["oltp_capacity_planning.py", "0.05"],
    ["oltp_capacity_planning.py", "0.05", "--service"],
    ["quickstart.py", "oltp", "butterfly", "0.05"],
    ["token_passing_walkthrough.py"],
]


def test_every_example_is_invoked():
    invoked = {argv[0] for argv in INVOCATIONS}
    assert invoked == {path.name for path in EXAMPLES.glob("*.py")}


@pytest.mark.parametrize("argv", INVOCATIONS, ids=" ".join)
def test_example_exits_zero(argv):
    pythonpath = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES / argv[0]), *argv[1:]],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=pythonpath),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
