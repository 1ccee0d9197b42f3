"""scipy is loaded only by the commands that call it: classification, the
secular route and the Chebyshev route start without it.  numpy.polynomial
(2-11 ms to import) and numpy.ma (about 7 ms, loaded by np.unique and
np.median) are loaded by none of them.

Each check runs in a fresh interpreter, because the test process already
holds scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# imports specmat, then runs each argv through specmat.cli.main, recording
# the exit code and the scipy, numpy.polynomial and numpy.ma modules loaded
# so far after each step
_PROBE = r"""
import json, sys

def modules(package):
    return sorted(m for m in sys.modules
                  if m == package or m.startswith(package + "."))

def loaded(argv, code):
    return {"argv": argv, "code": code, "scipy": modules("scipy"),
            "polynomial": modules("numpy.polynomial"),
            "ma": modules("numpy.ma")}

import specmat
steps = [loaded(None, 0)]
from specmat.cli import main
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    steps.append(loaded(argv, code))
sys.stdout.flush()
print("\nPROBE " + json.dumps(steps))
"""

# the five commands of the cli_cold benchmark workload
COLD_COMMANDS = [
    ["classify", "--real", "1.3", "0", "1", "-2.1"],
    ["spectrum", "--real", "1.3", "1", "0", "-2.1", "--count", "6"],
    ["cheb", "--alpha", "3/2", "--a", "0.5", "--nmax", "4", "--format", "json"],
    ["ev", "--real", "1.5", "-1", "1", "2", "--at=2.5,0.3"],
    ["--format", "csv", "sweep", "--curve", "3/2", "--arange=-0.2:0.7:4",
     "--method", "chebyshev", "--nmax", "3"],
]


def fresh_run(commands):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(commands)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.rsplit("\nPROBE ", 1)[1])


def test_cold_commands_load_no_scipy():
    imported, *steps = fresh_run(COLD_COMMANDS)
    assert imported["scipy"] == [], "import specmat loaded scipy"
    assert imported["polynomial"] == [], "import specmat loaded numpy.polynomial"
    assert imported["ma"] == [], "import specmat loaded numpy.ma"
    assert len(steps) == len(COLD_COMMANDS)
    for step in steps:
        assert step["code"] == 0, step["argv"]
        assert step["scipy"] == [], step["argv"]
        assert step["polynomial"] == [], step["argv"]
        assert step["ma"] == [], step["argv"]


@pytest.mark.parametrize("argv", [
    ["oracle", "--real", "1", "0", "0", "4", "-n", "60", "-k", "4"],
    ["track-negative", "--a", "-0.5", "--d-range", "1.55:1.6", "--steps", "3"],
], ids=["oracle", "track-negative"])
def test_scipy_commands_load_scipy(argv):
    _, step = fresh_run([argv])
    assert step["code"] == 0
    assert step["scipy"], "expected scipy to be loaded"
