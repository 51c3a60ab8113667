"""The verbs that fit nothing start without numpy.

Each verb runs through fitts3d.cli.main in a fresh interpreter, which
then reports whether numpy is among its modules. generate, classify and
report must not load it; fit must, so the check can tell the two apart.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fitts3d
from fitts3d.cli import main
from fitts3d.trial_io import POSE_CSV_HEADER

SRC = str(Path(fitts3d.__file__).resolve().parents[1])

_CHILD = """\
import sys
from fitts3d.cli import main
assert main(sys.argv[1:]) == 0
print("numpy" in sys.modules)
"""


def _loads_numpy(argv, cwd) -> bool:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run([sys.executable, "-c", _CHILD, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1] == "True"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A trial log, a pose file and a fit document, made in this process."""
    d = tmp_path_factory.mktemp("inputs")
    assert main(["generate", "--experiment", "e4", "--interaction", "pointing",
                 "--out", str(d / "log.csv")]) == 0
    assert main(["fit", str(d / "log.csv"), "--format", "json-like",
                 "--out", str(d / "fit.json")]) == 0
    (d / "poses.csv").write_text(
        POSE_CSV_HEADER + "\n"
        "0.0,0.0,0.0,0.0,0.0,0.0,1.0,0.0,0.0,0.0,0.0,0.0,5.0,2.5\n",
        encoding="utf-8")
    return d


@pytest.mark.parametrize("argv", [
    ["generate", "--experiment", "e1", "--interaction", "pointing", "--out", "g.csv"],
    ["classify", "poses.csv", "--out", "flags.csv"],
    ["report", "fit.json", "--format", "table", "--out", "report.txt"],
    ["report", "fit.json", "--format", "json-like", "--out", "report.json"],
], ids=["generate", "classify", "report-table", "report-json-like"])
def test_verb_does_not_load_numpy(inputs, argv):
    assert not _loads_numpy(argv, inputs)


def test_fit_loads_numpy(inputs):
    assert _loads_numpy(["fit", "log.csv", "--out", "fit.txt"], inputs)
