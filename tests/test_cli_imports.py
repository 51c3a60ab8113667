"""Each verb loads only the modules it runs.

Each verb runs through fitts3d.cli.main in a fresh interpreter, which
then reports its fitts3d modules, and whether dataclasses and numpy are
among its modules. report loads only the parser's modules and report,
and classify only those and poses. The verbs that fit (fit, compare,
stepwise) load a fixed list of modules, stepwise alone the F tail in
special. Only generate loads dataclasses. No verb loads numpy: the
package imports only the standard library.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fitts3d
from fitts3d.cli import main
from fitts3d.poses import POSE_CSV_HEADER

SRC = str(Path(fitts3d.__file__).resolve().parents[1])

_CHILD = """\
import json, sys
{run}
print(json.dumps([sorted(m for m in sys.modules if m.split(".")[0] == "fitts3d"),
                  "dataclasses" in sys.modules, "numpy" in sys.modules]))
"""
_RUN_VERB = "from fitts3d.cli import main\nassert main(sys.argv[1:]) == 0"

REPORT_MODULES = ["fitts3d", "fitts3d.cli", "fitts3d.constants",
                  "fitts3d.errors", "fitts3d.report"]
CLASSIFY_MODULES = ["fitts3d", "fitts3d.cli", "fitts3d.constants",
                    "fitts3d.errors", "fitts3d.poses"]
FIT_MODULES = ["fitts3d", "fitts3d.cli", "fitts3d.constants", "fitts3d.errors",
               "fitts3d.metrics", "fitts3d.poses", "fitts3d.regression",
               "fitts3d.report", "fitts3d.tasks", "fitts3d.trial_io"]

VERBS = {
    "generate": ["generate", "--experiment", "e1", "--interaction", "pointing",
                 "--out", "g.csv"],
    "classify": ["classify", "poses.csv", "--out", "flags.csv"],
    "report-table": ["report", "fit.json", "--format", "table", "--out", "report.txt"],
    "report-json-like": ["report", "fit.json", "--format", "json-like",
                         "--out", "report.json"],
    "fit": ["fit", "log.csv", "--out", "fit.txt"],
    "compare": ["compare", "log.csv", "--out", "compare.txt"],
    "stepwise": ["stepwise", "log.csv", "--out", "stepwise.txt"],
}


def _child(run, argv, cwd):
    """(fitts3d modules, dataclasses loaded, numpy loaded) after run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run([sys.executable, "-c", _CHILD.format(run=run), *argv],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return tuple(json.loads(done.stdout.splitlines()[-1]))


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


@pytest.fixture(scope="module")
def loaded(inputs):
    """What each verb of VERBS loads, one child per verb."""
    cache = {}

    def get(verb):
        if verb not in cache:
            cache[verb] = _child(_RUN_VERB, VERBS[verb], inputs)
        return cache[verb]
    return get


@pytest.mark.parametrize("verb", list(VERBS))
def test_verb_does_not_load_numpy(loaded, verb):
    assert not loaded(verb)[2]


@pytest.mark.parametrize("verb", ["report-table", "report-json-like"])
def test_report_loads_only_its_modules(loaded, verb):
    modules, dataclasses, _ = loaded(verb)
    assert modules == REPORT_MODULES
    assert not dataclasses


def test_classify_loads_only_its_modules(loaded):
    modules, dataclasses, _ = loaded("classify")
    assert modules == CLASSIFY_MODULES
    assert not dataclasses


@pytest.mark.parametrize("verb", ["fit", "compare", "stepwise"])
def test_fitting_verb_loads_only_its_modules(loaded, verb):
    modules, dataclasses, _ = loaded(verb)
    # partial_f_test imports the F tail when it first runs: only stepwise
    special = ["fitts3d.special"] if verb == "stepwise" else []
    assert modules == sorted(FIT_MODULES + special)
    assert not dataclasses


def test_generate_loads_neither_report_nor_regression(loaded):
    modules, dataclasses, _ = loaded("generate")
    assert "fitts3d.report" not in modules
    assert "fitts3d.regression" not in modules
    # synth's ExperimentGrid and GroundTruth are still dataclasses
    assert dataclasses


def test_bare_import_loads_no_other_module(tmp_path):
    assert _child("import fitts3d", [], tmp_path) == (["fitts3d"], False, False)


def test_constants_names_load_only_constants(tmp_path):
    # the enums and timeouts are defined in constants, not tasks
    run = ("import fitts3d\n"
           "assert fitts3d.Experiment('e1') is fitts3d.Experiment.E1\n"
           "assert fitts3d.InteractionKind.POINTING.timeout_s"
           " == fitts3d.POINTING_TIMEOUT_S\n"
           "assert fitts3d.MANIPULATION_TIMEOUT_S")
    modules, dataclasses, _ = _child(run, [], tmp_path)
    assert modules == ["fitts3d", "fitts3d.constants"]
    assert not dataclasses


def test_first_use_loads_the_owning_module(tmp_path):
    # a submodule and an exported name, each reached as an attribute
    run = ("import fitts3d\n"
           "assert fitts3d.special.f_sf is fitts3d.f_sf\n"
           "assert fitts3d.tasks.TaskSpec is fitts3d.TaskSpec")
    modules, _, numpy = _child(run, [], tmp_path)
    assert modules == ["fitts3d", "fitts3d.constants", "fitts3d.errors",
                       "fitts3d.poses", "fitts3d.special", "fitts3d.tasks"]
    assert not numpy
