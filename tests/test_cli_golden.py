"""CLI and report outputs pinned to recorded sha256 digests.

For every paper-scale cell (e1-e4 x pointing/manipulation) at seed 0
and for both --aggregate values, the stdout of `compare`, `fit` and
`stepwise` (table and json-like each) and of `fitts3d report` on the
saved fit and stepwise documents (table and json-like each) must match
tests/data/cli_golden.json byte for byte. So must `render_document` on
a set of hand-written, non-canonical documents (missing optional keys,
extra keys, empty points, error rows, a stepwise document without r2).
Re-record (only when an output change is intended) with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from fitts3d import render_document
from fitts3d.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

CELLS = [(e, i) for e in ("e1", "e2", "e3", "e4")
         for i in ("pointing", "manipulation")]
VERBS = {
    "compare": ["compare"],
    "compare-json": ["compare", "--format", "json-like"],
    "fit-json": ["fit", "--format", "json-like"],
    "fit-table": ["fit"],
    "stepwise": ["stepwise"],
    "stepwise-json": ["stepwise", "--format", "json-like"],
}
# `fitts3d report` on the document a verb saved with --format json-like
SAVED = {"report-fit": "fit", "report-stepwise": "stepwise"}
FORMATS = {"table": [], "json": ["--format", "json-like"]}

_ROW = {"model": "final", "r2": 0.9, "n": 64,
        "coefficients": {"intercept": 0.4, "id_t": 0.25, "id_r": 0.45},
        "equation": "MT = 0.4000 + 0.2500*id_t + 0.4500*id_r"}
_STEP = {"action": "enter", "variable": "A", "f_stat": 120.5,
         "p_value": 1e-12, "r2": 0.61}
DOCUMENTS = {
    "comparison-bare": {"schema": "fitts3d.report/1"},
    "comparison-missing-optional": {
        "schema": "fitts3d.report/1",
        "models": [{"model": "fitts", "r2": 0.5, "n": 3,
                    "equation": "MT = 0.1000 + 0.2000*id"}]},
    "comparison-extra-keys": {
        "schema": "fitts3d.report/1", "n_trials": 256, "aggregate": False,
        "comment": "not part of the schema",
        "models": [dict(_ROW, note="dropped on re-render", dropped=[],
                        error=None, point_names=None, points=None)]},
    "comparison-empty-points": {
        "schema": "fitts3d.report/1", "n_trials": 4,
        "models": [dict(_ROW, dropped=None, point_names=[], points=[],
                        coefficients=None)]},
    "comparison-error-rows": {
        "schema": "fitts3d.report/1", "n_trials": 7, "aggregate": True,
        "models": [
            dict(_ROW, r2=1, n=4, dropped=["id_r"],
                 point_names=["id_t", "id_r", "mt"],
                 points=[[1.0, 2.0, 0.5], [2, 3, 1]]),
            {"model": "fitts", "r2": None, "n": None, "coefficients": None,
             "equation": None, "dropped": [],
             "error": "DomainError: id_fitts needs A >= 0 and W > 0",
             "point_names": None, "points": None},
            {"model": "welford", "error": "InsufficientData: too few rows",
             "r2": 0.25, "n": 3}]},
    "stepwise-no-r2": {
        "schema": "fitts3d.stepwise/1", "steps": [_STEP],
        "selected": ["A"], "contributions_percent": {"A": 61.0}},
    "stepwise-bare": {"schema": "fitts3d.stepwise/1"},
    "stepwise-sparse": {
        "schema": "fitts3d.stepwise/1", "extra": [1, 2],
        "steps": [{"action": "enter", "variable": "F"},
                  dict(_STEP, action="remove", note="x"),
                  {"action": "enter", "variable": "W", "f_stat": 3}],
        "selected": None, "contributions_percent": None, "r2": 0},
}


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    return rc, out.getvalue()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cli_digests(workdir) -> dict:
    """{"<cell>/<verb>/aggregate=<flag>": sha256 of stdout}."""
    digests = {}
    for experiment, interaction in CELLS:
        cell = f"{experiment}-{interaction}"
        log = Path(workdir) / f"{cell}.csv"
        rc, _ = _run(["generate", "--experiment", experiment,
                      "--interaction", interaction, "--seed", "0",
                      "--out", str(log)])
        assert rc == 0
        for flag in ("true", "false"):
            for verb, argv in VERBS.items():
                rc, out = _run(argv + [str(log), "--aggregate", flag])
                assert rc == 0, (cell, verb, flag)
                digests[f"{cell}/{verb}/aggregate={flag}"] = _digest(out)
            for name, verb in SAVED.items():
                doc = Path(workdir) / f"{cell}-{verb}-{flag}.json"
                rc, _ = _run([verb, str(log), "--aggregate", flag,
                              "--format", "json-like", "--out", str(doc)])
                assert rc == 0, (cell, verb, flag)
                for fmt, fmt_argv in FORMATS.items():
                    rc, out = _run(["report", str(doc)] + fmt_argv)
                    assert rc == 0, (cell, name, fmt, flag)
                    key = f"{cell}/{name}-{fmt}/aggregate={flag}"
                    digests[key] = _digest(out)
    return digests


def document_digests() -> dict:
    """{"documents/<name>/<format>": sha256 of render_document's text}."""
    return {f"documents/{name}/{fmt}": _digest(render_document(doc, fmt))
            for name, doc in DOCUMENTS.items()
            for fmt in ("table", "json-like")}


def _golden(documents: bool) -> dict:
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return {k: v for k, v in expected.items()
            if k.startswith("documents/") == documents}


def test_cli_outputs_match_golden(tmp_path):
    assert cli_digests(tmp_path) == _golden(documents=False)


def test_documents_match_golden():
    assert document_digests() == _golden(documents=True)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = cli_digests(tmp)
    digests.update(document_digests())
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
