"""CLI and report outputs pinned to recorded sha256 digests.

For every paper-scale cell (e1-e4 x pointing/manipulation) at seed 0
and for both --aggregate values, the stdout of `compare`, `fit` and
`stepwise` (table and json-like each) and of `fitts3d report` on the
saved fit and stepwise documents (table and json-like each) must match
tests/data/cli_golden.json byte for byte. So must `render_document` on
a set of hand-written, non-canonical documents (missing optional keys,
extra keys, empty points, error rows, a stepwise document without r2).
So must the stdout of `classify` on a seeded pose file of edge values
(see tests/pose_oracle.py), written with LF and with CRLF line endings.

The fixture holds one digest per distinct output. An output that must
be a byte copy of another (IDENTITIES: `fit`'s table is `compare`'s,
`report` gives back what the verb that saved the document printed, and
`classify` reads CRLF as LF) is asserted equal to it by name, and is
not recorded. Re-record (only when an output change is intended) with

    PYTHONPATH=src python tests/test_cli_golden.py

which checks every identity first, and writes nothing and exits 1 when
one fails.
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
from cells import CELLS
from pose_oracle import edge_pose_rows, pose_file_text

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

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
# `classify` input -> its line ending; both hold edge_pose_rows(0)
POSE_FILES = {"poses-lf": "\n", "poses-crlf": "\r\n"}
# an output that copies another -> (the output it copies, the identity);
# an output is named by the middle part of its key
IDENTITIES = {
    "fit-table": ("compare", "`fit` (table) prints `compare`'s table"),
    "report-fit-table": (
        "compare", "`report` on the saved fit document prints `compare`'s table"),
    "report-fit-json": (
        "fit-json", "`report --format json-like` gives back the saved fit document"),
    "report-stepwise-table": (
        "stepwise",
        "`report` on the saved stepwise document prints `stepwise`'s table"),
    "report-stepwise-json": (
        "stepwise-json",
        "`report --format json-like` gives back the saved stepwise document"),
    "poses-crlf": (
        "poses-lf", "`classify` prints the same for a CRLF pose file as for LF"),
}

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
    """{"<cell>/<output>/aggregate=<flag>" or "classify/<pose file>":
    sha256 of stdout}, for every output, copies included."""
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
    for name, newline in POSE_FILES.items():
        rc, out = _run(["classify", str(write_pose_file(workdir, name, newline))])
        assert rc == 0, name
        digests[f"classify/{name}"] = _digest(out)
    return digests


def write_pose_file(workdir, name, newline) -> Path:
    path = Path(workdir) / f"{name}.csv"
    path.write_bytes(pose_file_text(edge_pose_rows(0), newline).encode("utf-8"))
    return path


def document_digests() -> dict:
    """{"documents/<name>/<format>": sha256 of render_document's text}."""
    return {f"documents/{name}/{fmt}": _digest(render_document(doc, fmt))
            for name, doc in DOCUMENTS.items()
            for fmt in ("table", "json-like")}


def kept_digests(digests: dict) -> tuple[dict, list[str]]:
    """The digests the fixture holds (every output no identity names as
    a copy), and a line for each identity that fails, naming the cell
    and the --aggregate flag."""
    kept, broken = {}, []
    for key, digest in digests.items():
        parts = key.split("/")
        if parts[1] not in IDENTITIES:
            kept[key] = digest
            continue
        parts[1], identity = IDENTITIES[parts[1]]
        if digest != digests["/".join(parts)]:
            where = (parts[0] if len(parts) == 2 else
                     f"{parts[0]} --aggregate {parts[2].partition('=')[2]}")
            broken.append(f"{where}: {identity}")
    return kept, broken


def _golden(documents: bool) -> dict:
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return {k: v for k, v in expected.items()
            if k.startswith("documents/") == documents}


def test_cli_outputs_match_golden(tmp_path):
    kept, broken = kept_digests(cli_digests(tmp_path))
    assert not broken, "\n".join(broken)
    assert kept == _golden(documents=False)


def test_documents_match_golden():
    assert document_digests() == _golden(documents=True)


def test_out_files_hold_the_golden_bytes(tmp_path):
    # --out writes what stdout shows; the digests are of stdout
    golden = _golden(documents=False)
    cell = "e4-manipulation"
    log = tmp_path / f"{cell}.csv"
    assert _run(["generate", "--experiment", "e4", "--interaction",
                 "manipulation", "--seed", "0", "--out", str(log)])[0] == 0
    poses = write_pose_file(tmp_path, "poses-crlf", "\r\n")
    saved = tmp_path / "saved.json"
    fit = ["fit", str(log), "--aggregate", "false", "--format", "json-like"]
    assert _run(fit + ["--out", str(saved)])[0] == 0
    runs = {  # the golden key of each run's stdout (IDENTITIES) -> its argv
        f"{cell}/fit-json/aggregate=false": fit,
        f"{cell}/compare/aggregate=true": ["compare", str(log)],
        f"{cell}/stepwise-json/aggregate=true":
            ["stepwise", str(log), "--format", "json-like"],
        f"{cell}/compare/aggregate=false": ["report", str(saved)],
        "classify/poses-lf": ["classify", str(poses)],
    }
    for key, argv in runs.items():
        out = tmp_path / "verb.out"
        rc, stdout = _run(argv)
        assert rc == 0 and _run(argv + ["--out", str(out)]) == (0, "")
        assert out.read_bytes() == stdout.encode("utf-8"), key
        assert _digest(stdout) == golden[key], key


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests, broken = kept_digests(cli_digests(tmp))
    if broken:
        sys.exit("identities fail, nothing written:\n" + "\n".join(broken))
    digests.update(document_digests())
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
