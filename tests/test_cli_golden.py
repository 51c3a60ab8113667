"""CLI outputs pinned to recorded sha256 digests.

For every paper-scale cell (e1-e4 x pointing/manipulation) at seed 0
and for both --aggregate values, the stdout of `compare`, `fit`
(table and json-like) and `stepwise` must match tests/data/cli_golden.json
byte for byte. Re-record (only when an output change is intended) with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from fitts3d.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

CELLS = [(e, i) for e in ("e1", "e2", "e3", "e4")
         for i in ("pointing", "manipulation")]
VERBS = {
    "compare": ["compare"],
    "fit-json": ["fit", "--format", "json-like"],
    "fit-table": ["fit"],
    "stepwise": ["stepwise"],
}


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    return rc, out.getvalue()


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
        for verb, argv in VERBS.items():
            for flag in ("true", "false"):
                rc, out = _run(argv + [str(log), "--aggregate", flag])
                assert rc == 0, (cell, verb, flag)
                key = f"{cell}/{verb}/aggregate={flag}"
                digests[key] = hashlib.sha256(out.encode("utf-8")).hexdigest()
    return digests


def test_cli_outputs_match_golden(tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert cli_digests(tmp_path) == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = cli_digests(tmp)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
