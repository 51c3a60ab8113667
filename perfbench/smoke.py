"""Smoke test of the benchmark itself: tiny inputs, one pass per workload.

    python3 perfbench/smoke.py          (or: python3 -m pytest perfbench/smoke.py)

For every workload, untraced and traced, it checks that the run exits 0,
that the last stdout line is the result object, and that every metric
BENCHMARK.json names is printed, by name with its unit, in the text
and in the result. It then runs the benchmark in-process with corrupted
log digests and checks that the correctness gate fails the run.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import run

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ARGS = ("--seed", "0", "--seconds", "1", "--smoke")


def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--trace", str(trace), *ARGS],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc, lines, json.loads(lines[-1]) if lines else None


def test_smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc, lines, result = bench(workload, trace)
            where = f"{workload} --trace {trace}"
            assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
            assert result["correct"] and result["failed"] == 0, where
            assert result["attempted"] >= 1, where
            assert any(line.startswith("checks: ") and not line.startswith("checks: 0 ")
                       for line in lines), f"{where}: correctness gate did not run"
            text = "\n".join(lines[:-1])
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            assert set(result["metrics"]) == set(wanted), where
            for name, unit in wanted.items():
                assert result["metrics"][name]["unit"] == unit, f"{where}: {name}"
                assert f"  {name} = " in text and text.split(f"  {name} = ", 1)[1] \
                    .split("\n", 1)[0].endswith(" " + unit), f"{where}: {name} not printed"

    def corrupted_digests():
        return {key: "0" * 64 for key in load_digests()}

    load_digests = run.load_digests
    run.load_digests = corrupted_digests
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            rc = run.main(["--workload", "published_pertrial", "--trace", "0", *ARGS])
    finally:
        run.load_digests = load_digests
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert rc == 1, "a digest mismatch must fail the run"
    assert result["correct"] is False and result["failed"] > 0


if __name__ == "__main__":
    test_smoke()
    print("smoke: ok")
