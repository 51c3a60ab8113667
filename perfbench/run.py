#!/usr/bin/env python3
"""fitts3d benchmark: time every CLI verb end to end and, in a traced
run, each layer of the package.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper_cli --seed 0 --seconds 55 --trace 0

Workloads (one client, one process, a closed loop over the units of a
pass, one unit at a time):

  paper_cli           the CLI as a subprocess on all 8 cells (e1-e4 x
                      pointing/manipulation) at paper scale; one unit per
                      cell runs generate, compare, fit, report, stepwise,
                      and one classify over a seeded pose file (48
                      invocations a pass).
  published_pertrial  the 8 cells at the published 4 800 trials each; one
                      unit per cell: its log is generated afresh (as
                      set-up), then in-process compare/fit/stepwise with
                      --aggregate false, and report.

published_pertrial also runs classify after each of those verbs.

Every time the end-to-end metrics report is scaled to a reference speed
of the machine: a fixed piece of work (see reference_work) is timed
before each invocation and around each unit, and each time is divided
by the speed at that moment, the median of the nearest reference
timings over REF_MS. The shared machine's speed drifts by tens of
percent within minutes, and the verbs and the reference slow down
together; the wall-clock figures are printed beside the scaled ones.

--trace 0 prints the end-to-end metrics; --trace 1 runs each unit
untraced and then traced, at least twice each, and prints the per-layer
metrics, writing the spans as JSON lines to .perfbench_out/. The last
line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. The exit code is non-zero when any invocation fails
or any correctness check misses.
"""

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

T0 = time.perf_counter()

from checks import (DEFAULT_SEED, check_final_fit, digest_key,  # noqa: E402
                    load_digests, sha256_file, sha256_text)
from tracer import Tracer, layer_metrics, merge, split_records, write_jsonl  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SHIM = os.path.join(HERE, "shim.py")

VERBS = ("generate", "compare", "fit", "stepwise", "report", "classify")
CELLS = tuple((e, i) for e in ("e1", "e2", "e3", "e4")
              for i in ("pointing", "manipulation"))
# repetitions per condition: the paper's grids, and the published 4 800
# trials per cell
PAPER_REPS = {"e1": 5, "e2": 5, "e3": 5, "e4": 4}
PUBLISHED_REPS = {"e1": 100, "e2": 100, "e3": 100, "e4": 75}
POSE_PAIRS = 400
MIN_ROUNDS = 2   # full passes a run makes at least
MIN_TRACED = 2   # traced runs of each unit, so that counts can be compared
REF_N = 100_000  # iterations of reference_work
REF_MS = 16.0    # about reference_work's median time, in ms, on the baseline machine
REF_WINDOW = 8   # a speed is the median of the reference timings this near it

# tiny sizes for the benchmark's own smoke test
SMOKE_CELLS = (("e3", "pointing"), ("e4", "manipulation"))
SMOKE_REPS = 2


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def env_stamp(seed):
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "commit": git_commit(),
            "seed": seed}


def git_commit():
    """HEAD of the checkout when it is a git work tree, else "unknown".
    Reads .git directly, so no enclosing repository is consulted."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "unknown"


def reference_work():
    """Fixed pure-Python work that does not touch fitts3d: float
    arithmetic and list and dict building, like the package's own loops.
    Its time says how fast the shared machine runs at that moment. It
    tracked the in-process verbs' times, and the CLI subprocesses', better
    than timing the start of a bare interpreter did."""
    x, groups = 0.3, {}
    for i in range(REF_N):
        x = 3.9 * x * (1.0 - x)
        groups.setdefault(i & 63, []).append(x)
    return len(groups)


class Run:
    """Samples, invocations and check outcomes of one benchmark run."""

    def __init__(self, seed, smoke, work):
        self.seed, self.smoke, self.work = seed, smoke, work
        self.samples = {v: [] for v in VERBS}  # ms at reference speed
        self.wall = {v: [] for v in VERBS}     # ms as measured
        # (verb, ms as measured, its place among the reference timings: i + 0.5
        # between timings i and i + 1) of every invocation, in order
        self.timings = []
        self.refs = []     # seconds, every reference_work timing
        self.ref_s = 0.0   # their sum
        # the sha256 of each invocation's output: holding the text of every
        # output would grow the harness's own memory with each pass
        self.ops = []
        self.failed = set()    # indices into ops
        self.problems = []
        self.checks = 0

    def reference(self):
        start = time.perf_counter()
        reference_work()
        took = time.perf_counter() - start
        self.refs.append(took)
        self.ref_s += took

    def speed(self, at):
        """The machine's speed at place at among the reference timings, as
        a factor (2.0: the reference took twice REF_MS): the median of
        the timings at most REF_WINDOW places away."""
        near = self.refs[max(0, math.ceil(at - REF_WINDOW)):math.floor(at + REF_WINDOW) + 1]
        return statistics.median(near) * 1e3 / REF_MS

    def timed(self, fn):
        """Seconds fn takes, without the reference timings made inside it."""
        ref_s = self.ref_s
        return timed(fn) - (self.ref_s - ref_s)

    def op(self, verb, fn):
        """Time one invocation, after a reference timing; fn returns
        (exit code, output text)."""
        self.reference()
        start = time.perf_counter()
        try:
            rc, out = fn()
        except Exception as exc:  # a traceback is a failed invocation, not a crash
            rc, out = -1, f"{type(exc).__name__}: {exc}"
        ms = (time.perf_counter() - start) * 1e3
        self.timings.append((verb, ms, len(self.refs) - 0.5))
        idx = len(self.ops)
        self.ops.append(sha256_text(out or ""))
        if rc != 0:
            self.fail(idx, f"{verb} exited {rc}: {out[-300:] if out else ''}")
        return idx

    def check(self, ok, idx, message):
        self.checks += 1
        if not ok:
            self.fail(idx, message)

    def fail(self, idx, message):
        self.failed.add(idx)
        self.problems.append(message)


# ---------------------------------------------------------------- inputs

def write_poses(path, seed):
    """A seeded pose-pair file: objects placed near their targets, some
    inside the tolerances and some outside, rotations near quarter turns."""
    rng = random.Random(seed)
    lines = ["ox,oy,oz,orx,ory,orz,tx,ty,tz,trx,try,trz,W_cm,omega_deg"]
    for _ in range(POSE_PAIRS):
        w = rng.choice((4.0, 8.0))
        omega = rng.choice((7.5, 15.0))
        target = [rng.uniform(-30.0, 30.0) for _ in range(3)]
        trot = [rng.uniform(-180.0, 180.0) for _ in range(3)]
        obj = [t + rng.uniform(-0.6 * w, 0.6 * w) for t in target]
        orot = [r + 90.0 * rng.randint(-2, 2) + rng.uniform(-1.5 * omega, 1.5 * omega)
                for r in trot]
        lines.append(",".join(repr(v) for v in obj + orot + target + trot + [w, omega]))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def generate_log(path, experiment, interaction, reps, seed):
    """Generate and write one log through the library, at any size."""
    from dataclasses import replace

    from fitts3d import synth, trial_io
    grid = replace(synth.build_grid(experiment, interaction), repetitions=reps)
    truth = replace(synth.paper_scale_defaults(experiment, interaction), seed=seed)
    trials = synth.generate_trials(grid, truth, interaction)
    trial_io.write_trials(path, trials, experiment)
    return 0, ""


def cli_inprocess(argv):
    import fitts3d.cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = fitts3d.cli.main(argv)
        except SystemExit as exc:  # argparse rejects a usage error this way
            rc = exc.code
    return rc, buf.getvalue()


def cli_subprocess(argv, shim_out=None):
    """The CLI as a user starts it; through the tracing shim when
    shim_out names the file the child writes its spans to."""
    if shim_out is None:
        cmd = [sys.executable, "-m", "fitts3d.cli"] + argv
    else:
        cmd = [sys.executable, SHIM, "trace", shim_out] + argv
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=120)
    return proc.returncode, proc.stdout if proc.returncode == 0 else proc.stderr


# ------------------------------------------------------------- workloads

class Workload:
    """Set-up and the units of work one full pass is made of; subclasses
    fill in the verbs. A run goes through the units in turn, so that many
    short samples, rather than a few whole passes, fill the measuring time."""

    inprocess = True

    def __init__(self, run):
        self.run = run
        self.digests = {}   # log name -> [(op, digest key, sha256)], one per run of it
        self.outputs = {}   # (verb, name) -> ops whose output must not change
        self.fit_docs = {}  # name -> (fit op, document, csv path, aggregate flag), last run
        self.compare_vs_report = []  # (compare op, report op)
        # subprocess workloads only: (aggregates, counters) totals and a
        # record list the tracing shim's output is added to, when traced
        self.shim_sink = None

    def path(self, name):
        return os.path.join(self.run.work, name)

    def units(self):
        raise NotImplementedError

    def setup(self):
        write_poses(self.path("poses.csv"), self.run.seed)

    def setup_unit(self, unit):
        """Set-up one unit needs just before it runs; timed as set-up."""

    def run_unit(self, unit):
        raise NotImplementedError

    def cli(self, verb, argv):
        if self.inprocess:
            return self.run.op(verb, lambda: cli_inprocess(argv))
        if self.shim_sink is None:
            return self.run.op(verb, lambda: cli_subprocess(argv))
        shim_out = self.path(f"spans-{len(self.run.ops)}.json")
        idx = self.run.op(verb, lambda: cli_subprocess(argv, shim_out))
        totals, records, tag = self.shim_sink
        try:
            with open(shim_out, encoding="utf-8") as fh:
                recs = json.load(fh)
        except (OSError, ValueError):
            self.run.fail(idx, f"{verb}: tracing shim wrote no spans")
            return idx
        for rec in recs:
            rec["tag"] = f"{tag}/op{idx}"
        merge(totals, *split_records(recs))
        records.extend(recs)
        return idx

    def note_log(self, idx, name, key):
        self.digests.setdefault(name, []).append((idx, key, sha256_file(self.path(name))))

    def keep(self, kind, name, idx):
        self.outputs.setdefault((kind, name), []).append(idx)

    def analyse(self, name, aggregate):
        """compare, fit --out, stepwise and report on one log; keeps
        what the checks need."""
        agg = [] if aggregate else ["--aggregate", "false"]
        csv_path = self.path(name + ".csv")
        doc = self.path(name + ".fit.json")
        c = self.cli("compare", ["compare", csv_path] + agg)
        self.spread_classify()
        f = self.cli("fit", ["fit", csv_path, "--format", "json-like", "--out", doc] + agg)
        if f not in self.run.failed:
            self.run.ops[f] = sha256_file(doc)  # the document is fit's output
        self.fit_docs[name] = (f, doc, csv_path, aggregate)
        self.spread_classify()
        s = self.cli("stepwise", ["stepwise", csv_path] + agg)
        self.spread_classify()
        r = self.cli("report", ["report", doc])
        self.spread_classify()
        self.compare_vs_report.append((c, r))
        self.keep("fit", name, f)
        self.keep("stepwise", name, s)

    def classify(self):
        self.keep("classify", "poses", self.cli("classify", ["classify", self.path("poses.csv")]))

    def spread_classify(self):
        """In-process workloads classify after every other verb: one call
        takes ~15 ms, and samples spread over the run average the CPU's
        speed changes as the other verbs' samples do. paper_cli runs one
        classify subprocess after each cell, for the same reason."""
        if self.inprocess:
            self.classify()

    def check(self, digests):
        """Correctness gate over everything the runs produced. Outputs
        are compared by sha256; the last fit document of each log is
        read back from its file."""
        run = self.run
        for name, seen in self.digests.items():
            first = seen[0][2]
            for idx, key, digest in seen:
                run.check(digest == first, idx, f"{name}: sha256 changed between passes")
                if run.seed == DEFAULT_SEED:
                    run.check(digests.get(key) == digest, idx,
                              f"{name}: sha256 {digest} != recorded {digests.get(key)} ({key})")
        for (kind, name), idxs in self.outputs.items():
            first = run.ops[idxs[0]]
            for idx in idxs:
                run.check(run.ops[idx] == first, idx,
                          f"{kind} {name}: output changed between passes")
        for c, r in self.compare_vs_report:
            run.check(run.ops[c] == run.ops[r], r,
                      "report table of the fit document differs from the compare table")
        for name, (idx, doc, csv_path, aggregate) in self.fit_docs.items():
            try:
                with open(doc, encoding="utf-8") as fh:
                    problems = check_final_fit(json.load(fh), csv_path, aggregate)
            except (ValueError, KeyError, OSError) as exc:
                problems = [f"unreadable fit document: {exc}"]
            run.check(not problems, idx, f"{name}: " + "; ".join(problems))


class PaperCli(Workload):
    """Units: the cells, each its five verbs and then one classify."""

    inprocess = False

    def units(self):
        cells = SMOKE_CELLS[-1:] if self.run.smoke else CELLS
        return [f"{e}-{i}" for e, i in cells]

    def setup(self):
        super().setup()
        # a first import compiles the package's bytecode, as an install would
        subprocess.run([sys.executable, "-c", "import fitts3d.cli"], cwd=ROOT,
                       env=child_env(), check=True, timeout=120)

    def run_unit(self, unit):
        e, i = unit.split("-")
        idx = self.cli("generate", ["generate", "--experiment", e, "--interaction", i,
                                    "--seed", str(self.run.seed),
                                    "--out", self.path(unit + ".csv")])
        self.note_log(idx, unit + ".csv", digest_key(e, i, PAPER_REPS[e], self.run.seed))
        self.analyse(unit, aggregate=True)
        self.classify()


class PublishedPerTrial(Workload):
    """Units: the cells. Each cell's log is generated afresh just before
    its analysis, as set-up, so generate samples spread over the run like
    the others."""

    def units(self):
        cells = SMOKE_CELLS if self.run.smoke else CELLS
        return [f"{e}-{i}" for e, i in cells]

    def reps(self, e):
        return SMOKE_REPS if self.run.smoke else PUBLISHED_REPS[e]

    def setup_unit(self, unit):
        e, i = unit.split("-")
        name = unit + ".csv"
        idx = self.run.op("generate", lambda: generate_log(
            self.path(name), e, i, self.reps(e), self.run.seed))
        self.note_log(idx, name, digest_key(e, i, self.reps(e), self.run.seed))

    def run_unit(self, unit):
        self.analyse(unit, aggregate=False)


WORKLOAD_CLASSES = {"paper_cli": PaperCli, "published_pertrial": PublishedPerTrial}


# ------------------------------------------------------------ measuring

def timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def time_left(deadline, last):
    """Whether another step like the last one ends before the deadline."""
    return time.perf_counter() + last <= deadline


def sum_over_units(per_unit, stat):
    """A full pass's figure from per-unit samples: stat of each unit's
    samples, summed over the units."""
    return math.fsum(stat(samples) for samples in per_unit.values())


def run_passes(wl, seconds, smoke):
    """Run the units in turn until the measuring time is used: at least
    MIN_ROUNDS full passes (one in smoke mode). The general set-up starts
    every pass and each unit's own set-up comes just before it, so the
    set-up samples are spread over the run like the units'. A reference
    timing starts and ends each step (set-ups and a unit), besides the
    one before each invocation; each invocation is scaled by the speed at its place
    among the reference timings, and each step by the speed at its
    middle. Returns the steps' speeds and, in seconds at reference
    speed, the general set-up times and, per unit, its set-up and run
    times."""
    run = wl.run
    units = wl.units()
    steps = []
    rounds = 1 if smoke else MIN_ROUNDS
    deadline = time.perf_counter() + seconds
    for k in itertools.count(1):
        i = (k - 1) % len(units)
        u = units[i]
        start = time.perf_counter()
        run.reference()
        first_ref = len(run.refs) - 1
        times = (run.timed(wl.setup) if i == 0 else None,
                 run.timed(lambda: wl.setup_unit(u)), run.timed(lambda: wl.run_unit(u)))
        run.reference()
        steps.append((u, (first_ref + len(run.refs) - 1) / 2, times))
        if k >= rounds * len(units) and (
                smoke or not time_left(deadline, time.perf_counter() - start)):
            break
    for verb, ms, at in run.timings:
        run.wall[verb].append(ms)
        run.samples[verb].append(ms / run.speed(at))
    speeds, setups = [], []
    unit_setups = {u: [] for u in units}
    unit_runs = {u: [] for u in units}
    for u, at, (setup, unit_setup, unit_run) in steps:
        speed = run.speed(at)
        speeds.append(speed)
        if setup is not None:
            setups.append(setup / speed)
        unit_setups[u].append(unit_setup / speed)
        unit_runs[u].append(unit_run / speed)
    return speeds, setups, unit_setups, unit_runs


def timed_cmd(cmd, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=child_env(), check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def probe_cli(wl):
    """cli.* metrics: interpreter start, package import, and how many
    modules each verb's process loads (numpy among them or not), from
    clean child processes with no tracing installed."""
    run = wl.run
    probe = os.path.join(run.work, "probe")
    os.makedirs(probe, exist_ok=True)
    log = os.path.join(probe, "e4.csv")
    doc = os.path.join(probe, "e4.fit.json")
    verbs = (("generate", ["generate", "--experiment", "e4", "--interaction", "pointing",
                           "--seed", str(run.seed), "--out", log]),
             ("compare", ["compare", log]),
             ("fit", ["fit", log, "--format", "json-like", "--out", doc]),
             ("report", ["report", doc]),
             ("stepwise", ["stepwise", log]),
             ("classify", ["classify", wl.path("poses.csv")]))
    metrics = {"cli.interp_ms": timed_cmd([sys.executable, "-c", "pass"], 5),
               "cli.import_ms": timed_cmd([sys.executable, "-c", "import fitts3d"], 5)}
    numpy_verbs = 0
    for verb, argv in verbs:
        out = os.path.join(probe, verb + ".json")

        def count(argv=argv, out=out):
            proc = subprocess.run([sys.executable, SHIM, "count", out] + argv, cwd=ROOT,
                                  env=child_env(), stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=120)
            return proc.returncode, proc.stderr
        idx = run.op(verb, count)
        try:
            with open(out, encoding="utf-8") as fh:
                seen = json.load(fh)
        except (OSError, ValueError):
            run.fail(idx, f"module probe for {verb} wrote nothing")
            seen = {"modules": 0, "numpy": False}
        metrics[f"cli.modules_loaded.{verb}"] = seen["modules"]
        numpy_verbs += bool(seen["numpy"])
    metrics["cli.numpy_verbs"] = numpy_verbs
    return metrics


def traced_run(wl, seconds, smoke, trace_path):
    """Run each unit in turn untraced and then traced, until the measuring
    time is used and every unit has been traced MIN_TRACED times, so that
    its counts can be compared. Per-layer values are the traced general
    set-up plus, summed over the units, the median over each unit's
    traced runs (its set-up included)."""
    run = wl.run
    tracer = Tracer()
    records = []
    setup_layers = layer_metrics({}, {})
    if wl.inprocess:
        tracer.tag = "setup"
        tracer.install()
        try:
            wl.setup()
        finally:
            tracer.uninstall()
        setup_layers = layer_metrics(tracer.aggregates, tracer.counters)
        records += tracer.dump()
        tracer.reset()
    else:
        wl.setup()
    units = wl.units()
    plain = {u: [] for u in units}
    traced = {u: [] for u in units}
    per_unit = {u: [] for u in units}
    deadline = time.perf_counter() + seconds
    for k in itertools.count(1):
        u = units[(k - 1) % len(units)]
        wl.setup_unit(u)
        plain[u].append(run.timed(lambda: wl.run_unit(u)))
        tag = f"{u}/pass{len(traced[u])}"
        if wl.inprocess:
            tracer.tag = tag
            tracer.install()
            try:
                wl.setup_unit(u)
                traced[u].append(run.timed(lambda: wl.run_unit(u)))
            finally:
                tracer.uninstall()
            per_unit[u].append(layer_metrics(tracer.aggregates, tracer.counters))
            records += tracer.dump()
            tracer.reset()
        else:
            totals = ({}, {})
            wl.shim_sink = (totals, records, tag)
            wl.setup_unit(u)
            traced[u].append(run.timed(lambda: wl.run_unit(u)))
            wl.shim_sink = None
            per_unit[u].append(layer_metrics(*totals))
        if k < MIN_TRACED * len(units):
            continue
        nxt = units[k % len(units)]
        if smoke or not time_left(deadline, plain[nxt][-1] + traced[nxt][-1]):
            break
    metrics = {}
    for name, base in setup_layers.items():
        for u, seen in per_unit.items():
            values = [p[name] for p in seen]
            if not name.endswith("_ms"):
                # counts are deterministic: every traced run of a unit
                # must see the same work
                run.check(len(set(values)) == 1, len(run.ops) - 1,
                          f"count {name} of {u} differs between passes: {values}")
        metrics[name] = base + math.fsum(statistics.median(p[name] for p in seen)
                                         for seen in per_unit.values())
    metrics.update(probe_cli(wl))
    metrics["trace.overhead_frac"] = (sum_over_units(traced, statistics.median)
                                      / sum_over_units(plain, statistics.median) - 1.0)
    write_jsonl(trace_path, records)
    return metrics, {u: len(v) for u, v in traced.items()}


def unit_of(name):
    if name.endswith("_ms") or "_ms." in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if ".bytes" in name:
        return "bytes"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_CLASSES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one pass, for the benchmark's own test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fitts3d", "__init__.py")):
        print(f"error: no fitts3d package under {SRC}", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    work = os.path.join(OUT, f"{tag}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        return measure(args, work, os.path.join(OUT, f"trace-{tag}.jsonl"))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work, trace_path):
    run = Run(args.seed, args.smoke, work)
    wl = WORKLOAD_CLASSES[args.workload](run)
    if wl.inprocess:
        import fitts3d.cli  # noqa: F401  (import is part of set-up)
    import_s = time.perf_counter() - T0
    run.reference()

    if args.trace:
        if os.path.exists(trace_path):
            os.remove(trace_path)
        metrics, counts = traced_run(wl, args.seconds, args.smoke, trace_path)
        unit_runs, speeds = {}, []
        runs_note = f"traced runs per unit: {counts} (each after an untraced run)"
    else:
        speeds, setups, unit_setups, unit_runs = run_passes(wl, args.seconds, args.smoke)
        who = resource.RUSAGE_SELF if wl.inprocess else resource.RUSAGE_CHILDREN
        median = statistics.median
        metrics = {"setup_s": (import_s / run.speed(0) + median(setups)
                               + sum_over_units(unit_setups, median)),
                   "pass_s": sum_over_units(unit_runs, median),
                   "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0}
        for verb in VERBS:
            metrics[f"{verb}_ms.p50"] = median(run.samples[verb])
        counts = {u: len(v) for u, v in unit_runs.items()}
        runs_note = f"runs per unit: {counts}"

    wl.check(load_digests())

    stamp = env_stamp(args.seed)
    attempted, failed = len(run.ops), len(run.failed)
    correct = failed == 0 and run.checks > 0
    print("env: " + json.dumps(stamp, sort_keys=True))
    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}  {runs_note}")
    if not args.trace:
        print("  samples per verb: "
              + ", ".join(f"{verb}={len(run.samples[verb])}" for verb in VERBS))
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {unit_of(name)}")
    if not args.trace:
        print(f"  machine speed (reference time / {REF_MS} ms), per step: median "
              f"{statistics.median(speeds):.3f}, range {min(speeds):.3f}-{max(speeds):.3f}")
        print("  wall clock, not scaled, median ms: "
              + ", ".join(f"{verb}={statistics.median(run.wall[verb]):.6g}" for verb in VERBS))
    print(f"  ops_failed_frac = {failed / attempted:.6g} ratio  ({failed}/{attempted})")
    print(f"checks: {run.checks} run, {len(run.problems)} missed")
    for problem in run.problems[:20]:
        print(f"  MISS: {problem}", file=sys.stderr)

    with open(os.path.join(OUT, "runs.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"env": stamp, "workload": args.workload, "seconds": args.seconds,
                             "trace": args.trace, "smoke": args.smoke, "runs_per_unit": counts,
                             "samples_ms": run.samples, "wall_ms": run.wall,
                             "unit_runs_s": unit_runs, "speeds": speeds,
                             "refs_s": run.refs, "timings": run.timings,
                             "metrics": metrics, "attempted": attempted, "failed": failed,
                             "problems": run.problems[:20]}) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit_of(name)}
                                  for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
