"""In-memory span tracer that wraps fitts3d's layer functions from outside.

Each wrapped function records a span (name, start, end, parent) on
entry and exit. Hot leaf functions, called hundreds of thousands of
times per pass, are folded into one aggregate record per name instead
of one span per call; they still charge their time to the parent span,
so self time (duration minus time covered by child spans) stays exact.

Modules import functions by name (``from .metrics import
predictors_for``), so a function is replaced in every fitts3d module
that holds a reference to it, not only where it is defined.

This module imports only the standard library, so the child-side shim
can load it without pulling in numpy.
"""

import importlib
import json
import os
import sys
import time

# (layer, module, attribute or Class.method, aggregate?)
# Aggregated entries are the hot leaves; the rest keep one span per call.
WRAPPED = (
    ("cli", "fitts3d.cli", "main", False),
    ("synth", "fitts3d.synth", "build_grid", False),
    ("synth", "fitts3d.synth", "paper_scale_defaults", False),
    ("synth", "fitts3d.synth", "generate_trials", False),
    ("synth", "fitts3d.synth", "predict_mt", True),
    ("rng", "fitts3d.rng", "derive_stream_seed", True),
    ("rng", "fitts3d.rng", "Xoshiro256StarStar.__init__", True),
    ("rng", "fitts3d.rng", "Xoshiro256StarStar.random", True),
    ("rng", "fitts3d.rng", "Xoshiro256StarStar.normal", True),
    ("trial_io", "fitts3d.trial_io", "read_trials", False),
    ("trial_io", "fitts3d.trial_io", "read_poses", False),
    ("trial_io", "fitts3d.trial_io", "write_trials", False),
    ("tasks", "fitts3d.tasks", "classify_translation", True),
    ("tasks", "fitts3d.tasks", "classify_rotation", True),
    ("tasks", "fitts3d.tasks", "classify_combined", True),
    ("metrics", "fitts3d.metrics", "predictors_for", True),
    ("metrics", "fitts3d.metrics", "predictors_murata", True),
    ("metrics", "fitts3d.metrics", "predictors_cha_myung", True),
    ("regression", "fitts3d.regression", "compare_models", False),
    ("regression", "fitts3d.regression", "fit_model", False),
    ("regression", "fitts3d.regression", "condition_matrix", False),
    ("regression", "fitts3d.regression", "stepwise", False),
    ("regression", "fitts3d.regression", "ols_fit", False),
    ("regression", "fitts3d.regression", "partial_f_test", True),
    ("special", "fitts3d.special", "f_sf", True),
    ("special", "fitts3d.special", "f_cdf", True),
    ("special", "fitts3d.special", "regularized_incomplete_beta", True),
    ("report", "fitts3d.report", "build_comparison_report", False),
    ("report", "fitts3d.report", "render_comparison", False),
    ("report", "fitts3d.report", "render_stepwise", False),
    ("report", "fitts3d.report", "render_document", False),
)

LAYER_MODULES = tuple(sorted({m for _, m, _, _ in WRAPPED}))


def _file_size(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _count_rows(tracer, name, args, result):
    if name == "trial_io.read_trials":
        tracer.count("trial_io.rows_read", len(result.trials))
        tracer.count("trial_io.bytes_read", _file_size(args[0]))
    elif name == "trial_io.read_poses":
        tracer.count("trial_io.rows_read", len(result))
        tracer.count("trial_io.bytes_read", _file_size(args[0]))
    elif name == "trial_io.write_trials":
        tracer.count("trial_io.bytes_written", _file_size(args[0]))
    elif name == "synth.generate_trials":
        tracer.count("synth.trials", len(result))
    elif name == "regression.ols_fit":
        tracer.count("regression.ols_rows", int(args[0].values.shape[0]))
    elif name.startswith("report.render_"):
        tracer.count("report.bytes_out", len(result.encode("utf-8")))


class Tracer:
    """Span recorder for one process. Not thread-safe: fitts3d is
    single-threaded and so is every workload."""

    def __init__(self):
        self.spans = []      # finished full spans, in end order
        # name -> [calls, total_ns, self_ns, outer_calls, outer_ns]; "outer"
        # counts only calls with no caller of the same layer on the stack
        self.aggregates = {}
        self.counters = {}
        self._stack = []     # open frames: [id, layer, start_ns, child_ns]
        self._next_id = 1
        self._patches = []   # (owner, attribute, original)
        self.tag = None      # copied into every span, e.g. the pass index

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def reset(self):
        self.spans, self.aggregates, self.counters = [], {}, {}

    def _wrap(self, layer, attr, fn, aggregate):
        name = f"{layer}.{attr.rsplit('.', 1)[-1]}"
        tracer = self
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            outer = not any(f[1] == layer for f in stack)
            frame = [0, layer, clock(), 0]
            if not aggregate:
                frame[0] = tracer._next_id
                tracer._next_id += 1
            stack.append(frame)
            failed = False
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[2]
                if stack:
                    stack[-1][3] += dur
                agg = tracer.aggregates.setdefault(name, [0, 0, 0, 0, 0])
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[3]
                if outer:
                    agg[3] += 1
                    agg[4] += dur
                if failed:
                    tracer.count(name + ".errors")
                if not aggregate:
                    parent = next((f for f in reversed(stack) if f[0]), None)
                    tracer.spans.append({
                        "id": frame[0], "parent": parent[0] if parent else None,
                        "name": name, "start_ns": frame[2], "end_ns": end,
                        "self_ns": dur - frame[3], "tag": tracer.tag})
            _count_rows(tracer, name, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", attr)
        return wrapper

    def install(self):
        """Import every layer module and replace each wrapped function
        wherever a fitts3d module refers to it."""
        for mod in LAYER_MODULES:
            importlib.import_module(mod)
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "fitts3d" or n.startswith("fitts3d."))]
        for layer, mod_name, attr, aggregate in WRAPPED:
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(layer, attr, original, aggregate))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(layer, attr, original, aggregate)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    def dump(self):
        """Spans and aggregates as JSON-serialisable records."""
        records = list(self.spans)
        for name, values in sorted(self.aggregates.items()):
            records.append({"aggregate": name, "values": values, "tag": self.tag})
        records.append({"counters": dict(self.counters), "tag": self.tag})
        return records


_CLASSIFIERS = ("tasks.classify_translation", "tasks.classify_rotation",
                "tasks.classify_combined")


def layer_metrics(aggregates, counters):
    """Per-layer metrics of one traced unit of work (a pass, or set-up
    plus a pass) from the aggregates and counters a Tracer collected.

    Times are in ms. Sums over several functions of one layer use only
    outermost calls, so a function calling another of the same layer
    (classify_combined calls the other two classifiers) counts once.
    """
    zero = (0, 0, 0, 0, 0)

    def calls(name):
        return aggregates.get(name, zero)[0]

    def total_ms(name):
        return aggregates.get(name, zero)[1] / 1e6

    def outer_calls(*names):
        return sum(aggregates.get(n, zero)[3] for n in names)

    def outer_ms(*names):
        return sum(aggregates.get(n, zero)[4] for n in names) / 1e6

    def self_ms(prefix, exclude=()):
        return sum(v[2] for n, v in aggregates.items()
                   if n.startswith(prefix) and n not in exclude) / 1e6

    c = counters.get
    return {
        "metrics.predictors_ms": outer_ms("metrics.predictors_for",
                                          "metrics.predictors_murata",
                                          "metrics.predictors_cha_myung"),
        "metrics.predictor_calls": calls("metrics.predictors_for"),
        "regression.self_ms": self_ms("regression.", ("regression.ols_fit",)),
        "regression.ols_ms": total_ms("regression.ols_fit"),
        "regression.ols_calls": calls("regression.ols_fit"),
        "regression.ols_rows": c("regression.ols_rows", 0),
        "regression.stepwise_ms": total_ms("regression.stepwise"),
        "regression.fit_errors": c("regression.fit_model.errors", 0),
        "synth.self_ms": self_ms("synth."),
        "synth.trials": c("synth.trials", 0),
        "rng.self_ms": self_ms("rng."),
        "rng.streams": calls("rng.__init__"),
        # every uniform, including the two inside each normal()
        "rng.draws": calls("rng.random"),
        "trial_io.read_ms": outer_ms("trial_io.read_trials", "trial_io.read_poses"),
        "trial_io.write_ms": total_ms("trial_io.write_trials"),
        "trial_io.rows_read": c("trial_io.rows_read", 0),
        "trial_io.bytes_read": c("trial_io.bytes_read", 0),
        "trial_io.bytes_written": c("trial_io.bytes_written", 0),
        "special.f_sf_ms": total_ms("special.f_sf"),
        "special.f_sf_calls": calls("special.f_sf"),
        "report.build_ms": self_ms("report.build_comparison_report"),
        "report.render_ms": outer_ms("report.render_comparison",
                                     "report.render_stepwise",
                                     "report.render_document"),
        "report.bytes_out": c("report.bytes_out", 0),
        "tasks.classify_ms": outer_ms(*_CLASSIFIERS),
        "tasks.classify_calls": outer_calls(*_CLASSIFIERS),
    }


def merge(into, aggregates, counters):
    """Add one dump's aggregates and counters to running totals."""
    agg, cnt = into
    for name, values in aggregates.items():
        cur = agg.setdefault(name, [0, 0, 0, 0, 0])
        for i, v in enumerate(values):
            cur[i] += v
    for name, n in counters.items():
        cnt[name] = cnt.get(name, 0) + n


def split_records(records):
    """Inverse of Tracer.dump: (aggregates, counters) from records."""
    aggregates, counters = {}, {}
    for rec in records:
        if "aggregate" in rec:
            aggregates[rec["aggregate"]] = rec["values"]
        elif "counters" in rec:
            counters.update(rec["counters"])
    return aggregates, counters


def write_jsonl(path, records):
    with open(path, "a", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
