"""Command line interface.

Verbs: generate, classify, fit, stepwise, compare, report. Exit codes:
0 success, 1 runtime failure (bad data, numerical degeneracy, missing
file), 2 usage error.
"""

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .errors import Fitts3dError
from .metrics import MODEL_ORDER, ModelKind
from .regression import STEPWISE_CANDIDATES, ConditionTable, condition_matrix, stepwise
from .report import (FORMATS, JSON_FORMAT, TABLE_FORMAT, build_comparison_report,
                     render_comparison, render_document, render_stepwise)
from .synth import Experiment, build_grid, generate_trials, paper_scale_defaults
from .tasks import InteractionKind, classify_combined, classify_rotation, classify_translation
from .trial_io import POSE_CSV_HEADER, read_poses, read_trials, write_trials

_EXPERIMENTS = tuple(e.value for e in Experiment)
_INTERACTIONS = tuple(i.value for i in InteractionKind)
_MODEL_NAMES = tuple(k.value for k in MODEL_ORDER)


class _UsageError(Exception):
    pass


def _emit(text: str, out_path) -> None:
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _parse_bool(token: str) -> bool:
    return token == "true"


def _parse_models(spec: str):
    if spec.strip() == "all":
        return MODEL_ORDER
    names = [t.strip() for t in spec.split(",") if t.strip()]
    if not names:
        raise _UsageError("no models given")
    kinds = []
    for name in names:
        try:
            kind = ModelKind(name)
        except ValueError:
            raise _UsageError(
                f"unknown model {name!r}; choose from {', '.join(_MODEL_NAMES)}") from None
        if kind not in kinds:
            kinds.append(kind)
    return tuple(kinds)


def _parse_candidates(spec: str):
    names = [t.strip() for t in spec.split(",") if t.strip()]
    if not names:
        raise _UsageError("no candidate variables given")
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise _UsageError(f"duplicate candidate names: {', '.join(dupes)}")
    unknown = [n for n in names if n not in STEPWISE_CANDIDATES]
    if unknown:
        raise _UsageError(
            f"unknown candidates: {', '.join(unknown)}; "
            f"choose from {', '.join(STEPWISE_CANDIDATES)}")
    return tuple(names)


def _cmd_generate(args) -> int:
    experiment = Experiment(args.experiment)
    interaction = InteractionKind(args.interaction)
    truth = paper_scale_defaults(experiment, interaction)
    overrides = {"seed": args.seed}
    if args.noise_sd is not None:
        overrides["noise_sd"] = args.noise_sd
    if args.error_rate is not None:
        overrides["error_rate"] = args.error_rate
    truth = replace(truth, **overrides)
    grid = build_grid(experiment, interaction)
    trials = generate_trials(grid, truth, interaction)
    write_trials(args.out, trials, experiment)
    print(f"wrote {len(trials)} trials "
          f"({len(grid.variations)} conditions x {grid.repetitions} repetitions) "
          f"to {args.out}")
    return 0


def _cmd_classify(args) -> int:
    rows = read_poses(args.input)
    lines = [POSE_CSV_HEADER + ",trans_success,rot_success,combined_success"]
    for obj, target, w, omega in rows:
        t = classify_translation(obj, target, w)
        r = classify_rotation(obj, target, omega)
        c = classify_combined(obj, target, w, omega)
        vals = [repr(v) for v in obj.position + obj.rotation
                + target.position + target.rotation] + [repr(w), repr(omega)]
        lines.append(",".join(vals + [str(int(t)), str(int(r)), str(int(c))]))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_fit(args) -> int:
    kinds = _parse_models(args.models)
    log = read_trials(args.input)
    report = build_comparison_report(log.trials, kinds,
                                     aggregate=_parse_bool(args.aggregate),
                                     include_points=args.format == JSON_FORMAT)
    _emit(render_comparison(report, args.format), args.out)
    return 0


def _cmd_compare(args) -> int:
    log = read_trials(args.input)
    report = build_comparison_report(log.trials, MODEL_ORDER,
                                     aggregate=_parse_bool(args.aggregate),
                                     include_points=False)
    _emit(render_comparison(report, args.format), args.out)
    return 0


def _cmd_stepwise(args) -> int:
    candidates = _parse_candidates(args.candidates)
    log = read_trials(args.input)
    table = ConditionTable(log.trials, _parse_bool(args.aggregate))
    X, y = condition_matrix(table, candidates)
    sw = stepwise(X, y)
    _emit(render_stepwise(sw, args.format), args.out)
    return 0


def _cmd_report(args) -> int:
    with open(args.input, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise Fitts3dError(f"not a JSON document: {exc}") from None
    _emit(render_document(doc, args.format), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fitts3d",
        description="Movement-time models for 3D pointing and manipulation")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("generate", help="synthesize a trial log for one experiment")
    p.add_argument("--experiment", required=True, choices=_EXPERIMENTS)
    p.add_argument("--interaction", required=True, choices=_INTERACTIONS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise-sd", type=float, default=None,
                   help="per-trial noise sd in seconds (default 0.2)")
    p.add_argument("--error-rate", type=float, default=None,
                   help="error trial probability (default: published rate)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("classify", help="success classification for pose pairs")
    p.add_argument("input", help="pose CSV file")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("fit", help="fit movement-time models to a trial log")
    p.add_argument("input", help="trial CSV file")
    p.add_argument("--models", default="all",
                   help="comma list of models, or 'all'")
    p.add_argument("--aggregate", choices=("true", "false"), default="true")
    p.add_argument("--format", choices=FORMATS, default=TABLE_FORMAT)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("stepwise", help="stepwise variable selection on a trial log")
    p.add_argument("input", help="trial CSV file")
    p.add_argument("--candidates", default=",".join(STEPWISE_CANDIDATES),
                   help="comma list from {%s}" % ", ".join(STEPWISE_CANDIDATES))
    p.add_argument("--aggregate", choices=("true", "false"), default="true")
    p.add_argument("--format", choices=FORMATS, default=TABLE_FORMAT)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_stepwise)

    p = sub.add_parser("compare", help="rank all seven models on a trial log")
    p.add_argument("input", help="trial CSV file")
    p.add_argument("--aggregate", choices=("true", "false"), default="true")
    p.add_argument("--format", choices=FORMATS, default=TABLE_FORMAT)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("report", help="re-render a saved JSON report")
    p.add_argument("input", help="report JSON file")
    p.add_argument("--format", choices=FORMATS, default=TABLE_FORMAT)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc.filename}", file=sys.stderr)
        return 1
    except (Fitts3dError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
