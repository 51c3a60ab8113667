"""Command line interface.

Verbs: generate, classify, fit, stepwise, compare, report. Exit codes:
0 success, 1 runtime failure (bad data, a log that cannot be grouped
into conditions, numerical degeneracy, missing file), 2 usage error.

Each verb imports the modules it runs inside its function, and the
parser takes its choices from fitts3d.constants, which imports only
enum. So report loads only cli, errors, constants and report, and
classify only those three and poses, neither of them dataclasses;
generate adds tasks, trial_io, synth and the layers it builds on; only
the verbs that fit (fit, compare, stepwise) import regression, and with
it numpy, after their other modules.
"""

import argparse
import sys

from .constants import (FORMATS, JSON_FORMAT, STEPWISE_CANDIDATES,
                        TABLE_FORMAT, Experiment, InteractionKind)
from .errors import Fitts3dError

_EXPERIMENTS = tuple(e.value for e in Experiment)
_INTERACTIONS = tuple(i.value for i in InteractionKind)


class _UsageError(Exception):
    pass


def _emit(out_path, *parts: str) -> None:
    """Write the parts of a verb's output, all made before the file is
    opened, to out_path or else to stdout."""
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.writelines(parts)
    else:
        sys.stdout.writelines(parts)


def _parse_models(spec: str):
    from .metrics import MODEL_ORDER, ModelKind

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
                f"unknown model {name!r}; choose from "
                f"{', '.join(k.value for k in MODEL_ORDER)}") from None
        if kind not in kinds:
            kinds.append(kind)
    return tuple(kinds)


def _parse_candidates(spec: str):
    from .tasks import check_candidates

    try:
        return check_candidates(t.strip() for t in spec.split(",") if t.strip())
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _cmd_generate(args) -> int:
    from dataclasses import replace

    from .synth import build_grid, generate_trials, paper_scale_defaults
    from .trial_io import write_trials

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
    log = generate_trials(grid, truth, interaction)
    write_trials(args.out, log, experiment)
    print(f"wrote {len(log)} trials "
          f"({len(grid.variations)} conditions x {grid.repetitions} repetitions) "
          f"to {args.out}")
    return 0


def _cmd_classify(args) -> int:
    from .poses import classified_csv, read_pose_columns

    _emit(args.out, classified_csv(read_pose_columns(args.input)))
    return 0


def _read_table(args):
    """The input log as a ConditionTable, grouped as --aggregate says;
    raises if it cannot be."""
    from .regression import ConditionTable
    from .trial_io import read_trials

    return ConditionTable(read_trials(args.input), args.aggregate == "true")


def _cmd_fit(args) -> int:
    from .report import _comparison_json, build_comparison_report, render_comparison

    kinds = _parse_models(args.models)
    table = _read_table(args)
    if args.format == JSON_FORMAT:
        _emit(args.out, *_comparison_json(table, kinds))
    else:
        _emit(args.out, render_comparison(build_comparison_report(table, kinds),
                                          args.format))
    return 0


def _cmd_compare(args) -> int:
    from .metrics import MODEL_ORDER
    from .report import build_comparison_report, render_comparison

    report = build_comparison_report(_read_table(args), MODEL_ORDER)
    _emit(args.out, render_comparison(report, args.format))
    return 0


def _cmd_stepwise(args) -> int:
    from .report import render_stepwise  # before numpy, as regression says
    from .regression import condition_matrix, stepwise

    candidates = _parse_candidates(args.candidates)
    X, y = condition_matrix(_read_table(args), candidates)
    _emit(args.out, render_stepwise(stepwise(X, y), args.format))
    return 0


def _reject_constant(token):
    # json.load accepts NaN, Infinity and -Infinity, which JSON does not
    raise Fitts3dError(f"not a JSON document: {token} is not a JSON value")


class _FloatMemo(dict):
    """float(text) for each distinct number text, parsed on first sight."""

    def __missing__(self, text):
        value = self[text] = float(text)
        return value


def _cmd_report(args) -> int:
    import json

    from .report import render_document

    with open(args.input, "r", encoding="utf-8") as fh:
        try:
            # a fit document repeats its response texts in every model's
            # points and a condition's predictor texts in each of its
            # rows, so a memo of one read parses each distinct text once;
            # float(text) is json's own parse, so the values are the same
            doc = json.load(fh, parse_constant=_reject_constant,
                            parse_float=_FloatMemo().__getitem__)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise Fitts3dError(f"not a JSON document: {exc}") from None
    _emit(args.out, render_document(doc, args.format))
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
    except (Fitts3dError, OSError, OverflowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
