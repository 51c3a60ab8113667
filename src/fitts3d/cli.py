"""Command line interface.

Verbs: generate, classify, fit, stepwise, compare, report. Exit codes:
0 success, 1 runtime failure (bad data, a log that cannot be grouped
into conditions, numerical degeneracy, missing file), 2 usage error.
generate writes synth.generate_cell of its flags.

Each verb imports the modules it runs inside its function, and the
parser takes its choices from fitts3d.constants, which imports only
enum. So report loads only cli, errors, constants and report, and
classify only those three and poses; generate adds tasks, trial_io,
synth and the layers it builds on; only the verbs that fit (fit,
compare, stepwise) import regression, and only stepwise the F tail in
special. Only generate loads dataclasses (synth's grid and truth); the
other records are plain classes. No verb loads numpy.

main() builds the parser on its first call and reuses it, so a caller
that runs several verbs in one process pays for argparse once, and a
table-format verb leaves no cyclic garbage.
"""

import argparse
import functools
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
    kinds = []  # a repeated name stays: compare_models fits each model once
    for name in names:
        try:
            kinds.append(ModelKind(name))
        except ValueError:
            raise _UsageError(
                f"unknown model {name!r}; choose from "
                f"{', '.join(k.value for k in MODEL_ORDER)}") from None
    return tuple(kinds)


def _parse_candidates(spec: str):
    from .tasks import check_candidates

    try:
        return check_candidates(t.strip() for t in spec.split(",") if t.strip())
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _cmd_generate(args) -> int:
    from .synth import generate_cell
    from .trial_io import write_trials

    log = generate_cell(args.experiment, args.interaction, seed=args.seed,
                        noise_sd=args.noise_sd, error_rate=args.error_rate)
    write_trials(args.out, log, args.experiment)
    conditions = len(log.tasks)
    print(f"wrote {len(log)} trials "
          f"({conditions} conditions x {len(log) // conditions} repetitions) "
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
    from .regression import _table_stepwise
    from .report import render_stepwise

    candidates = _parse_candidates(args.candidates)
    report = _table_stepwise(_read_table(args), candidates)
    _emit(args.out, render_stepwise(report, args.format))
    return 0


def _reject_constant(token):
    # json.load accepts NaN, Infinity and -Infinity, which JSON does not
    raise Fitts3dError(f"not a JSON document: {token} is not a JSON value")


class _FloatMemo(dict):
    """float(text) for each distinct number text, parsed on first sight."""

    def __missing__(self, text):
        value = self[text] = float(text)
        return value


def _render_saved(path, fmt) -> str:
    """render_document of the JSON document at path; the document is
    freed when this returns."""
    import json

    from .report import render_document

    with open(path, "r", encoding="utf-8") as fh:
        try:
            # a fit document repeats its response texts in every model's
            # points and a condition's predictor texts in each of its
            # rows, so a memo of one read parses each distinct text once;
            # float(text) is json's own parse, so the values are the same
            doc = json.load(fh, parse_constant=_reject_constant,
                            parse_float=_FloatMemo().__getitem__)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise Fitts3dError(f"not a JSON document: {exc}") from None
    return render_document(doc, fmt)


def _cmd_report(args) -> int:
    import gc

    # a JSON tree has no cycles and reference counting frees it, but its
    # tens of thousands of lists would set off collections that walk it;
    # the document is freed before the collector resumes, so none do
    paused = gc.isenabled()
    if paused:
        gc.disable()
    try:
        text = _render_saved(args.input, args.format)
    finally:
        if paused:
            gc.enable()
    _emit(args.out, text)
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


# parse_args leaves the parser as it found it and reads sys.argv,
# sys.stdout and sys.stderr only when it runs, so one parser serves every
# call while no default is mutable and no action appends
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    """Run one verb; returns its exit code. The parser is built on the
    first call and reused, so in-process callers pay for argparse once
    and a table-format verb leaves no cyclic garbage."""
    args = _parser().parse_args(argv)
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
