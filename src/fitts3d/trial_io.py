"""Reading and writing trial logs (and pose files) as plain CSV.

Trial log format, schema version 1: UTF-8, comma separated, `.` decimal
point, LF line endings, exactly this header:

    experiment,interaction,F_cm,W_cm,A_cm,phi_deg,theta_deg,alpha_deg,omega_deg,mt_s,success

success is 0 or 1. Floats are written in shortest round-trip form, so a
log regenerated from the same seed is byte-identical.
"""

import math
import warnings
from dataclasses import dataclass

from .errors import ParseError, SchemaError
from .tasks import InteractionKind, Pose, TaskSpec, Trial

SCHEMA_VERSION = 1

TRIAL_COLUMNS = ("experiment", "interaction", "F_cm", "W_cm", "A_cm",
                 "phi_deg", "theta_deg", "alpha_deg", "omega_deg",
                 "mt_s", "success")
TRIAL_CSV_HEADER = ",".join(TRIAL_COLUMNS)

_EXPERIMENT_IDS = ("e1", "e2", "e3", "e4")

POSE_COLUMNS = ("ox", "oy", "oz", "orx", "ory", "orz",
                "tx", "ty", "tz", "trx", "try", "trz",
                "W_cm", "omega_deg")
POSE_CSV_HEADER = ",".join(POSE_COLUMNS)


@dataclass(frozen=True)
class TrialLog:
    """A parsed trial file. experiment / interaction are the common
    per-file values, or None when the rows are mixed."""

    trials: tuple[Trial, ...]
    experiment: str | None
    interaction: InteractionKind | None
    schema_version: int = SCHEMA_VERSION


def _fmt(value: float) -> str:
    return repr(float(value))


def write_trials(path, trials, experiment) -> None:
    """Write trials to path in schema version 1.

    experiment is the id written into every row (e1..e4).
    """
    experiment = getattr(experiment, "value", experiment)
    if experiment not in _EXPERIMENT_IDS:
        raise ValueError(f"experiment must be one of {_EXPERIMENT_IDS}")
    lines = [TRIAL_CSV_HEADER]
    for t in trials:
        task = t.task
        lines.append(",".join((
            experiment, task.interaction.value,
            _fmt(task.F), _fmt(task.W), _fmt(task.A),
            _fmt(task.phi), _fmt(task.theta),
            _fmt(task.alpha), _fmt(task.omega),
            _fmt(t.mt), "1" if t.success else "0")))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_float(token: str, line_no: int, column: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(line_no, f"not a number: {token!r}", column=column) from None
    if not math.isfinite(value):
        raise ParseError(line_no, f"not finite: {token!r}", column=column)
    return value


def _read_lines(path, expected_header: str):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()  # trailing newline
    if not lines:
        raise SchemaError("empty file: missing header")
    header = lines[0].rstrip("\r")
    if header != expected_header:
        raise SchemaError(
            f"unrecognized header {header!r}; expected {expected_header!r}")
    return lines


def read_trials(path) -> TrialLog:
    """Parse a trial log, validating every row.

    Raises SchemaError for a bad header and ParseError (with the
    1-based line number) for the first malformed row. A valid file with
    zero rows returns an empty log and emits a warning.
    """
    lines = _read_lines(path, TRIAL_CSV_HEADER)
    trials = []
    experiments = set()
    interactions = set()
    # one TaskSpec per condition, keyed on the raw interaction and
    # condition tokens (not on parsed floats, which would merge -0.0
    # with 0.0); a token set is cached only once it has parsed cleanly
    tasks = {}
    for line_no, raw in enumerate(lines[1:], start=2):
        row = raw.rstrip("\r").split(",")
        if len(row) != len(TRIAL_COLUMNS):
            raise ParseError(line_no,
                             f"expected {len(TRIAL_COLUMNS)} fields, got {len(row)}")
        experiment = row[0]
        if experiment not in _EXPERIMENT_IDS:
            raise ParseError(line_no, f"unknown experiment {experiment!r}",
                             column="experiment")
        key = tuple(row[1:9])
        task = tasks.get(key)
        if task is None:
            try:
                interaction = InteractionKind(row[1])
            except ValueError:
                raise ParseError(line_no, f"unknown interaction {row[1]!r}",
                                 column="interaction") from None
            values = {}
            for col, token in zip(TRIAL_COLUMNS[2:9], row[2:9]):
                values[col] = _parse_float(token, line_no, col)
        mt = _parse_float(row[9], line_no, "mt_s")
        if mt <= 0:
            raise ParseError(line_no, "mt_s must be > 0", column="mt_s")
        if row[10] not in ("0", "1"):
            raise ParseError(line_no, f"success must be 0 or 1, got {row[10]!r}",
                             column="success")
        success = row[10] == "1"
        try:
            if task is None:
                task = tasks[key] = TaskSpec(
                    F=values["F_cm"], W=values["W_cm"], A=values["A_cm"],
                    phi=values["phi_deg"], theta=values["theta_deg"],
                    alpha=values["alpha_deg"], omega=values["omega_deg"],
                    interaction=interaction)
            trial = Trial(task, mt, success)
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from None
        trials.append(trial)
        experiments.add(experiment)
        interactions.add(task.interaction)
    if not trials:
        warnings.warn("trial log contains a header but no rows", stacklevel=2)
    return TrialLog(
        trials=tuple(trials),
        experiment=experiments.pop() if len(experiments) == 1 else None,
        interaction=interactions.pop() if len(interactions) == 1 else None)


def read_poses(path):
    """Parse a pose-pair file for success classification.

    Columns: object position/rotation, target position/rotation, then
    the target width W_cm and the rotational tolerance omega_deg.
    Returns a list of (object Pose, target Pose, W, omega) tuples.
    """
    lines = _read_lines(path, POSE_CSV_HEADER)
    rows = []
    for line_no, raw in enumerate(lines[1:], start=2):
        row = raw.rstrip("\r").split(",")
        if len(row) != len(POSE_COLUMNS):
            raise ParseError(line_no,
                             f"expected {len(POSE_COLUMNS)} fields, got {len(row)}")
        vals = [_parse_float(token, line_no, col)
                for col, token in zip(POSE_COLUMNS, row)]
        w, omega = vals[12], vals[13]
        if w <= 0:
            raise ParseError(line_no, "W_cm must be > 0", column="W_cm")
        if omega < 0:
            raise ParseError(line_no, "omega_deg must be >= 0", column="omega_deg")
        try:
            obj = Pose(tuple(vals[0:3]), tuple(vals[3:6]))
            target = Pose(tuple(vals[6:9]), tuple(vals[9:12]))
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from None
        rows.append((obj, target, w, omega))
    if not rows:
        warnings.warn("pose file contains a header but no rows", stacklevel=2)
    return rows
