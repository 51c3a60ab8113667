"""Reading and writing trial logs (and pose files) as plain CSV.

Trial log format, version 1, which its exact header pins: UTF-8, comma
separated, `.` decimal point, LF line endings, this header:

    experiment,interaction,F_cm,W_cm,A_cm,phi_deg,theta_deg,alpha_deg,omega_deg,mt_s,success

experiment is an Experiment id. The seven condition columns hold the
TaskSpec fields in CONDITION_FIELDS order. success is 0 or 1. Floats
are written in shortest round-trip form, so a log regenerated from the
same seed is byte-identical.

A log is held as columns (TrialLog): one TaskSpec per distinct
condition, and per row the index of its condition, its movement time
and its outcome. generate_trials returns this shape, write_trials writes
it, read_trials returns it and ConditionTable groups it; TrialLog.trials
builds Trial objects only when a caller asks. read_trials checks each
distinct row prefix (experiment, interaction and condition tokens) once
and parses mt_s and success on every row; a bad row gets the same error
text, line and column whether its prefix was seen before or not.

The pose-file format (POSE_COLUMNS, POSE_CSV_HEADER) and its column
reader live in fitts3d.poses, with the CSV helpers both readers share;
read_poses builds its Pose tuples from that reader's columns.
"""

import math
from functools import cached_property
from operator import attrgetter

from .constants import CONDITION_FIELDS, Experiment, InteractionKind
from .errors import ParseError
from .poses import _parse_float, _pose_rows, _read_lines, read_pose_columns
from .tasks import Pose, TaskSpec, Trial, _Record

# the log column of each of CONDITION_FIELDS, in that order
_CONDITION_COLUMNS = ("F_cm", "W_cm", "A_cm", "phi_deg", "theta_deg",
                      "alpha_deg", "omega_deg")
_condition_values = attrgetter(*CONDITION_FIELDS)

TRIAL_COLUMNS = ("experiment", "interaction", *_CONDITION_COLUMNS,
                 "mt_s", "success")
TRIAL_CSV_HEADER = ",".join(TRIAL_COLUMNS)

_EXPERIMENT_IDS = tuple(e.value for e in Experiment)


class TrialLog(_Record):
    """A trial log, generated or parsed from a file, held as columns.

    tasks has one TaskSpec per condition; read_trials makes one per
    distinct set of interaction and condition tokens, in first-appearance
    order, so rows written "0.0" and "-0.0" keep distinct specs.
    task_index, mt and success hold one entry per data row: the index of
    its spec in tasks, its movement time and its outcome, so the three
    must have one length, and each index must lie in range(len(tasks)).
    len() is the number of rows.
    """

    _fields = ("tasks", "task_index", "mt", "success")

    def __init__(self, tasks: tuple[TaskSpec, ...], task_index: tuple[int, ...],
                 mt: tuple[float, ...], success: tuple[bool, ...]):
        if not len(task_index) == len(mt) == len(success):
            raise ValueError("task_index, mt and success must have one length")
        if not set(task_index) <= set(range(len(tasks))):  # 4x cheaper than min, max
            raise ValueError("task_index must index tasks")
        self._set(tasks, task_index, mt, success)

    def __len__(self) -> int:
        return len(self.task_index)

    @cached_property
    def trials(self) -> tuple[Trial, ...]:
        """One Trial per data row, sharing the TaskSpecs in tasks; built
        on first use."""
        tasks = self.tasks
        return tuple(Trial(tasks[k], mt, success) for k, mt, success
                     in zip(self.task_index, self.mt, self.success))


def _log_terms(task) -> str:
    """A condition as its trial log's columns name it, e.g. "F_cm=3.0,
    W_cm=5.0, ..., omega_deg=0.0, interaction=pointing"."""
    return ", ".join([f"{col}={v!r}" for col, v in
                      zip(_CONDITION_COLUMNS, _condition_values(task))]
                     + [f"interaction={task.interaction.value}"])


def write_trials(path, log: TrialLog, experiment) -> None:
    """Write a TrialLog to path in version 1 of the log format.

    experiment is the id written into every row (e1..e4).
    """
    experiment = getattr(experiment, "value", experiment)
    if experiment not in _EXPERIMENT_IDS:
        raise ValueError(f"experiment must be one of {_EXPERIMENT_IDS}")
    # each spec's row prefix, formatted once
    prefixes = [",".join([experiment, task.interaction.value,
                          *map(repr, _condition_values(task))])
                for task in log.tasks]
    lines = [TRIAL_CSV_HEADER]
    lines += [f"{prefixes[k]},{mt!r},{'1' if success else '0'}"
              for k, mt, success in zip(log.task_index, log.mt, log.success)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def read_trials(path) -> TrialLog:
    """Parse a trial log, validating every row: each distinct row prefix
    once, when first seen, and mt_s and success on every row.

    Raises SchemaError for a bad header and ParseError (with the
    1-based line number) for the first malformed row. A valid file with
    zero rows returns an empty log, which ConditionTable rejects.
    """
    lines = _read_lines(path, TRIAL_CSV_HEADER)
    # prefixes (row prefix) and specs (raw interaction and condition tokens, not
    # floats, which merge -0.0 with 0.0) map to (position in tasks, timeout)
    prefixes, specs, tasks = {}, {}, []
    task_index, mts, successes = [], [], []
    for line_no, raw in enumerate(lines[1:], start=2):
        head = raw.rstrip("\r").rsplit(",", 2)  # a known prefix has 9 fields
        known = prefixes.get(head[0])
        if known is None:
            row = raw.rstrip("\r").split(",")
            if len(row) != len(TRIAL_COLUMNS):
                raise ParseError(line_no,
                                 f"expected {len(TRIAL_COLUMNS)} fields, got {len(row)}")
            if row[0] not in _EXPERIMENT_IDS:
                raise ParseError(line_no, f"unknown experiment {row[0]!r}",
                                 column="experiment")
            key = tuple(row[1:9])
            known = prefixes[head[0]] = specs.get(key)  # None until made below
            if known is None:
                try:
                    interaction = InteractionKind(row[1])
                except ValueError:
                    raise ParseError(line_no, f"unknown interaction {row[1]!r}",
                                     column="interaction") from None
                values = [_parse_float(token, line_no, col)
                          for col, token in zip(_CONDITION_COLUMNS, row[2:9])]
        try:
            mt = float(head[1])
        except ValueError:
            mt = math.nan
        if not 0.0 < mt < math.inf:
            _parse_float(head[1], line_no, "mt_s")  # raises unless finite
            raise ParseError(line_no, "mt_s must be > 0", column="mt_s")
        success = head[2] == "1"
        if not success and head[2] != "0":
            raise ParseError(line_no, f"success must be 0 or 1, got {head[2]!r}",
                             column="success")
        if known is None:
            try:
                task = TaskSpec(*values, interaction=interaction)
            except ValueError as exc:
                raise ParseError(line_no, str(exc)) from None
            known = prefixes[head[0]] = specs[key] = len(tasks), interaction.timeout_s
            tasks.append(task)
        k, timeout_s = known
        if success and mt > timeout_s:
            raise ParseError(line_no, "successful trials cannot exceed the timeout")
        task_index.append(k)
        mts.append(mt)
        successes.append(success)
    return TrialLog(tuple(tasks), tuple(task_index), tuple(mts), tuple(successes))


def read_poses(path):
    """Parse a pose-pair file for success classification.

    Columns: object position/rotation, target position/rotation, then
    the target width W_cm and the rotational tolerance omega_deg.
    Returns a list of (object Pose, target Pose, W, omega) tuples, built
    from read_pose_columns' columns, so it raises what that raises.
    """
    return [(Pose(obj_pos, obj_rot), Pose(target_pos, target_rot), w, omega)
            for obj_pos, obj_rot, target_pos, target_rot, w, omega
            in _pose_rows(read_pose_columns(path))]
