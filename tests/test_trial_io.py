import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fitts3d.trial_io
from fitts3d import (InteractionKind, ParseError, Pose, SchemaError, TaskSpec,
                     TrialLog, build_grid, generate_trials, paper_scale_defaults,
                     read_poses, read_trials, write_trials)
from fitts3d.poses import POSE_CSV_HEADER
from fitts3d.trial_io import (_CONDITION_COLUMNS, _EXPERIMENT_IDS, TRIAL_COLUMNS,
                              TRIAL_CSV_HEADER, _parse_float, _read_lines)
from cells import cell_log
from trial_rows import trial_log

POINT = InteractionKind.POINTING
MANIP = InteractionKind.MANIPULATION


def _block(tmp_path, experiment="e2", interaction=POINT, repetitions=None):
    log = cell_log(experiment, interaction, repetitions)
    path = tmp_path / "log.csv"
    write_trials(path, log, experiment)
    return log, path


def test_round_trip_equality(tmp_path):
    generated, path = _block(tmp_path)
    log = read_trials(path)
    assert log == generated
    assert log.trials == generated.trials


def test_regeneration_is_byte_identical(tmp_path):
    _, first = _block(tmp_path)
    data = first.read_bytes()
    grid = build_grid("e2", POINT)
    truth = paper_scale_defaults("e2", POINT)
    second = tmp_path / "again.csv"
    write_trials(second, generate_trials(grid, truth, POINT), "e2")
    assert second.read_bytes() == data
    assert data.endswith(b"\n") and b"\r" not in data
    assert data.split(b"\n", 1)[0] == TRIAL_CSV_HEADER.encode()


def test_write_read_preserves_float_precision(tmp_path):
    task = TaskSpec(F=3.0, W=7.5, A=12.0, interaction=MANIP)
    path = tmp_path / "one.csv"
    write_trials(path, trial_log([(task, 1.2345678901234567, True)]), "e1")
    log = read_trials(path)
    assert log.trials[0].mt == 1.2345678901234567
    assert log.trials[0].task == task


def test_write_rejects_unknown_experiment(tmp_path):
    with pytest.raises(ValueError):
        write_trials(tmp_path / "x.csv", trial_log([]), "e5")


def _write(path, *lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


GOOD_ROW = "e1,pointing,3.0,5.0,12.0,90.0,0.0,0.0,0.0,1.5,1"
SAME_SPEC = "reads as GOOD_ROW's spec"


def test_schema_errors(tmp_path):
    path = tmp_path / "bad.csv"
    _write(path, "not,a,header", GOOD_ROW)
    with pytest.raises(SchemaError):
        read_trials(path)
    path.write_text("", encoding="utf-8")
    with pytest.raises(SchemaError):
        read_trials(path)
    # pose header on a trial reader and vice versa
    _write(path, POSE_CSV_HEADER)
    with pytest.raises(SchemaError):
        read_trials(path)
    _write(path, TRIAL_CSV_HEADER)
    with pytest.raises(SchemaError):
        read_poses(path)


def test_header_only_returns_empty_without_warning(tmp_path):
    path = tmp_path / "empty.csv"
    _write(path, TRIAL_CSV_HEADER)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        log = read_trials(path)
    assert log.trials == ()
    assert len(log) == 0
    assert caught == []


@pytest.mark.parametrize("row,fragment", [
    ("e1,pointing,3.0,5.0", "expected 11 fields, got 4"),
    ("e9,pointing,3.0,5.0,12.0,90.0,0.0,0.0,0.0,1.5,1", "unknown experiment"),
    ("e1,flying,3.0,5.0,12.0,90.0,0.0,0.0,0.0,1.5,1", "unknown interaction"),
    ("e1,pointing,abc,5.0,12.0,90.0,0.0,0.0,0.0,1.5,1", "'F_cm'"),
    ("e1,pointing,3.0,5.0,12.0,90.0,0.0,0.0,0.0,inf,1", "'mt_s'"),
    ("e1,pointing,3.0,5.0,12.0,90.0,0.0,0.0,0.0,-1.0,1", "mt_s must be > 0"),
    ("e1,pointing,3.0,5.0,12.0,90.0,0.0,0.0,0.0,1.5,2", "success must be 0 or 1"),
    ("e1,pointing,-3.0,5.0,12.0,90.0,0.0,0.0,0.0,1.5,1", "F"),
    ("e1,pointing,3.0,5.0,12.0,90.0,0.0,0.0,0.0,20.0,1", "timeout"),
])
def test_parse_errors(tmp_path, row, fragment):
    path = tmp_path / "row.csv"
    _write(path, TRIAL_CSV_HEADER, row)
    with pytest.raises(ParseError) as err:
        read_trials(path)
    assert fragment in str(err.value)
    assert "line 2" in str(err.value)


def test_parse_error_reports_correct_line(tmp_path):
    path = tmp_path / "rows.csv"
    _write(path, TRIAL_CSV_HEADER, GOOD_ROW, GOOD_ROW,
           "e1,pointing,3.0,5.0,12.0,90.0,0.0,0.0,0.0,0.0,1")
    with pytest.raises(ParseError) as err:
        read_trials(path)
    assert err.value.line == 4
    assert "line 4" in str(err.value)


def test_one_taskspec_per_condition(tmp_path):
    _, path = _block(tmp_path)
    log = read_trials(path)
    objects = {}
    for t in log.trials:
        objects.setdefault(t.task, set()).add(id(t.task))
    assert len(objects) == 48
    assert all(len(ids) == 1 for ids in objects.values())
    # the columns: one entry per data row, and trials share tasks' specs
    n_rows = len(path.read_text(encoding="utf-8").splitlines()) - 1
    assert len(log.trials) == len(log.task_index) == len(log.mt) \
        == len(log.success) == n_rows
    assert len(log.tasks) == 48
    for t, k, mt, success in zip(log.trials, log.task_index, log.mt, log.success):
        assert t.task is log.tasks[k]
        assert (t.mt, t.success) == (mt, success)
    assert read_trials(path).trials is not log.trials
    assert log.trials is log.trials  # built once


@pytest.mark.parametrize("row,column", [
    # same condition tokens as GOOD_ROW, so its TaskSpec is reused
    ("e1,pointing,3.0,5.0,12.0,90.0,0.0,0.0,0.0,abc,1", "mt_s"),
    ("e1,pointing,3.0,5.0,12.0,90.0,0.0,0.0,0.0,1.5,2", "success"),
    ("e9,pointing,3.0,5.0,12.0,90.0,0.0,0.0,0.0,1.5,1", "experiment"),
    ("e1,pointing,3.0,5.0,12.0,90.0,0.0,0.0,0.0,20.0,1", None),
    ("e1,pointing,3.0,5.0,12.0,90.0,0.0,0.0,0.0,nan,1", "mt_s"),
    ("e1,pointing,3.0,5.0,12.0,90.0,0.0,0.0,0.0,-0.0,1", "mt_s"),
    # 12 fields, starting with GOOD_ROW's 11: its last two are not mt_s and success
    (GOOD_ROW + ",5", None),
    # one condition token differs, so the row is parsed afresh
    ("e1,pointing,3.0,5.0,12.0,90.0,0.0,x,0.0,1.5,1", "alpha_deg"),
    ("e1,flying,3.0,5.0,12.0,90.0,0.0,0.0,0.0,1.5,1", "interaction"),
    ("e1,pointing,3.0,-5.0,12.0,90.0,0.0,0.0,0.0,1.5,1", None),
    # a CRLF copy and another experiment's copy read as GOOD_ROW's spec
    (GOOD_ROW + "\r", SAME_SPEC),
    ("e2" + GOOD_ROW[2:], SAME_SPEC),
])
def test_bad_row_after_cached_condition_names_its_line(tmp_path, row, column):
    path = tmp_path / "rows.csv"
    _write(path, TRIAL_CSV_HEADER, GOOD_ROW, GOOD_ROW, row, GOOD_ROW)
    if column is SAME_SPEC:
        log = read_trials(path)
        assert log.task_index == (0, 0, 0, 0) and len(log.tasks) == 1
    else:
        with pytest.raises(ParseError) as err:
            read_trials(path)
        assert err.value.line == 4
        assert err.value.column == column


def test_rewrite_after_read_is_byte_identical(tmp_path):
    # -0.0 and 0.0 compare equal; the reader must not merge them
    path = tmp_path / "zeros.csv"
    _write(path, TRIAL_CSV_HEADER,
           "e2,pointing,3.0,5.0,12.0,0.0,-0.0,0.0,0.0,1.5,1",
           "e2,pointing,3.0,5.0,12.0,0.0,0.0,0.0,0.0,1.25,0",
           "e2,pointing,3.0,5.0,12.0,-0.0,0.0,0.0,0.0,1.75,1",
           "e2,pointing,3.0,5.0,12.0,0.0,-0.0,0.0,0.0,2.5,1")
    _, generated = _block(tmp_path)
    for source in (path, generated):
        again = tmp_path / "again.csv"
        write_trials(again, read_trials(source), "e2")
        assert again.read_bytes() == source.read_bytes()
    # a CRLF copy reads as the same log, so it rewrites to the LF bytes
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(generated.read_bytes().replace(b"\n", b"\r\n"))
    write_trials(again, read_trials(crlf), "e2")
    assert again.read_bytes() == generated.read_bytes()


def test_write_keeps_fresh_specs_apart(tmp_path):
    # specs equal but for the sign of a zero sit at separate task_index
    # entries; each keeps its own row prefix, so the signs read back
    tasks = tuple(TaskSpec(F=3.0, W=5.0, A=float(a), theta=theta)
                  for theta in (0.0, -0.0) for a in range(7))
    rows = range(200)  # row i: A = i % 7, theta = -0.0 for odd i
    log = TrialLog(tasks, tuple(7 * (i % 2) + i % 7 for i in rows),
                   tuple(1.0 + i / 64 for i in rows), tuple(i % 3 > 0 for i in rows))
    path = tmp_path / "zeros.csv"
    write_trials(path, log, "e1")
    read = read_trials(path)
    assert (read.mt, read.success) == (log.mt, log.success)
    assert [(t.task.A, math.copysign(1.0, t.task.theta)) for t in read.trials] \
        == [(float(i % 7), -1.0 if i % 2 else 1.0) for i in rows]


def test_log_columns_must_have_one_length():
    a, b = TaskSpec(F=3.0, W=5.0, A=12.0), TaskSpec(F=3.0, W=5.0, A=24.0)
    with pytest.raises(ValueError, match="must have one length"):
        TrialLog((a, b), (0, 1, 1), (1.0, 2.0), (True, True, True))
    # each row's index must name one of tasks: -1 would count the row as b
    for bad in ((0, -1, 1), (0, 2, 1)):
        with pytest.raises(ValueError, match="task_index must index tasks"):
            TrialLog((a, b), bad, (1.0, 2.0, 3.0), (True, True, True))
    assert len(TrialLog((a, b), (0, 1, 1), (1.0, 2.0, 3.0), (True, True, False))) == 3


def test_mixed_rows_read_as_one_log(tmp_path):
    path = tmp_path / "mixed.csv"
    _write(path, TRIAL_CSV_HEADER,
           "e1,pointing,3.0,5.0,12.0,90.0,0.0,0.0,0.0,1.5,1",
           "e2,manipulation,5.0,5.0,12.0,0.0,15.0,0.0,0.0,1.5,1")
    log = read_trials(path)
    assert len(log.trials) == 2
    assert [t.interaction for t in log.tasks] == [POINT, MANIP]


def test_error_trial_row_allows_timeout(tmp_path):
    # an unsuccessful trial may sit exactly at (or past) the timeout
    path = tmp_path / "err.csv"
    _write(path, TRIAL_CSV_HEADER,
           "e1,pointing,3.0,5.0,12.0,90.0,0.0,0.0,0.0,15.0,0")
    log = read_trials(path)
    assert log.trials[0].mt == 15.0 and not log.trials[0].success


def test_read_poses_values(tmp_path):
    path = tmp_path / "poses.csv"
    _write(path, POSE_CSV_HEADER,
           "1.0,2.0,3.0,10.0,20.0,30.0,1.5,2.0,3.0,10.0,20.0,33.0,5.0,2.5",
           "0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,4.0,0.0")
    rows = read_poses(path)
    assert len(rows) == 2
    obj, target, w, omega = rows[0]
    assert obj == Pose((1.0, 2.0, 3.0), (10.0, 20.0, 30.0))
    assert target == Pose((1.5, 2.0, 3.0), (10.0, 20.0, 33.0))
    assert (w, omega) == (5.0, 2.5)
    assert rows[1][2] == 4.0 and rows[1][3] == 0.0


@pytest.mark.parametrize("row,fragment", [
    ("1.0,2.0,3.0", "expected 14 fields, got 3"),
    ("1,2,3,0,0,0,1,2,3,0,0,0,0.0,2.5", "W_cm must be > 0"),
    ("1,2,3,0,0,0,1,2,3,0,0,0,5.0,-1.0", "omega_deg must be >= 0"),
    ("x,2,3,0,0,0,1,2,3,0,0,0,5.0,2.5", "'ox'"),
])
def test_read_poses_errors(tmp_path, row, fragment):
    path = tmp_path / "poses.csv"
    _write(path, POSE_CSV_HEADER, row)
    with pytest.raises(ParseError) as err:
        read_poses(path)
    assert fragment in str(err.value)


def test_read_poses_header_only_returns_empty_without_warning(tmp_path):
    path = tmp_path / "poses.csv"
    _write(path, POSE_CSV_HEADER)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = read_poses(path)
    assert rows == []
    assert caught == []


# The per-field reader, kept as the oracle for read_trials: it splits and
# checks all 11 fields of every row. read_trials checks each distinct row
# prefix once, and must agree with it on every log, valid or not.
def reference_read_trials(path) -> TrialLog:
    """Parse a trial log, validating every row.

    Raises SchemaError for a bad header and ParseError (with the
    1-based line number) for the first malformed row. A valid file with
    zero rows returns an empty log, which ConditionTable rejects.
    """
    lines = _read_lines(path, TRIAL_CSV_HEADER)
    # one TaskSpec per condition, keyed on the raw interaction and
    # condition tokens (not on parsed floats, which would merge -0.0
    # with 0.0). index maps a key to (its position in tasks, its timeout)
    index, tasks = {}, []
    task_index, mts, successes = [], [], []
    for line_no, raw in enumerate(lines[1:], start=2):
        row = raw.rstrip("\r").split(",")
        if len(row) != len(TRIAL_COLUMNS):
            raise ParseError(line_no,
                             f"expected {len(TRIAL_COLUMNS)} fields, got {len(row)}")
        if row[0] not in _EXPERIMENT_IDS:
            raise ParseError(line_no, f"unknown experiment {row[0]!r}",
                             column="experiment")
        key = tuple(row[1:9])
        known = index.get(key)
        if known is None:
            try:
                interaction = InteractionKind(row[1])
            except ValueError:
                raise ParseError(line_no, f"unknown interaction {row[1]!r}",
                                 column="interaction") from None
            values = [_parse_float(token, line_no, col)
                      for col, token in zip(_CONDITION_COLUMNS, row[2:9])]
        mt = _parse_float(row[9], line_no, "mt_s")
        if mt <= 0:
            raise ParseError(line_no, "mt_s must be > 0", column="mt_s")
        if row[10] not in ("0", "1"):
            raise ParseError(line_no, f"success must be 0 or 1, got {row[10]!r}",
                             column="success")
        success = row[10] == "1"
        if known is None:
            try:
                task = TaskSpec(*values, interaction=interaction)
            except ValueError as exc:
                raise ParseError(line_no, str(exc)) from None
            known = index[key] = len(tasks), task.interaction.timeout_s
            tasks.append(task)
        k, timeout_s = known
        if success and mt > timeout_s:
            raise ParseError(line_no, "successful trials cannot exceed the timeout")
        task_index.append(k)
        mts.append(mt)
        successes.append(success)
    return TrialLog(tuple(tasks), tuple(task_index), tuple(mts), tuple(successes))


def _outcome(reader, path):
    """A log with its repr (which tells -0.0 from 0.0), or the error's
    text, line and column."""
    try:
        log = reader(path)
    except ParseError as exc:
        return "error", str(exc), exc.line, exc.column
    return "log", log, repr(log)


# valid levels of each condition column, and the spellings of a level
_LEVELS = {"F_cm": (3, 5), "W_cm": (2, 5), "A_cm": (0, 12), "phi_deg": (0, 90),
           "theta_deg": (0, 45), "alpha_deg": (0, 30), "omega_deg": (0, 10)}


def _spellings(v):
    return [str(v), f"{v}.0", f"{v}.00", f"{v}e0"] + (["-0.0", "-0"] if v == 0 else [])


_tokens = st.tuples(*[st.sampled_from(levels).flatmap(
    lambda v: st.sampled_from(_spellings(v))) for levels in _LEVELS.values()])
_conditions = st.tuples(st.sampled_from(["pointing", "manipulation"]), _tokens).map(
    lambda c: [c[0], *c[1]])
# within both timeouts, so that every drawn row is valid
_mt_tokens = st.floats(min_value=0.05, max_value=15.0).flatmap(
    lambda mt: st.sampled_from([repr(mt), f"{mt:.3f}", f"{mt:e}"]))


def _set(fields, **tokens):
    fields = list(fields)
    for column, token in tokens.items():
        fields[TRIAL_COLUMNS.index(column)] = token
    return fields


# each turns the 11 fields of a row into one bad row
_BAD_ROWS = {
    "10 fields": lambda f: f[:10],
    "12 fields": lambda f: f + ["5"],
    "experiment": lambda f: _set(f, experiment="e9"),
    "interaction": lambda f: _set(f, interaction="flying"),
    "condition": lambda f: _set(f, alpha_deg="x"),
    "mt_s not a number": lambda f: _set(f, mt_s="abc"),
    "mt_s nan": lambda f: _set(f, mt_s="nan"),
    "mt_s inf": lambda f: _set(f, mt_s="inf"),
    "mt_s -0.0": lambda f: _set(f, mt_s="-0.0"),
    "mt_s negative": lambda f: _set(f, mt_s="-1.5"),
    "success": lambda f: _set(f, success="2"),
    "success empty": lambda f: _set(f, success=""),
    "TaskSpec": lambda f: _set(f, F_cm="-3.0"),
    "timeout": lambda f: _set(f, mt_s="20.5", success="1"),
    # both: the mt_s check comes before the spec is made
    "mt_s and TaskSpec": lambda f: _set(f, F_cm="-3.0", mt_s="abc"),
}


@pytest.mark.parametrize("placement", ["seen", "fresh"])
@pytest.mark.parametrize("bad", [None, *_BAD_ROWS])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_read_trials_matches_reference_reader(bad, placement, data):
    # a few conditions, in mixed token spellings, under any experiment
    conditions = data.draw(st.lists(_conditions, min_size=1, max_size=3))
    rows = data.draw(st.lists(st.builds(
        lambda c, e, mt, s: [e, *c, mt, s], st.sampled_from(conditions),
        st.sampled_from(_EXPERIMENT_IDS), _mt_tokens, st.sampled_from(["0", "1"])),
        min_size=1, max_size=30))
    if bad is not None:
        # a copy of a row's prefix goes after that row; a fresh one anywhere
        base = data.draw(st.integers(0, len(rows) - 1))
        fields = rows[base]
        if placement == "fresh":
            fields = _set(fields, A_cm="99.0")
        at = data.draw(st.integers(base + 1 if placement == "seen" else 0, len(rows)))
        rows.insert(at, _BAD_ROWS[bad](fields))
    end = data.draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join([TRIAL_CSV_HEADER, *map(",".join, rows)]) + end
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.csv"
        path.write_bytes(text.encode("utf-8"))
        expected = _outcome(reference_read_trials, path)
        assert _outcome(read_trials, path) == expected
    assert expected[0] == ("log" if bad is None else "error")


def test_each_row_prefix_is_checked_once(tmp_path, monkeypatch):
    # a published-scale log: one TaskSpec and seven condition parses per
    # distinct row prefix, and no _parse_float call for any row's mt_s
    _, path = _block(tmp_path, "e4", MANIP, repetitions=75)
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    prefixes = {tuple(line.split(",")[:9]) for line in lines}
    specs, parses = [], []

    def counting_spec(*args, **kwargs):
        specs.append(args)
        return TaskSpec(*args, **kwargs)

    def counting_parse(*args):
        parses.append(args)
        return _parse_float(*args)

    monkeypatch.setattr(fitts3d.trial_io, "TaskSpec", counting_spec)
    monkeypatch.setattr(fitts3d.trial_io, "_parse_float", counting_parse)
    log = read_trials(path)
    assert len(lines) == len(log) == 4800
    assert len(specs) == len(prefixes) == len(log.tasks)
    assert len(parses) == len(_CONDITION_COLUMNS) * len(prefixes)
