import math
import warnings

import pytest

from fitts3d import (InteractionKind, ParseError, Pose, SchemaError, TaskSpec,
                     TrialLog, build_grid, generate_trials, paper_scale_defaults,
                     read_poses, read_trials, write_trials)
from fitts3d.trial_io import POSE_CSV_HEADER, TRIAL_CSV_HEADER
from trial_rows import trial_log

POINT = InteractionKind.POINTING
MANIP = InteractionKind.MANIPULATION


def _block(tmp_path, experiment="e2", interaction=POINT, seed=0):
    grid = build_grid(experiment, interaction)
    truth = paper_scale_defaults(experiment, interaction)
    import dataclasses
    log = generate_trials(grid, dataclasses.replace(truth, seed=seed),
                          interaction)
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
    # one condition token differs, so the row is parsed afresh
    ("e1,pointing,3.0,5.0,12.0,90.0,0.0,x,0.0,1.5,1", "alpha_deg"),
    ("e1,flying,3.0,5.0,12.0,90.0,0.0,0.0,0.0,1.5,1", "interaction"),
    ("e1,pointing,3.0,-5.0,12.0,90.0,0.0,0.0,0.0,1.5,1", None),
])
def test_bad_row_after_cached_condition_names_its_line(tmp_path, row, column):
    path = tmp_path / "rows.csv"
    _write(path, TRIAL_CSV_HEADER, GOOD_ROW, GOOD_ROW, row, GOOD_ROW)
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
