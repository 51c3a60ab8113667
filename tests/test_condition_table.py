"""Grouped fitting (ConditionTable) against a per-trial reference.

The reference below is the straightforward algorithm: one response row
per condition mean (or per successful trial), predictors_for called on
every row, then ols_fit. Grouped results must equal it exactly.
"""

import json
import math
import os
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fitts3d.regression as regression
from fitts3d import (MODEL_ORDER, DesignMatrix, EmptyCondition,
                     InsufficientData, InteractionKind, ModelKind, TaskSpec,
                     compare_models, condition_matrix, fit_model, ols_fit,
                     predictors_for, read_trials)
from fitts3d.regression import STEPWISE_CANDIDATES, ConditionTable
from fitts3d.report import _comparison_json
from fitts3d.trial_io import TRIAL_CSV_HEADER
from cells import CELLS, cell_log
from report_oracle import document_with_points
from trial_rows import task_specs, trial_log

# ---- per-trial reference --------------------------------------------------

def reference_rows(trials, aggregate):
    """(task, response) per row, grouped the direct way from Trial rows."""
    trials = list(trials)
    if not trials:
        raise InsufficientData("no trials")
    if aggregate:
        groups = {}
        for t in trials:
            groups.setdefault(t.task, []).append(t)
        tasks, y = [], []
        for task, ts in groups.items():
            succ = [t.mt for t in ts if t.success]
            if not succ:
                raise EmptyCondition(
                    f"no successful trials for condition F_cm={task.F!r}, "
                    f"W_cm={task.W!r}, A_cm={task.A!r}, phi_deg={task.phi!r}, "
                    f"theta_deg={task.theta!r}, alpha_deg={task.alpha!r}, "
                    f"omega_deg={task.omega!r}, interaction={task.interaction.value}")
            tasks.append(task)
            y.append(math.fsum(succ) / len(succ))
    else:
        kept = [t for t in trials if t.success]
        if not kept:
            raise InsufficientData("no successful trials")
        tasks = [t.task for t in kept]
        y = [t.mt for t in kept]
    if len(set(tasks)) < 2:
        raise InsufficientData("need at least two distinct conditions")
    return tasks, y


def reference_fit(kind, trials, aggregate):
    tasks, y = reference_rows(trials, aggregate)
    vectors = [predictors_for(kind, task) for task in tasks]
    names = list(vectors[0])
    values = np.array([list(v.values()) for v in vectors], dtype=float)
    keep, dropped = [], []
    for j, name in enumerate(names):
        col = values[:, j]
        if float(col.max() - col.min()) > 1e-12 * max(1.0, float(np.abs(col).max())):
            keep.append(j)
        else:
            dropped.append(name)
    if not keep:
        raise regression.RankDeficient(
            f"all {kind.value} predictors are constant on this data")
    X = DesignMatrix(tuple(names[j] for j in keep), values[:, keep])
    return ols_fit(X, y)._replace(dropped=tuple(dropped))


def reference_points(kind, fit, trials, aggregate):
    tasks, y = reference_rows(trials, aggregate)
    return [
        [predictors_for(kind, task)[n] for n in fit.predictor_names]
        + [mt] for task, mt in zip(tasks, y)]


def reference_condition_matrix(trials, aggregate):
    tasks, y = reference_rows(trials, aggregate)
    cols = [[math.sin(math.radians(t.phi)) if c == "phi" else float(getattr(t, c))
             for t in tasks] for c in STEPWISE_CANDIDATES]
    return np.array(cols, dtype=float).T, np.asarray(y, dtype=float)


def outcome(fn, *args):
    """The call's result, or (exception type, message) if it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc), str(exc)


def assert_same_fit(got, want):
    if isinstance(want, tuple):  # the reference raised
        assert got == want
        return
    assert not isinstance(got, tuple), got
    assert got.predictor_names == want.predictor_names
    assert got.coefficients == want.coefficients
    assert got.r2 == want.r2
    assert got.n == want.n
    assert got.ss_res == want.ss_res and got.ss_tot == want.ss_tot
    assert got.dropped == want.dropped
    assert got.degenerate_variance == want.degenerate_variance


def assert_report_matches_reference(log, aggregate):
    """The report on a groupable log against the per-trial reference; a
    grouping error is compared where the table is built."""
    report = document_with_points(ConditionTable(log, aggregate), MODEL_ORDER)
    assert (report["n_trials"], report["aggregate"]) == (len(log), aggregate)
    trials = log.trials
    want = {k: outcome(reference_fit, k, trials, aggregate) for k in MODEL_ORDER}
    fitted = sorted((k for k in MODEL_ORDER if not isinstance(want[k], tuple)),
                    key=lambda k: (-want[k].r2, MODEL_ORDER.index(k)))
    failed = [k for k in MODEL_ORDER if isinstance(want[k], tuple)]
    models = report["models"]
    assert [m["model"] for m in models] == [k.value for k in fitted + failed]
    for m in models:
        kind = ModelKind(m["model"])
        ref = want[kind]
        if isinstance(ref, tuple):
            assert m["error"] == f"{ref[0].__name__}: {ref[1]}"
            continue
        assert m["error"] is None
        assert (m["r2"], m["n"], m["coefficients"], m["dropped"]) == \
            (ref.r2, ref.n, ref.coefficients, list(ref.dropped))
        assert m["point_names"] == list(ref.predictor_names) + ["mt"]
        assert m["points"] == reference_points(kind, ref, trials, aggregate)


# ---- every paper cell -----------------------------------------------------

@pytest.mark.parametrize("aggregate", [True, False])
@pytest.mark.parametrize("experiment,interaction", CELLS)
def test_grouped_fits_equal_per_trial_reference(experiment, interaction, aggregate):
    log = cell_log(experiment, interaction)
    trials = log.trials
    table = ConditionTable(log, aggregate)
    rows = {r.kind: r for r in compare_models(table)}
    for kind in MODEL_ORDER:
        want = outcome(reference_fit, kind, trials, aggregate)
        assert_same_fit(outcome(fit_model, kind, table), want)
        row = rows[kind]
        if isinstance(want, tuple):
            assert row.error == f"{want[0].__name__}: {want[1]}"
        else:
            assert_same_fit(row.fit, want)
    assert_report_matches_reference(log, aggregate)
    X, y = condition_matrix(table)
    X_ref, y_ref = reference_condition_matrix(trials, aggregate)
    assert np.array_equal(X.values, X_ref) and np.array_equal(y, y_ref)


@pytest.mark.parametrize("aggregate", [True, False])
@pytest.mark.parametrize("experiment,interaction", CELLS)
def test_fit_does_not_depend_on_design_layout(experiment, interaction, aggregate):
    # row- and column-major copies of one design give the same fit
    table = ConditionTable(cell_log(experiment, interaction), aggregate)
    for kind in MODEL_ORDER:
        fit = outcome(fit_model, kind, table)
        if isinstance(fit, tuple):
            continue
        names, values = table.predictors(kind)
        cols = [names.index(n) for n in fit.predictor_names]
        design = np.array(values)[:, cols][list(table.rows)]
        row_major = DesignMatrix(fit.predictor_names, np.ascontiguousarray(design))
        col_major = DesignMatrix(fit.predictor_names, np.asfortranarray(design))
        assert_same_fit(ols_fit(row_major, table.y), ols_fit(col_major, table.y))


def test_predictors_run_once_per_condition_and_model(monkeypatch):
    log = cell_log("e4", InteractionKind.POINTING)  # 64 conditions x 4
    calls = []

    def counting(kind, task):
        calls.append(kind)
        return predictors_for(kind, task)

    monkeypatch.setattr(regression, "predictors_for", counting)
    # fitting every model and writing its points
    doc = json.loads("".join(_comparison_json(ConditionTable(log, aggregate=False),
                                              MODEL_ORDER)))
    assert all(m["points"] for m in doc["models"])
    assert len(calls) == len(MODEL_ORDER) * 64


def _exact_sums(table):
    """Each condition's sum and sum of squares of its response rows, from
    the table's integers and their power of two."""
    unit = Fraction(2) ** -table.scale
    return ([s * unit for s in table.sums],
            [q * unit * unit for q in table.squares])


def test_table_layout():
    a = TaskSpec(F=2.0, W=4.0, A=8.0)
    b = TaskSpec(F=2.0, W=4.0, A=16.0)
    log = trial_log([(b, 1.0, True), (a, 2.0, False), (a, 3.0, True),
                     (b, 5.0, True), (a, 4.0, True)])
    per_trial = ConditionTable(log, aggregate=False)
    assert (per_trial.n_trials, per_trial.aggregate) == (5, False)
    assert per_trial.tasks == (b, a)
    assert per_trial.rows == (0, 1, 0, 1)
    assert per_trial.y == (1.0, 3.0, 5.0, 4.0)
    # b's rows 1.0 and 5.0, a's 3.0 and 4.0, summed exactly at one scale
    assert per_trial.counts == (2, 2)
    assert _exact_sums(per_trial) == ([6, 7], [26, 25])
    means = ConditionTable(log, aggregate=True)
    assert (means.n_trials, means.aggregate) == (5, True)
    assert means.tasks == (b, a)
    assert means.rows == (0, 1)
    assert means.y == (3.0, 3.5)
    assert means.counts == (1, 1)
    assert _exact_sums(means) == ([3, Fraction(7, 2)], [9, Fraction(49, 4)])
    names, values = means.predictors(ModelKind.FINAL)
    assert names == ("id_t", "id_r")
    assert [list(map(type, row)) for row in values] == [[float, float]] * 2
    assert means.predictors(ModelKind.FINAL)[1] is values  # cached


def test_first_spec_to_enter_is_kept(tmp_path):
    # an error trial written theta=-0.0 comes before its condition's
    # first success, written theta=0.0: the spec that enters is kept
    path = tmp_path / "zeros.csv"
    path.write_text("\n".join([
        TRIAL_CSV_HEADER,
        "e1,pointing,3.0,5.0,12.0,0.0,-0.0,0.0,0.0,1.5,0",
        "e1,pointing,3.0,5.0,12.0,0.0,0.0,0.0,0.0,1.25,1",
        "e1,pointing,3.0,5.0,24.0,0.0,0.0,0.0,0.0,2.0,1"]) + "\n", encoding="utf-8")
    log = read_trials(path)
    per_trial = ConditionTable(log, aggregate=False)
    assert math.copysign(1.0, per_trial.tasks[0].theta) == 1.0
    assert per_trial.y == (1.25, 2.0)
    means = ConditionTable(log, aggregate=True)
    assert math.copysign(1.0, means.tasks[0].theta) == -1.0
    assert means.y == (1.25, 2.0)


def test_aggregated_table_fits_condition_means():
    table = ConditionTable(cell_log("e1", InteractionKind.POINTING), True)
    assert fit_model(ModelKind.FITTS, table).n == 48


# ---- property: any trial log, stated row by row ---------------------------

@st.composite
def _trial_logs(draw):
    conditions = draw(st.lists(task_specs, min_size=1, max_size=6, unique=True))
    rows = []
    for task in conditions:
        for _ in range(draw(st.integers(1, 5))):
            rows.append((task, draw(st.floats(0.1, 10.0)), draw(st.booleans())))
    return trial_log(draw(st.permutations(rows)))


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_trial_logs(), st.booleans())
def test_grouped_matches_reference_on_any_trials(log, aggregate):
    trials = log.trials
    for kind in MODEL_ORDER:
        assert_same_fit(
            outcome(lambda: fit_model(kind, ConditionTable(log, aggregate))),
            outcome(reference_fit, kind, trials, aggregate))
    table = outcome(ConditionTable, log, aggregate)
    rows = outcome(reference_rows, trials, aggregate)
    if isinstance(rows, tuple) and isinstance(rows[0], type):
        assert table == rows  # same exception, same message
        return
    assert_report_matches_reference(log, aggregate)
    # each condition's response rows summed exactly, as fsum rounds them
    groups = [[] for _ in table.tasks]
    for i, v in zip(table.rows, table.y):
        groups[i].append(v)
    assert table.counts == tuple(map(len, groups))
    sums, squares = _exact_sums(table)
    assert sums == [sum(map(Fraction, g)) for g in groups]
    assert squares == [sum(Fraction(v) ** 2 for v in g) for g in groups]
    assert list(map(float, sums)) == list(map(math.fsum, groups))
    got = outcome(condition_matrix, table, STEPWISE_CANDIDATES)
    X_ref, y_ref = reference_condition_matrix(trials, aggregate)
    assert np.array_equal(got[0].values, X_ref) and np.array_equal(got[1], y_ref)


# ---- property: the columns of any written log ------------------------------

def _spellings(value):
    """Tokens that all parse to value; a zero also as -0.0."""
    tokens = {repr(value), f"{value:g}", f"{value:g}e0", f"{value * 10:g}e-1"}
    if value == 0.0:
        tokens |= {"-0.0", "-0"}
    return sorted(tokens)


# F, W, A, phi, theta, alpha, omega
_LEVELS = ((1.0, 2.0), (1.0, 5.0), (0.0, 6.0), (0.0, 90.0), (0.0, 45.0),
           (0.0, 45.0), (0.0, 7.5))


@st.composite
def _written_logs(draw):
    """Data rows of a trial log: a few conditions of mixed interactions,
    each row spelling its condition's values its own way, with error
    trials anywhere, including before a condition's first success."""
    conditions = draw(st.lists(
        st.tuples(st.sampled_from(list(InteractionKind)),
                  *[st.sampled_from(levels) for levels in _LEVELS]),
        min_size=1, max_size=5, unique=True))
    rows = []
    for interaction, *values in conditions:
        for _ in range(draw(st.integers(1, 6))):
            tokens = [draw(st.sampled_from(_spellings(v))) for v in values]
            mt = draw(st.floats(0.1, 10.0))
            success = draw(st.sampled_from((True, True, False)))
            rows.append(",".join(["e1", interaction.value, *tokens, repr(mt),
                                  "1" if success else "0"]))
    return draw(st.permutations(rows))


@settings(max_examples=150, deadline=None)
@given(_written_logs())
def test_table_from_columns_equals_table_from_trials(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "log.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join([TRIAL_CSV_HEADER, *rows]) + "\n")
        log = read_trials(path)
    # the same log restated row by row, as the tests above state theirs
    restated = trial_log((t.task, t.mt, t.success) for t in log.trials)
    for aggregate in (True, False):
        got = outcome(ConditionTable, log, aggregate)
        want = outcome(ConditionTable, restated, aggregate)
        ref = outcome(reference_rows, log.trials, aggregate)
        if isinstance(want, tuple):  # same exception, same message
            assert got == want == ref
            continue
        assert not isinstance(got, tuple), got
        assert repr(got.tasks) == repr(want.tasks)  # the sign of a zero too
        assert got.rows == want.rows
        assert list(map(float.hex, got.y)) == list(map(float.hex, want.y))
        assert (got.counts, got.sums, got.squares, got.scale) == \
            (want.counts, want.sums, want.squares, want.scale)
        assert got.n_trials == want.n_trials == len(rows)
        # and both against the per-trial reference: the spec kept for a
        # condition is the first whose row enters, errors only if aggregating
        ref_tasks, ref_y = ref
        assert repr(got.tasks) == repr(tuple(dict.fromkeys(ref_tasks)))
        assert [got.tasks[i] for i in got.rows] == ref_tasks
        assert list(map(float.hex, got.y)) == list(map(float.hex, ref_y))
