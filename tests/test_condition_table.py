"""Grouped fitting (ConditionTable) against a per-trial reference.

The reference below is the straightforward algorithm: one response row
per condition mean (or per successful trial), predictors_for called on
every row, then ols_fit. Grouped results must equal it exactly.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fitts3d.regression as regression
from fitts3d import (MODEL_ORDER, DesignMatrix, EmptyCondition,
                     InsufficientData, InteractionKind, ModelKind, TaskSpec,
                     Trial, build_comparison_report, build_grid,
                     compare_models, condition_matrix, fit_model,
                     generate_trials, ols_fit, paper_scale_defaults,
                     predictors_for)
from fitts3d.regression import STEPWISE_CANDIDATES, ConditionTable

CELLS = [(e, i) for e in ("e1", "e2", "e3", "e4")
         for i in (InteractionKind.POINTING, InteractionKind.MANIPULATION)]


def _cell_trials(experiment, interaction, seed=0):
    grid = build_grid(experiment, interaction)
    truth = replace(paper_scale_defaults(experiment, interaction), seed=seed)
    return generate_trials(grid, truth, interaction)


# ---- per-trial reference --------------------------------------------------

def reference_rows(trials, aggregate):
    """(task, response) per row, grouped the direct way."""
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
                raise EmptyCondition(f"no successful trials for condition {task}")
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
    names = vectors[0].names
    values = np.array([v.values for v in vectors], dtype=float)
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
    return replace(ols_fit(X, y, kind=kind), dropped=tuple(dropped))


def reference_points(kind, fit, trials, aggregate):
    tasks, y = reference_rows(trials, aggregate)
    return [
        [predictors_for(kind, task).as_dict()[n] for n in fit.predictor_names]
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
    assert got.kind == want.kind
    assert got.predictor_names == want.predictor_names
    assert got.coefficients == want.coefficients
    assert got.r2 == want.r2
    assert got.n == want.n
    assert got.ss_res == want.ss_res and got.ss_tot == want.ss_tot
    assert got.dropped == want.dropped
    assert got.degenerate_variance == want.degenerate_variance
    assert got.residuals.shape == (want.n,)
    assert np.array_equal(got.residuals, want.residuals)


def assert_report_matches_reference(trials, aggregate):
    report = build_comparison_report(trials, MODEL_ORDER, aggregate=aggregate)
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
    trials = _cell_trials(experiment, interaction)
    table = ConditionTable(trials, aggregate)
    rows = {r.kind: r for r in compare_models(table)}
    for kind in MODEL_ORDER:
        want = outcome(reference_fit, kind, trials, aggregate)
        assert_same_fit(outcome(fit_model, kind, table), want)
        row = rows[kind]
        if isinstance(want, tuple):
            assert row.error == f"{want[0].__name__}: {want[1]}"
        else:
            assert_same_fit(row.fit, want)
    assert_report_matches_reference(trials, aggregate)
    X, y = condition_matrix(table)
    X_ref, y_ref = reference_condition_matrix(trials, aggregate)
    assert np.array_equal(X.values, X_ref) and np.array_equal(y, y_ref)


@pytest.mark.parametrize("aggregate", [True, False])
@pytest.mark.parametrize("experiment,interaction", CELLS)
def test_fit_does_not_depend_on_design_layout(experiment, interaction, aggregate):
    # row- and column-major copies of one design give the same fit
    table = ConditionTable(_cell_trials(experiment, interaction), aggregate)
    for kind in MODEL_ORDER:
        fit = outcome(fit_model, kind, table)
        if isinstance(fit, tuple):
            continue
        names, values = table.predictors(kind)
        cols = [names.index(n) for n in fit.predictor_names]
        design = values[:, cols][table.rows]
        row_major = DesignMatrix(fit.predictor_names, np.ascontiguousarray(design))
        col_major = DesignMatrix(fit.predictor_names, np.asfortranarray(design))
        assert_same_fit(ols_fit(row_major, table.y, kind=kind),
                        ols_fit(col_major, table.y, kind=kind))


def test_predictors_run_once_per_condition_and_model(monkeypatch):
    trials = _cell_trials("e4", InteractionKind.POINTING)  # 64 conditions x 4
    calls = []

    def counting(kind, task):
        calls.append(kind)
        return predictors_for(kind, task)

    monkeypatch.setattr(regression, "predictors_for", counting)
    report = build_comparison_report(trials, MODEL_ORDER, aggregate=False)
    assert all(m["points"] for m in report["models"])
    assert len(calls) == len(MODEL_ORDER) * 64


def test_table_layout():
    a = TaskSpec(F=2.0, W=4.0, A=8.0)
    b = TaskSpec(F=2.0, W=4.0, A=16.0)
    trials = [Trial(b, 1.0, True), Trial(a, 2.0, False), Trial(a, 3.0, True),
              Trial(b, 5.0, True), Trial(a, 4.0, True)]
    per_trial = ConditionTable(trials, aggregate=False)
    assert per_trial.tasks == (b, a)
    assert per_trial.rows.tolist() == [0, 1, 0, 1]
    assert per_trial.y.tolist() == [1.0, 3.0, 5.0, 4.0]
    means = ConditionTable(trials, aggregate=True)
    assert means.tasks == (b, a)
    assert means.rows.tolist() == [0, 1]
    assert means.y.tolist() == [3.0, 3.5]
    names, values = means.predictors(ModelKind.FINAL)
    assert names == ("id_t", "id_r")
    assert values.shape == (2, 2)
    assert means.predictors(ModelKind.FINAL)[1] is values  # cached


def test_aggregated_table_fits_condition_means():
    table = ConditionTable(_cell_trials("e1", InteractionKind.POINTING), True)
    assert fit_model(ModelKind.FITTS, table).n == 48


# ---- property: any trial list ---------------------------------------------

_conditions = st.builds(
    TaskSpec,
    F=st.sampled_from([2.0, 4.0]),
    W=st.sampled_from([2.0, 5.0]),
    A=st.sampled_from([0.0, 6.0, 12.0]),
    phi=st.sampled_from([0.0, 90.0, 225.0]),
    theta=st.sampled_from([0.0, 45.0]),
    alpha=st.sampled_from([0.0, 45.0]),
    omega=st.sampled_from([0.0, 7.5]),
    interaction=st.sampled_from(list(InteractionKind)))


@st.composite
def _trial_lists(draw):
    conditions = draw(st.lists(_conditions, min_size=1, max_size=6, unique=True))
    trials = []
    for task in conditions:
        for _ in range(draw(st.integers(1, 5))):
            trials.append(Trial(task, draw(st.floats(0.1, 10.0)),
                                draw(st.booleans())))
    return draw(st.permutations(trials))


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_trial_lists(), st.booleans())
def test_grouped_matches_reference_on_any_trials(trials, aggregate):
    for kind in MODEL_ORDER:
        assert_same_fit(
            outcome(lambda: fit_model(kind, ConditionTable(trials, aggregate))),
            outcome(reference_fit, kind, trials, aggregate))
    table = outcome(ConditionTable, trials, aggregate)
    rows = outcome(reference_rows, trials, aggregate)
    if isinstance(rows, tuple) and isinstance(rows[0], type):
        assert table == rows  # same exception, same message
        return
    assert_report_matches_reference(trials, aggregate)
    got = outcome(condition_matrix, table, STEPWISE_CANDIDATES)
    X_ref, y_ref = reference_condition_matrix(trials, aggregate)
    assert np.array_equal(got[0].values, X_ref) and np.array_equal(got[1], y_ref)
