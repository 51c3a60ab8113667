import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fitts3d import (MODEL_ORDER, ConditionTable, DesignMatrix, DomainError,
                     EmptyCondition, InsufficientData, InteractionKind,
                     InvalidNesting, ModelFit, ModelKind, RankDeficient, TaskSpec,
                     compare_models, condition_matrix, f_sf, fit_model,
                     ols_fit, partial_f_test, predictors_for, stepwise)
from fitts3d import metrics, regression
from fitts3d.synth import Experiment, GroundTruth, build_grid, generate_trials
from cells import PUBLISHED_REPS, cell_log
from exact_oracle import exact_fit
from stepwise_oracle import reference_stepwise
from trial_rows import task_specs, trial_log


def _mat(names, cols):
    return DesignMatrix(tuple(names), np.column_stack(cols))


def test_ols_recovers_exact_line():
    x = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    y = 0.4 + 0.3 * x
    fit = ols_fit(_mat(["id"], [x]), y)
    assert fit.coefficients["intercept"] == pytest.approx(0.4, abs=1e-12)
    assert fit.coefficients["id"] == pytest.approx(0.3, abs=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)


def test_ols_two_predictors():
    rng = np.random.default_rng(0)
    x1 = rng.normal(size=40)
    x2 = rng.normal(size=40)
    y = 1.5 - 2.0 * x1 + 0.7 * x2
    fit = ols_fit(_mat(["a", "b"], [x1, x2]), y)
    assert fit.coefficients == pytest.approx(
        {"intercept": 1.5, "a": -2.0, "b": 0.7}, abs=1e-10)


def test_ols_rank_deficient():
    x = np.arange(10.0)
    with pytest.raises(RankDeficient):
        ols_fit(_mat(["a", "b"], [x, 2 * x]), x)
    # constant column duplicates the intercept
    with pytest.raises(RankDeficient):
        ols_fit(_mat(["c"], [np.full(10, 3.0)]), x)


def test_ols_insufficient_rows():
    with pytest.raises(InsufficientData):
        ols_fit(_mat(["a", "b"], [np.array([1.0, 2.0]), np.array([3.0, 1.0])]),
                np.array([1.0, 2.0]))
    # an empty response is refused without numpy's warning on its mean
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InsufficientData, match="^0 rows cannot identify 0 slopes"):
            ols_fit(DesignMatrix((), np.empty((0, 0))), np.empty(0))


def test_ols_refuses_sums_of_squares_that_overflow():
    # finite, but their sum of squares is not: r2 was NaN. The refusal is
    # the only sign of it: numpy warns of no overflow on the way
    X = _mat(["x"], [np.array([1.0, 2.0, 3.0])])
    y = np.array([1e308, 1e300, 1.5e308])
    for fit in (ols_fit, stepwise):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="^sums of squares overflow"):
                fit(X, y)


@pytest.mark.parametrize("names,values,fragment", [
    (("a", "a"), np.zeros((3, 2)), "column names must be unique"),
    (("a", ""), np.zeros((3, 2)), "column names must be nonempty"),
    (("a",), np.zeros(3), "values must be a 2-d array"),
    (("a",), np.zeros((3, 1, 1)), "values must be a 2-d array"),
    (("a",), [1.0, 2.0], "values must be a 2-d array"),
    (("a",), [[[1.0]], [[2.0]]], "values must be a 2-d array"),
    (("a", "b"), [[1.0, 2.0], [3.0]], "one name per column required"),
    (("a", "b"), np.zeros((3, 1)), "one name per column required"),
    (("a",), np.array([[1.0], [math.nan], [2.0]]), "entries must be finite"),
    (("a",), np.array([[1.0], [math.inf], [2.0]]), "entries must be finite"),
])
def test_design_matrix_validation(names, values, fragment):
    with pytest.raises(ValueError, match=fragment):
        DesignMatrix(names, values)


@pytest.mark.parametrize("y,fragment", [
    (np.zeros(4), "one value per design matrix row"),
    (np.zeros((5, 1)), "one value per design matrix row"),
    (np.float64(1.0), "one value per design matrix row"),
    ([[1.0]] * 5, "one value per design matrix row"),
    (np.array([1.0, 2.0, math.nan, 3.0, 4.0]), "y must be finite"),
])
def test_ols_rejects_bad_response(y, fragment):
    with pytest.raises(ValueError, match=fragment):
        ols_fit(_mat(["x"], [np.arange(5.0)]), y)


@pytest.mark.parametrize("n,value", [(8, 2.5), (3, 0.1)])  # 0.1 * 3 / 3 != 0.1
def test_ols_constant_response(n, value):
    x = np.arange(n, dtype=float)
    fit = ols_fit(_mat(["x"], [x]), np.full(n, value))
    assert fit.degenerate_variance
    assert fit.r2 == 0.0 and fit.ss_tot == 0.0
    assert abs(fit.coefficients["x"]) < 1e-9
    assert fit.coefficients["intercept"] == pytest.approx(value, abs=1e-9)


def test_residual_orthogonality():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(8, 40))
        p = int(rng.integers(1, 4))
        X = rng.normal(size=(n, p)) * rng.uniform(0.1, 10)
        y = rng.normal(size=n) * rng.uniform(0.1, 10)
        fit = ols_fit(DesignMatrix(tuple(f"x{i}" for i in range(p)), X), y)
        M = np.column_stack([np.ones(n), X])
        residuals = y - M @ list(fit.coefficients.values())
        scale = max(1.0, float(np.abs(M).max() * np.abs(y).max()))
        assert float(np.abs(M.T @ residuals).max()) < 1e-8 * scale


def test_r2_equals_squared_correlation():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(10, 60))
        x = rng.normal(size=n)
        y = 0.5 * x + rng.normal(size=n)
        fit = ols_fit(_mat(["x"], [x]), y)
        fitted = fit.coefficients["intercept"] + fit.coefficients["x"] * x
        corr = np.corrcoef(fitted, y)[0, 1]
        assert fit.r2 == pytest.approx(corr ** 2, abs=1e-9)


# Every fit is exact least squares rounded once: its r2, each
# coefficient, ss_res and ss_tot are float() of tests/exact_oracle.py's
# values, bit for bit. A step's F is partial_f_test's, from two rounded
# residual sums of squares R (reduced) and S (full) on df residual
# degrees of freedom; each is within u of exact, so F = (R - S) df / S is
# within a few u (R + S) df / S of exact, F_UNITS of them. On the paper
# cells a step's F is also held to _F_BOUND relative, the bound it had
# when the fits were float: the worst seen is ~39 u.
_U = Fraction(2) ** -53
_F_UNITS = 4
_F_BOUND = 1024 * _U


def _table(experiment, interaction, aggregate, published=False):
    """The ConditionTable of one cell at paper or published scale."""
    reps = PUBLISHED_REPS[experiment] if published else None
    return ConditionTable(cell_log(experiment, interaction, reps), aggregate)


def _fitted_design(table, kind, kept):
    """The design fit_model fits on table: the columns of the model's
    predictors named in kept, one row per response row."""
    names, values = table.predictors(kind)
    cols = [names.index(n) for n in kept]
    return DesignMatrix(kept, np.array(values)[:, cols][list(table.rows)])


def _assert_exact(fit, X, y):
    """fit is X's exact least-squares fit to y, each number rounded once."""
    coefficients, r2, ss_res, ss_tot = exact_fit(X, y)
    assert fit.coefficients == {name: float(v) for name, v in coefficients.items()}
    assert (fit.r2, fit.ss_res, fit.ss_tot) == (float(r2), float(ss_res),
                                                float(ss_tot))
    assert fit.degenerate_variance == (ss_tot == 0)


def _assert_fits_exact(table):
    """Every model's fit from compare_models on table is exact."""
    for row in compare_models(table):
        fit = row.fit  # every model fits on these cells
        _assert_exact(fit, _fitted_design(table, row.kind, fit.predictor_names),
                      table.y)


def _f_error(f_stat, full, reduced, df):
    """F's error, in units of u (R + S) df / S, against the exact F of the
    exact residual sums of squares full (S) and reduced (R)."""
    exact = (reduced - full) * df / full
    return abs(Fraction(f_stat) - exact) / (_U * (reduced + full) * df / full)


def _assert_steps_exact(X, y):
    """Every step stepwise takes on (X, y) has the exact r2 and its F
    within _F_UNITS of exact; its fit is ols_fit's on the same columns."""
    exact = {}  # a set of names -> the exact (r2, ss_res) of its fit

    def exact_of(names):
        key = frozenset(names)
        if key not in exact:
            exact[key] = exact_fit(X.subset(tuple(names)), y)[1:3]
        return exact[key]

    report = stepwise(X, y)
    assert report.steps
    included = []
    for step in report.steps:
        before = list(included)
        if step.action == "enter":
            included.append(step.name)
            full, reduced = included, before
        else:
            included.remove(step.name)
            full, reduced = before, included
        df = len(y) - len(full) - 1
        ss_full, ss_reduced = exact_of(full)[1], exact_of(reduced)[1]
        assert _f_error(step.f_stat, ss_full, ss_reduced, df) <= _F_UNITS, step
        f_stat = (ss_reduced - ss_full) * df / ss_full
        assert abs(Fraction(step.f_stat) - f_stat) <= _F_BOUND * f_stat, step
        assert step.r2 == float(exact_of(included)[0]), step
    assert report.fit == ols_fit(X.subset(report.selected), y)


def test_exact_oracle_recovers_an_exact_plane():
    x = np.arange(6.0)
    z = np.array([0.5, -1.0, 2.0, 0.0, 1.5, 3.0])
    coefficients, r2, ss_res, _ = exact_fit(_mat(["x", "z"], [x, z]),
                                            1 + 2 * x - 0.25 * z)
    assert coefficients == {"intercept": 1, "x": 2, "z": Fraction(-1, 4)}
    assert (r2, ss_res) == (1, 0)
    assert exact_fit(_mat(["x"], [x]), np.full(6, 0.1))[1:] == (0, 0, 0)
    # y = 0, 0, 0, 0, 0, 1 on x alone: ss_res = Syy - Sxy^2 / Sxx
    # = 5/6 - (5/2)^2 / (35/2) = 10/21, and ss_tot = 1 - 1/6
    y = np.array([0.0, 0, 0, 0, 0, 1])
    assert exact_fit(_mat(["x"], [x]), y)[2:] == (Fraction(10, 21), Fraction(5, 6))


@pytest.mark.parametrize("experiment", list(Experiment))
@pytest.mark.parametrize("interaction", list(InteractionKind))
@pytest.mark.parametrize("aggregate", [True, False])
@pytest.mark.parametrize("seed", [0, 5])
def test_fits_are_exact_least_squares(experiment, interaction, aggregate, seed):
    _assert_fits_exact(ConditionTable(cell_log(experiment, interaction, seed=seed),
                                      aggregate))


@pytest.mark.parametrize("experiment", list(Experiment))
@pytest.mark.parametrize("interaction", list(InteractionKind))
@pytest.mark.parametrize("aggregate", [True, False])
@pytest.mark.parametrize("seed", [0, 5])
def test_stepwise_steps_are_exact_least_squares(experiment, interaction,
                                                aggregate, seed):
    table = ConditionTable(cell_log(experiment, interaction, seed=seed), aggregate)
    _assert_steps_exact(*condition_matrix(table))


@pytest.mark.parametrize("experiment", list(Experiment))
@pytest.mark.parametrize("interaction", list(InteractionKind))
def test_published_scale_fits_and_steps_are_exact(experiment, interaction):
    table = _table(experiment, interaction, aggregate=False, published=True)
    _assert_fits_exact(table)
    _assert_steps_exact(*condition_matrix(table))


@st.composite
def _small_logs(draw):
    """2 to 8 conditions of 1 to 5 trials, times in [0.1, 10] s, some
    failed; each condition's first trial succeeds, so that both
    groupings of the log make a table."""
    rows = []
    for task in draw(st.lists(task_specs, min_size=2, max_size=8, unique=True)):
        for i in range(draw(st.integers(1, 5))):
            success = i == 0 or draw(st.sampled_from((True, True, False)))
            rows.append((task, draw(st.floats(0.1, 10.0)), success))
    return trial_log(draw(st.permutations(rows)))


def _assert_fit_model_exact(table):
    """Holds fit_model's outcome for every model on table to exact least
    squares, where its predictors can be built: the exactly constant
    predictors dropped, InsufficientData only for too few rows and
    RankDeficient only for an exactly singular design."""
    for kind in MODEL_ORDER:
        try:
            names, values = table.predictors(kind)
        except DomainError:  # a task outside the model's domain
            with pytest.raises(DomainError):
                fit_model(kind, table)
            continue
        constant = tuple(n for n, col in zip(names, zip(*values))
                         if min(col) == max(col))
        try:
            fit = fit_model(kind, table)
        except InsufficientData:
            assert len(table.y) <= len(names) - len(constant), kind
            continue
        except RankDeficient:
            kept = tuple(n for n in names if n not in constant)
            if kept:
                with pytest.raises(ZeroDivisionError):
                    exact_fit(_fitted_design(table, kind, kept), table.y)
            continue
        assert fit.dropped == constant, kind
        _assert_exact(fit, _fitted_design(table, kind, fit.predictor_names), table.y)


def _assert_partial_f_near_exact(X, y):
    """partial_f_test's F within _F_UNITS of exact, for the full fit on
    X's non-constant columns that keep the design full rank, taken in
    order, against each column dropped in turn."""
    kept = []
    for name, col in zip(X.names, zip(*X.values)):
        if min(col) == max(col) or len(y) - len(kept) - 2 < 1:
            continue
        try:
            exact_fit(X.subset((*kept, name)), y)
        except ZeroDivisionError:
            continue
        kept.append(name)
    full = ols_fit(X.subset(kept), y)
    ss_full = exact_fit(X.subset(kept), y)[2]
    df = len(y) - len(kept) - 1
    for name in kept if ss_full else ():  # an exact fit's F is infinite
        rest = tuple(n for n in kept if n != name)
        f_stat, _ = partial_f_test(full, ols_fit(X.subset(rest), y))
        ss_reduced = exact_fit(X.subset(rest), y)[2]
        assert _f_error(f_stat, ss_full, ss_reduced, df) <= _F_UNITS, name


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_small_logs(), st.booleans())
def test_fits_and_partial_f_on_drawn_logs_are_exact(log, aggregate):
    table = ConditionTable(log, aggregate)
    _assert_fit_model_exact(table)
    _assert_partial_f_near_exact(*condition_matrix(table))


def test_r2_affine_invariance():
    rng = np.random.default_rng(3)
    x = rng.normal(size=30)
    y = 1.0 + 2.0 * x + rng.normal(size=30)
    base = ols_fit(_mat(["x"], [x]), y).r2
    for beta, gamma in ((2.0, 0.0), (0.5, 3.0), (10.0, -7.0)):
        assert ols_fit(_mat(["x"], [x]), beta * y + gamma).r2 == pytest.approx(base, abs=1e-9)


def test_partial_f_hand_case():
    # one extra predictor: F = (ssr_red - ssr_full) / (ssr_full / (n - 2))
    rng = np.random.default_rng(4)
    x = rng.normal(size=20)
    y = 1.0 + 0.8 * x + rng.normal(size=20) * 0.3
    full = ols_fit(_mat(["x"], [x]), y)
    reduced = ols_fit(DesignMatrix((), np.empty((20, 0))), y)
    f_stat, p = partial_f_test(full, reduced)
    expected_f = (reduced.ss_res - full.ss_res) / (full.ss_res / 18)
    assert f_stat == pytest.approx(expected_f, rel=1e-12)
    assert p == pytest.approx(f_sf(expected_f, 1, 18), abs=1e-14)


def test_partial_f_identical_sets():
    rng = np.random.default_rng(5)
    x = rng.normal(size=15)
    y = x + rng.normal(size=15)
    fit = ols_fit(_mat(["x"], [x]), y)
    assert partial_f_test(fit, fit) == (0.0, 1.0)


def test_partial_f_perfect_fit():
    x = np.arange(10.0)
    full = ols_fit(_mat(["x"], [x]), 2.0 * x + 1.0)
    reduced = ols_fit(DesignMatrix((), np.empty((10, 0))), 2.0 * x + 1.0)
    f_stat, p = partial_f_test(full, reduced)
    assert f_stat > 1e12 and p < 1e-15  # numerically perfect fit
    # exact zero residual variance takes the infinite-F branch
    f_stat, p = partial_f_test(full._replace(ss_res=0.0), reduced)
    assert math.isinf(f_stat)
    assert p == 0.0
    # both residuals exactly zero: no evidence either way
    assert partial_f_test(full._replace(ss_res=0.0),
                          reduced._replace(ss_res=0.0)) == (0.0, 1.0)


def test_partial_f_needs_residual_degrees_of_freedom():
    # three rows and two slopes fit exactly, leaving no residual df
    X = _mat(["A", "W"], [np.array([12.0, 24.0, 36.0]), np.array([5.0, 7.5, 5.0])])
    y = np.array([1.0, 2.0, 3.001])
    full = ols_fit(X, y)
    reduced = ols_fit(X.subset(["A"]), y)
    with pytest.raises(InsufficientData, match="no residual degrees of freedom"):
        partial_f_test(full, reduced)


def test_partial_f_invalid_nesting():
    rng = np.random.default_rng(6)
    x1, x2 = rng.normal(size=12), rng.normal(size=12)
    y = x1 + rng.normal(size=12)
    fa = ols_fit(_mat(["a"], [x1]), y)
    fb = ols_fit(_mat(["b"], [x2]), y)
    with pytest.raises(InvalidNesting):
        partial_f_test(fa, fb)
    short = ols_fit(_mat(["a"], [x1[:10]]), y[:10])
    with pytest.raises(InvalidNesting):
        partial_f_test(fa, short)


def test_partial_f_p_monotone_in_f():
    prev = 1.0
    for f in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0):
        p = f_sf(f, 2, 12)
        assert p < prev
        prev = p


def test_nested_r2_monotonicity():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(10, 40))
        X = rng.normal(size=(n, 3))
        y = X @ rng.normal(size=3) + rng.normal(size=n)
        dm = DesignMatrix(("a", "b", "c"), X)
        full = ols_fit(dm, y)
        for sub in (("a",), ("b",), ("a", "b"), ("a", "c")):
            assert ols_fit(dm.subset(sub), y).r2 <= full.r2 + 1e-12


def test_stepwise_selects_true_variable():
    # y depends only on x1; the pure-noise x2 is rejected in a strong
    # majority of seeds (entry needs p < .05, so ~5 percent false entries)
    only_x1 = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        x1 = rng.normal(size=30)
        x2 = rng.normal(size=30)
        y = 1.0 + 2.0 * x1 + rng.normal(scale=0.5, size=30)
        report = stepwise(_mat(["x1", "x2"], [x1, x2]), y)
        if report.selected == ("x1",):
            only_x1 += 1
        assert "x1" in report.selected
    assert only_x1 >= 80


def test_stepwise_enters_smallest_p_first():
    rng = np.random.default_rng(8)
    strong = rng.normal(size=60)
    weak = rng.normal(size=60)
    y = 3.0 * strong + 0.4 * weak + rng.normal(size=60) * 0.5
    report = stepwise(_mat(["weak", "strong"], [weak, strong]), y)
    enters = [s.name for s in report.steps if s.action == "enter"]
    assert enters[0] == "strong"
    assert set(report.selected) == {"weak", "strong"}
    # cumulative r2 nondecreasing over enter steps
    r2s = [s.r2 for s in report.steps if s.action == "enter"]
    assert r2s == sorted(r2s)


def test_stepwise_removal_phase():
    # x3 = x1 + x2 (plus tiny noise) enters first but becomes redundant
    # once x1 and x2 are both in; it must be removed again
    rng = np.random.default_rng(0)
    x1 = rng.normal(size=200)
    x2 = rng.normal(size=200)
    x3 = x1 + x2 + rng.normal(size=200) * 0.05
    y = 2.0 * x1 + 1.8 * x2 + rng.normal(size=200) * 0.2
    X = _mat(["x3", "x1", "x2"], [x3, x1, x2])
    report = stepwise(X, y)
    assert [(s.action, s.name) for s in report.steps] == [
        ("enter", "x3"), ("enter", "x1"), ("enter", "x2"), ("remove", "x3")]
    # the one design whose steps hold a removal to the exact oracle
    _assert_steps_exact(X, y)
    assert set(report.selected) == {"x1", "x2"}
    # final selection never keeps a variable with partial p above .10
    for name in report.selected:
        reduced = ols_fit(
            _mat([n for n in report.selected if n != name],
                 [dict(x1=x1, x2=x2, x3=x3)[n]
                  for n in report.selected if n != name]), y)
        _, p = partial_f_test(report.fit, reduced)
        assert p <= 0.10


def test_stepwise_skips_constant_and_collinear():
    rng = np.random.default_rng(16)
    x1 = rng.normal(size=40)
    y = x1 * 2.0 + rng.normal(size=40) * 0.1
    X = _mat(["x1", "const", "twin"], [x1, np.full(40, 1.7), 2.0 * x1])
    report = stepwise(X, y)
    assert report.selected == ("x1",)


def test_stepwise_skips_candidate_without_residual_df():
    # after A enters, adding W to three conditions leaves no residual df
    X = _mat(["A", "W"], [np.array([12.0, 24.0, 36.0]), np.array([5.0, 7.5, 5.0])])
    y = np.array([1.0, 2.0, 3.001])
    report = stepwise(X, y)
    assert report.selected == ("A",)
    assert report.steps == stepwise(X.subset(["A"]), y).steps


@pytest.mark.parametrize("n,value", [(10, 1.0), (3, 0.1), (0, 1.0)])
def test_stepwise_degenerate_response(n, value):
    X = _mat(["x"], [np.arange(n, dtype=float)])
    if not n:  # no rows: ols_fit's refusal
        for fit in (ols_fit, stepwise):
            with pytest.raises(InsufficientData,
                               match="^0 rows cannot identify 1 slopes plus an intercept$"):
                fit(X, np.full(n, value))
        return
    report = stepwise(X, np.full(n, value))
    assert report.steps == ()
    assert report.selected == ()
    assert report.r2 == 0.0


@pytest.mark.parametrize("experiment", list(Experiment))
@pytest.mark.parametrize("interaction", list(InteractionKind))
@pytest.mark.parametrize("aggregate", [True, False])
def test_stepwise_converges_on_paper_cells(experiment, interaction, aggregate):
    report = stepwise(*condition_matrix(_table(experiment, interaction, aggregate)))
    assert report.hit_round_cap is False


def test_stepwise_flags_round_cap(monkeypatch):
    # partial F alternates significant (enter) and not (remove), so x
    # enters and leaves every round until the cap stops the loop
    calls = []

    def alternating(full, reduced):
        calls.append(None)
        return (10.0, 0.01) if len(calls) % 2 else (0.1, 0.9)

    monkeypatch.setattr(regression, "partial_f_test", alternating)
    rng = np.random.default_rng(3)
    x = rng.normal(size=20)
    report = stepwise(_mat(["x"], [x]), x + rng.normal(size=20))
    assert report.hit_round_cap is True
    assert len(report.steps) == 2 * (4 * 1 + 8)
    assert [s.action for s in report.steps[:2]] == ["enter", "remove"]
    assert report.selected == ()


def _noiseless_trials(kind, coefficients, experiment):
    return generate_trials(build_grid(experiment), GroundTruth(kind, coefficients),
                           InteractionKind.POINTING)


def test_fit_model_recovers_planted_line():
    trials = _noiseless_trials(ModelKind.FITTS, {"intercept": 0.4, "id": 0.3},
                               Experiment.E1)
    fit = fit_model(ModelKind.FITTS, ConditionTable(trials))
    assert fit.coefficients["intercept"] == pytest.approx(0.4, abs=1e-9)
    assert fit.coefficients["id"] == pytest.approx(0.3, abs=1e-9)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    assert fit.n == 48


def test_fit_model_excludes_error_trials():
    task_a = TaskSpec(F=3, W=5, A=12)
    task_b = TaskSpec(F=3, W=5, A=24)
    task_c = TaskSpec(F=3, W=5, A=48)
    rows = [(task_a, 1.0, True), (task_a, 15.0, False),
            (task_b, 2.0, True), (task_c, 3.0, True)]
    fit = fit_model(ModelKind.FITTS, ConditionTable(trial_log(rows)))
    # the 15 s error trial must not pull the task_a mean
    assert fit.n == 3
    fit2 = fit_model(ModelKind.FITTS,
                     ConditionTable(trial_log(r for r in rows if r[2])))
    assert fit.coefficients == pytest.approx(fit2.coefficients, abs=1e-12)


def test_fit_model_empty_condition():
    task_a = TaskSpec(F=3, W=5, A=12)
    task_b = TaskSpec(F=3, W=5, A=24)
    log = trial_log([(task_a, 15.0, False), (task_b, 2.0, True)])
    with pytest.raises(EmptyCondition):
        fit_model(ModelKind.FITTS, ConditionTable(log))


def test_condition_table_refuses_a_mean_whose_sum_overflows():
    task_a = TaskSpec(F=3, W=5, A=12)
    task_b = TaskSpec(F=3, W=5, A=24)
    log = trial_log([(task_a, 1e308, True), (task_a, 1e308, True),
                     (task_b, 2.0, True)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning before either refusal
        with pytest.raises(DomainError, match="movement times overflow their sum"):
            ConditionTable(log)
        # per trial nothing is summed until the fit, which refuses the data
        with pytest.raises(DomainError, match="^sums of squares overflow"):
            fit_model(ModelKind.SHANNON, ConditionTable(log, aggregate=False))


def test_fit_model_needs_two_conditions():
    task = TaskSpec(F=3, W=5, A=12)
    with pytest.raises(InsufficientData):
        fit_model(ModelKind.FITTS, ConditionTable(trial_log([(task, 1.0, True)] * 5)))
    with pytest.raises(InsufficientData):
        fit_model(ModelKind.FITTS, ConditionTable(trial_log([])))


def test_fit_model_drops_constant_predictor():
    # phi fixed at 90 makes sin_phi constant; the Murata fit reduces to
    # the Shannon form and records the dropped column
    trials = _noiseless_trials(
        ModelKind.MURATA_IWASE,
        {"intercept": 0.3, "id_shannon": 0.25, "sin_phi": 0.1},
        Experiment.E1)
    fit = fit_model(ModelKind.MURATA_IWASE, ConditionTable(trials))
    assert fit.dropped == ("sin_phi",)
    assert fit.predictor_names == ("id_shannon",)
    shannon = fit_model(ModelKind.SHANNON, ConditionTable(trials))
    assert fit.r2 == pytest.approx(shannon.r2, abs=1e-12)


def test_fit_model_per_trial_mode():
    trials = _noiseless_trials(ModelKind.FITTS, {"intercept": 0.4, "id": 0.3},
                               Experiment.E1)
    fit = fit_model(ModelKind.FITTS, ConditionTable(trials, aggregate=False))
    assert fit.n == 240
    assert fit.coefficients["id"] == pytest.approx(0.3, abs=1e-9)


def test_compare_models_ranking_and_inline_errors():
    # translational data that includes an A=0 condition: Fitts and
    # Hoffmann cannot express it, the others still fit
    tasks = [TaskSpec(F=3, W=5, A=a) for a in (0, 12, 24, 36)]
    log = trial_log((t, 0.4 + 0.3 * (i + 1), True) for i, t in enumerate(tasks))
    rows = compare_models(ConditionTable(log),
                          kinds=(ModelKind.FITTS, ModelKind.WELFORD,
                                 ModelKind.SHANNON, ModelKind.FINAL))
    by_kind = {r.kind: r for r in rows}
    assert by_kind[ModelKind.FITTS].fit is None
    assert "DomainError" in by_kind[ModelKind.FITTS].error
    assert by_kind[ModelKind.WELFORD].fit is not None
    assert by_kind[ModelKind.FINAL].fit is not None
    # fitted rows come first, descending r2
    fitted = [r for r in rows if r.fit is not None]
    assert rows[:len(fitted)] == fitted
    r2s = [r.fit.r2 for r in fitted]
    assert r2s == sorted(r2s, reverse=True)
    assert rows[-1].kind is ModelKind.FITTS


def test_compare_models_declaration_order_ties():
    # a two-condition dataset gives every single-predictor model r2 = 1;
    # ties resolve in declaration order
    tasks = [TaskSpec(F=3, W=5, A=12), TaskSpec(F=3, W=5, A=24)]
    log = trial_log([(tasks[0], 1.0, True), (tasks[1], 2.0, True)])
    rows = compare_models(ConditionTable(log),
                          kinds=(ModelKind.SHANNON, ModelKind.WELFORD,
                                 ModelKind.FITTS))
    kinds = [r.kind for r in rows]
    assert kinds == [ModelKind.FITTS, ModelKind.WELFORD, ModelKind.SHANNON]


def test_compare_models_empty_kinds():
    trials = _noiseless_trials(ModelKind.FITTS, {"intercept": 0.4, "id": 0.3},
                               Experiment.E1)
    assert compare_models(ConditionTable(trials), kinds=()) == []


def test_compare_models_affine_rank_invariance():
    truth = GroundTruth(ModelKind.FINAL,
                        {"intercept": 0.3, "id_t": 0.4, "id_r": 0.9},
                        noise_sd=0.15, seed=5)
    log = generate_trials(build_grid(Experiment.E4), truth,
                          InteractionKind.POINTING)
    rows = compare_models(ConditionTable(log))
    scaled = log._replace(mt=tuple(1.2 * mt + 0.3 for mt in log.mt))
    rows2 = compare_models(ConditionTable(scaled))
    assert [r.kind for r in rows] == [r.kind for r in rows2]
    for a, b in zip(rows, rows2):
        assert a.fit.r2 == pytest.approx(b.fit.r2, abs=1e-9)


def _tied_models(tasks):
    """Groups of two or more models, from metrics._MODELS, whose predictor
    columns on tasks are equal once the constant ones are dropped: they
    fit one design. A model that cannot express a task is left out."""
    groups = {}
    for kind in metrics._MODELS:
        try:
            rows = [tuple(predictors_for(kind, t).values()) for t in tasks]
        except DomainError:
            continue
        columns = tuple(c for c in zip(*rows) if len(set(c)) > 1)
        groups.setdefault(columns, []).append(kind)
    return [g for g in groups.values() if len(g) > 1]


def test_some_models_tie_on_the_paper_grids():
    # e.g. Murata-Iwase is Shannon where every phi gives one sine
    assert any(_tied_models(build_grid(e).variations) for e in Experiment)


@pytest.mark.parametrize("aggregate", [True, False])
@pytest.mark.parametrize("interaction", list(InteractionKind))
@pytest.mark.parametrize("experiment", list(Experiment))
def test_compare_models_gives_tied_models_one_fit(experiment, interaction,
                                                  aggregate):
    table = _table(experiment, interaction, aggregate)
    fits = {row.kind: row.fit for row in compare_models(table)}
    for group in _tied_models(table.tasks):
        first, *others = (fits[kind] for kind in group)
        for fit in others:
            assert fit.r2.hex() == first.r2.hex()
            assert list(fit.coefficients.values()) == \
                list(first.coefficients.values())


def test_condition_matrix():
    table = ConditionTable(_noiseless_trials(
        ModelKind.FITTS, {"intercept": 0.4, "id": 0.3}, Experiment.E1))
    X, y = condition_matrix(table, ("F", "W", "A", "phi"))
    assert X.names == ("F", "W", "A", "sin_phi")
    assert len(X.values) == 48 and {len(row) for row in X.values} == {4}
    assert y is table.y and len(y) == 48
    with pytest.raises(ValueError):
        condition_matrix(table, ("A", "A"))
    with pytest.raises(ValueError):
        condition_matrix(table, ("A", "bogus"))
    with pytest.raises(ValueError):
        condition_matrix(table, ())


# ---- wide exponents ----------------------------------------------------------

# one exact fit of a design whose entries span 1e-300 to 1e300 works on
# integers of a few thousand bits; each call must stay under this bound
_WIDE_CALL_S = 0.5


def _spread(*scales):
    return st.builds(lambda m, e: m * e, st.floats(-2.0, 2.0), st.sampled_from(scales))


# the rank rule compares each column's norm with the intercept's, so a
# column reaching 1e300 fails it: most columns span 1e-300 to 1
_WIDE = _spread(1e-300, 1e-150, 1e-20, 1.0, 1e20, 1e150, 1e300)
_WIDE_BELOW_ONE = _spread(1e-300, 1e-150, 1e-20, 1.0, 1.0, 1.0)


@st.composite
def _wide_designs(draw):
    """Up to 3 columns on 4 to 12 rows, each column's entries and the
    response's spanning 1e-300 to 1e300, or a column's to 1."""
    n = draw(st.integers(4, 12))
    columns = [draw(st.lists(draw(st.sampled_from([_WIDE, _WIDE_BELOW_ONE,
                                                    _WIDE_BELOW_ONE])),
                             min_size=n, max_size=n))
               for _ in range(draw(st.integers(1, 3)))]
    y = np.array(draw(st.lists(_WIDE, min_size=n, max_size=n)))
    return _mat([f"x{j}" for j in range(len(columns))], columns), y


def _timed(fn, *args):
    """(fn's result or the Fitts3dError it raised, as (type, message)),
    checked to take under _WIDE_CALL_S."""
    start = time.perf_counter()
    try:
        result = fn(*args)
    except (DomainError, InsufficientData, RankDeficient) as exc:
        result = type(exc), str(exc)
    assert time.perf_counter() - start < _WIDE_CALL_S
    return result


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_wide_designs())
def test_fits_on_wide_exponents_are_exact_and_bounded_in_time(design):
    X, y = design
    fit = _timed(ols_fit, X, y)
    if isinstance(fit, ModelFit):
        _assert_exact(fit, X, y)
    elif fit[0] is DomainError:  # some exact result is beyond the floats
        coefficients, r2, ss_res, ss_tot = exact_fit(X, y)
        with pytest.raises(OverflowError):
            [float(v) for v in (*coefficients.values(), ss_res, ss_tot)]
    elif fit[0] is RankDeficient:  # numpy's singular values agree, but near the rule
        s = np.linalg.svd(np.column_stack([np.ones(len(y)), X.values]),
                          compute_uv=False)
        assert s[-1] < 2 * regression.RANK_TOL * s[0]
    report = _timed(stepwise, X, y)
    try:
        expected = reference_stepwise(X, y)
    except (DomainError, InsufficientData, RankDeficient) as exc:
        expected = type(exc), str(exc)
    assert report == expected
