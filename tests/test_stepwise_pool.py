"""Stepwise selection screened on pooled fits, against the per-row oracle.

Given a design that records its conditions (condition_matrix over a
per-trial table, or regression._expand), stepwise screens each entry and
removal scan on weighted least squares over the conditions and refits
only the chosen step on the rows; other designs screen on the rows.
reference_stepwise (tests/stepwise_oracle.py) fits every candidate on
the rows. Their reports, and the reprs of their reports, must be equal.
"""

import csv
import itertools
import math
import warnings
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from fitts3d import (ConditionTable, DesignMatrix, InsufficientData,
                     InteractionKind, ModelFit, RankDeficient, build_grid,
                     condition_matrix, generate_trials, ols_fit,
                     paper_scale_defaults, partial_f_test, read_trials,
                     stepwise, write_trials)
from fitts3d import regression, render_stepwise
from fitts3d.cli import main
from fitts3d.constants import STEPWISE_CANDIDATES
import stepwise_oracle
from stepwise_oracle import reference_stepwise

CELLS = [(e, i) for e in ("e1", "e2", "e3", "e4")
         for i in (InteractionKind.POINTING, InteractionKind.MANIPULATION)]
PUBLISHED_REPS = {"e1": 100, "e2": 100, "e3": 100, "e4": 75}  # 4 800 trials


def _outcome(select, X, y):
    try:
        report = select(X, y)
    except (InsufficientData, RankDeficient) as exc:
        return type(exc), str(exc)
    return report, repr(report)


def _assert_matches_oracle(X, y):
    assert _outcome(stepwise, X, y) == _outcome(reference_stepwise, X, y)


def _counting_ols_fit(monkeypatch, module=regression):
    calls = []

    def counting(X, y):
        calls.append(X.values.shape[0])
        return ols_fit(X, y)

    monkeypatch.setattr(module, "ols_fit", counting)
    return calls


def _counting_fallbacks(monkeypatch):
    """The pooled scans that could not vouch for their decision."""
    unsure = []
    screen = regression._screen

    def counting(*args, **kwargs):
        try:
            return screen(*args, **kwargs)
        except regression._Unsure:
            unsure.append(args[0])
            raise

    monkeypatch.setattr(regression, "_screen", counting)
    return unsure


@lru_cache(maxsize=None)
def _log(experiment, interaction, seed=0):
    """The trial log of one published-scale cell."""
    grid = replace(build_grid(experiment, interaction),
                   repetitions=PUBLISHED_REPS[experiment])
    truth = replace(paper_scale_defaults(experiment, interaction), seed=seed)
    return generate_trials(grid, truth, interaction)


@lru_cache(maxsize=None)
def _published(experiment, interaction, seed=0):
    """(X, y) of one published-scale cell, per trial."""
    return condition_matrix(ConditionTable(_log(experiment, interaction, seed),
                                           aggregate=False))


def _ending(fit, names):
    """The ModelFit of names, or the InsufficientData or RankDeficient
    it raised; _Unsure and every other error propagate."""
    try:
        return fit(names)
    except (InsufficientData, RankDeficient) as exc:
        return exc


def test_the_oracle_states_the_shipped_thresholds():
    # stated, not imported: a change to the rule must change the oracle too
    assert (stepwise_oracle.ENTER_P, stepwise_oracle.REMOVE_P,
            stepwise_oracle.P_TIE_TOL) == (regression._ENTER_P,
                                           regression._REMOVE_P,
                                           regression._P_TIE_TOL)


# ---- the oracle on drawn designs --------------------------------------------

def _conditions(draw, m, reps):
    """Each row's condition, reps[i] rows for condition i, in condition
    order or shuffled as trials interleave."""
    rows = np.repeat(np.arange(m), reps)
    return np.array(draw(st.permutations(list(rows)))) if draw(st.booleans()) else rows


@st.composite
def _designs(draw):
    """Designs whose conditions repeat, with constant, copied, collinear
    and nearly copied columns, two conditions that may share a design row,
    and a response that may be noisy, exact on the columns (zero
    residual) or constant."""
    m = draw(st.integers(1, 10))  # conditions
    base = np.array(draw(st.lists(
        st.lists(st.integers(-3, 3), min_size=1, max_size=1), min_size=m, max_size=m)),
        dtype=float)
    cols = [base[:, 0]]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(
            ["free", "free", "constant", "copy", "scaled", "sum", "ulp", "nudge"]))
        src = cols[draw(st.integers(0, len(cols) - 1))]
        if kind == "free":
            col = np.array(draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m)),
                           dtype=float)
        elif kind == "constant":
            col = np.full(m, float(draw(st.integers(-2, 2))))
        elif kind == "copy":
            col = src.copy()
        elif kind == "scaled":
            col = 2.5 * src - 1.0
        elif kind == "sum":
            col = src + cols[0]
        elif kind == "ulp":  # one entry one ulp away: a near tie
            col = src.copy()
            i = draw(st.integers(0, m - 1))
            col[i] = np.nextafter(col[i], math.inf)
        else:  # a small relative change: a near tie that is not collinear
            col = src * (1.0 + draw(st.sampled_from([1e-9, 1e-6, 1e-3])) *
                         np.arange(m))
        cols.append(col)
    values = np.column_stack(cols)
    if draw(st.booleans()):  # a partition finer than equal design rows
        values[draw(st.integers(0, m - 1))] = values[draw(st.integers(0, m - 1))]
    reps = draw(st.lists(st.integers(1, 4), min_size=m, max_size=m))
    X = regression._expand(tuple(f"x{j}" for j in range(len(cols))), values,
                           _conditions(draw, m, reps))
    rows = X.values
    n, k = rows.shape
    mode = draw(st.sampled_from(["noise", "noise", "noise", "exact", "constant"]))
    beta = np.array(draw(st.lists(st.sampled_from([0.0, 0.05, 0.3, 1.0, 4.0]),
                                  min_size=k, max_size=k)))
    if mode == "constant":
        y = np.full(n, 1.5)
    elif mode == "exact":
        y = 2.0 + rows @ np.round(beta)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        scale = draw(st.sampled_from([1e-6, 0.1, 1.0, 3.0]))
        y = 2.0 + rows @ beta + scale * rng.standard_normal(n)
    return X, y


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_designs())
def test_stepwise_matches_the_oracle_on_drawn_designs(design):
    _assert_matches_oracle(*design)


# ---- the oracle at flip points -----------------------------------------------

def _decision(X, y):
    return tuple((s.action, s.name) for s in reference_stepwise(X, y).steps)


def _flip_point(make, lo, hi):
    """Adjacent floats lo < hi at which the oracle's decisions differ."""
    first = _decision(*make(lo))
    assert first != _decision(*make(hi))
    while (mid := lo + (hi - lo) / 2) not in (lo, hi):
        if _decision(*make(mid)) == first:
            lo = mid
        else:
            hi = mid
    return lo, hi


def _orthogonal(v, *cols):
    """v with its least-squares fit on an intercept and cols removed."""
    M = np.column_stack([np.ones(len(v)), *cols])
    return v - M @ np.linalg.lstsq(M, v, rcond=None)[0]


_BLOCKS = np.repeat(np.arange(8), 3)  # 8 conditions, 3 trials each
_CYCLES = np.tile(np.arange(8), 3)  # the same, trials interleaved
_L8 = np.arange(8.0)
_LEVELS = _L8[_BLOCKS]
_NOISE = _orthogonal(np.random.default_rng(1).standard_normal(24), _LEVELS)
_X2_8 = np.array([0.0, 0, 1, 1, 2, 2, 3, 3])
_X3_8 = np.array([0.0, 1, 2, 0, 1, 2, 1, 0])
_U8 = np.array([1.0, -1, 0.5, -0.5, 0.3, -0.2, 0.7, -0.8])
_X2, _X3, _U = _X2_8[_CYCLES], _X3_8[_CYCLES], _U8[_CYCLES]


def _entry(t):  # x1 enters once its p falls below 0.05
    return regression._expand(("x1",), _L8[:, None], _BLOCKS), _NOISE + t * _LEVELS


def _removal(t):  # x1 enters first and leaves once x2, x3 explain it
    X = regression._expand(("x1", "x2", "x3"),
                           np.column_stack([_X2_8 + _X3_8 + _U8, _X2_8, _X3_8]),
                           _CYCLES)
    noise = _orthogonal(0.3 * np.random.default_rng(1).standard_normal(24),
                        *X.values.T)
    return X, _X2 + _X3 + t * _U + noise


def _tie(t):  # x2 = x1 + t u overtakes x1 once its p is 1e-12 smaller
    X = regression._expand(("x1", "x2"), np.column_stack([_L8, _L8 + t * _U8]),
                           _BLOCKS)
    return X, 0.5 * _LEVELS + 0.8 * _U8[_BLOCKS] + 3.0 * _NOISE


@pytest.mark.parametrize("make,lo,hi,flip", [
    (_entry, 0.0, 1.0, "enter"),
    (_removal, 0.0, 1.0, "remove"),
    (_tie, 0.0, 1.0, "tie"),
])
def test_flip_points_fall_back_and_match_the_oracle(monkeypatch, make, lo, hi, flip):
    lo, hi = _flip_point(make, lo, hi)
    a, b = (reference_stepwise(*make(t)) for t in (lo, hi))
    if flip == "tie":  # the same p to 1e-12 decides which column enters
        assert a.steps[0].name != b.steps[0].name
        assert abs(a.steps[0].p_value - b.steps[0].p_value) < 1e-11
    else:  # one decision more, with its p at the threshold
        extra = (a if len(a.steps) > len(b.steps) else b).steps[-1]
        assert extra.action == flip
        assert extra.p_value == pytest.approx(0.05 if flip == "enter" else 0.10,
                                              rel=1e-12)
    for t in (lo, hi):
        unsure = _counting_fallbacks(monkeypatch)
        stepwise(*make(t))
        assert unsure
        monkeypatch.undo()
        _assert_matches_oracle(*make(t))


def test_ulp_near_tie_falls_back_and_matches_the_oracle(monkeypatch):
    # row 5 has a condition of its own, with x2 one ulp above x1
    conditions = _BLOCKS.copy()
    conditions[5] = 8
    x1 = np.append(_L8, _LEVELS[5])
    x2 = np.append(_L8, np.nextafter(_LEVELS[5], math.inf))
    X = regression._expand(("x1", "x2"), np.column_stack([x1, x2]), conditions)
    y = 0.15 * _LEVELS + _NOISE  # p of about 0.01: a tie worth checking
    unsure = _counting_fallbacks(monkeypatch)
    report = stepwise(X, y)
    assert [s.name for s in report.steps] == ["x1"]
    assert 1e-4 < report.steps[0].p_value < 0.05
    assert unsure == [["x1", "x2"]]  # the first entry scan, on both columns
    monkeypatch.undo()
    _assert_matches_oracle(X, y)


# ---- the oracle on the paper's logs -------------------------------------------

@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
@pytest.mark.parametrize("experiment,interaction", CELLS)
def test_stepwise_matches_the_oracle_on_paper_logs(tmp_path, capsys, experiment,
                                                   interaction, seed):
    grid = build_grid(experiment, interaction)
    truth = replace(paper_scale_defaults(experiment, interaction), seed=seed)
    path = tmp_path / "log.csv"
    write_trials(path, generate_trials(grid, truth, interaction), experiment)
    log = read_trials(path)
    for aggregate in (True, False):
        table = ConditionTable(log, aggregate)
        _assert_matches_oracle(*condition_matrix(table))
        # `fitts3d stepwise` writes the oracle's document
        for candidates in (STEPWISE_CANDIDATES, ("W", "A")):
            argv = ["stepwise", str(path), "--aggregate", str(aggregate).lower(),
                    "--candidates", ",".join(candidates), "--format", "json-like"]
            assert main(argv) == 0
            assert capsys.readouterr().out == render_stepwise(reference_stepwise(
                *condition_matrix(table, candidates)), "json-like")


@pytest.mark.parametrize("candidates", [("W",), ("W", "A"), ("phi", "theta")])
@pytest.mark.parametrize("experiment,interaction", CELLS)
def test_published_cells_pool_by_condition(experiment, interaction, candidates):
    table = ConditionTable(_log(experiment, interaction), aggregate=False)
    X, y = condition_matrix(table, candidates)
    values, _ = X._grouping
    # fewer distinct design rows than conditions: rows alone would merge them
    assert len({row.tobytes() for row in values}) < len(table.tasks)
    assert len(regression._pool(X, y).counts) == len(table.tasks)
    _assert_matches_oracle(X, y)


def test_hand_built_repeated_design_screens_on_the_rows(monkeypatch):
    X, y = _published("e4", InteractionKind.MANIPULATION)
    X = DesignMatrix(X.names, X.values)  # the same rows, no grouping
    calls = _counting_ols_fit(monkeypatch)
    oracle_calls = _counting_ols_fit(monkeypatch, stepwise_oracle)
    report, expected = stepwise(X, y), reference_stepwise(X, y)
    assert report == expected and repr(report) == repr(expected)
    # every candidate of every scan fitted on the rows, as the oracle does
    assert calls == oracle_calls
    assert len(calls) > len(report.steps) + 1


@pytest.mark.parametrize("grouped", [True, False])
def test_y_of_the_wrong_length_or_shape_raises_before_pooling(monkeypatch, grouped):
    X, y = _published("e1", InteractionKind.POINTING)
    if not grouped:  # the same rows, hand-built
        X = DesignMatrix(X.names, X.values)
    monkeypatch.setattr(regression, "_pool", None)  # never reached
    message = "y must be one value per design matrix row"
    for bad in (y[:-1], np.append(y, 1.0), y[:, None], np.asarray(y[0])):
        with pytest.raises(ValueError) as got:
            stepwise(X, bad)
        assert str(got.value) == message
    for bad in (y[:-1], np.append(y, 1.0), y[:, None]):  # the oracle's cases
        with pytest.raises(ValueError, match=f"^{message}$"):
            reference_stepwise(X, bad)


def test_published_log_refits_only_the_steps(monkeypatch):
    X, y = _published("e4", InteractionKind.MANIPULATION)
    calls = _counting_ols_fit(monkeypatch)
    report = stepwise(X, y)
    # the intercept-only fit, then one per-row refit per step
    assert len(calls) == len(report.steps) + 1 == 5
    assert set(calls) == {len(y)}
    monkeypatch.undo()
    assert report == reference_stepwise(X, y)


@pytest.mark.parametrize("big", ["1e308", "1.5e308"])
def test_a_column_near_the_float_maximum_screens_on_the_rows(tmp_path, capsys, big):
    # A = 12 cm rewritten as big: sqrt(n_i) times it overflows the pooled
    # design, so per trial the selection screens on the rows
    grid = build_grid("e1", InteractionKind.POINTING)
    truth = replace(paper_scale_defaults("e1", InteractionKind.POINTING), seed=0)
    path = tmp_path / "log.csv"
    write_trials(path, generate_trials(grid, truth, InteractionKind.POINTING), "e1")
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    column = rows[0].index("A_cm")
    for row in rows[1:]:
        row[column] = big if row[column] == "12.0" else row[column]
    with path.open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    log = read_trials(path)
    for aggregate, selected in ((True, ["W"]), (False, ["W", "F"])):
        X, y = condition_matrix(ConditionTable(log, aggregate))
        with np.errstate(over="ignore"):
            assert regression._pool(X, y) is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no overflow warning
            assert [s.name for s in stepwise(X, y).steps] == selected
        _assert_matches_oracle(X, y)
        argv = ["stepwise", str(path), "--aggregate", str(aggregate).lower()]
        assert main(argv) == 0
        assert capsys.readouterr().out == render_stepwise(
            reference_stepwise(X, y), "table")


# ---- the pooled fit itself ------------------------------------------------------

@st.composite
def _replicated(draw):
    m = draw(st.integers(4, 12))
    k = draw(st.integers(1, 3))
    levels = st.lists(st.integers(-4, 4), min_size=k, max_size=k)
    base = np.array(draw(st.lists(levels, min_size=m, max_size=m)), dtype=float)
    reps = draw(st.lists(st.integers(1, 6), min_size=m, max_size=m))
    X = regression._expand(tuple(f"x{j}" for j in range(k)), base,
                           _conditions(draw, m, reps))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = 1.0 + X.values @ rng.standard_normal(k) + rng.standard_normal(len(X.values))
    return X, y


@settings(max_examples=200, deadline=None)
@given(_replicated())
def test_pooled_fit_agrees_with_the_rows(design):
    X, y = design
    pool = regression._pool(X, y)
    assume(pool is not None)
    conditions = X._grouping[1]
    groups = [np.flatnonzero(conditions == g) for g in range(len(pool.counts))]
    for g, members in enumerate(groups):
        assert len(members) == pool.counts[g]
        assert np.all(X.values[members] == X.values[members[0]])
        mean = math.fsum(y[members]) / len(members)
        want = math.fsum((v - mean) ** 2 for v in y[members])
        assert pool.pure_error[g] == pytest.approx(want, rel=1e-12, abs=1e-300)
    for r in range(len(X.names) + 1):
        for names in itertools.combinations(X.names, r):
            try:
                rows = ols_fit(X.subset(names), y)
            except (InsufficientData, RankDeficient):
                continue
            M = np.column_stack([np.ones(len(y)), X.subset(names).values])
            if np.linalg.cond(M) > 1e4:
                continue
            pooled = pool.fit(names)
            assert pooled.n == rows.n and pooled.predictor_names == rows.predictor_names
            assert pooled.ss_res == pytest.approx(rows.ss_res, rel=1e-11)
            assert pooled.r2 == pytest.approx(rows.r2, rel=1e-11, abs=1e-14)
            scale = max(abs(b) for b in rows.coefficients.values())
            for name, b in rows.coefficients.items():
                assert pooled.coefficients[name] == pytest.approx(
                    b, rel=1e-11, abs=1e-11 * scale)


def test_pool_needs_a_repeated_row(monkeypatch):
    log = _log("e4", InteractionKind.MANIPULATION)
    X, y = condition_matrix(ConditionTable(log, aggregate=False))
    hand_built = DesignMatrix(X.names, X.values)  # the same rows, no grouping
    aggregate = condition_matrix(ConditionTable(log, aggregate=True))
    one_each = regression._expand(("x",), _L8[:, None], np.arange(8))
    assert len(regression._pool(X, y).counts) == 64
    monkeypatch.setattr(regression, "np", None)  # decided before any numpy call
    assert regression._pool(hand_built, y) is None
    assert regression._pool(*aggregate) is None
    assert regression._pool(one_each, _L8) is None


def _near_rank_column(x, u):
    """x + eps u, with eps chosen so that [1, x, x + eps u] has a
    singular-value ratio within 10x of RANK_TOL."""
    for eps in 10.0 ** -np.arange(6.0, 12.0, 0.5):
        col = x + eps * u
        s = np.linalg.svd(np.column_stack([np.ones(len(x)), x, col]), compute_uv=False)
        if 2 * regression.RANK_TOL / 10 < s[-1] / s[0] < regression.RANK_TOL * 10 / 2:
            return col
    raise AssertionError("no eps puts the ratio near RANK_TOL")


@pytest.mark.parametrize("case,outcome", [
    ("near_rank", regression._Unsure),
    ("copy", RankDeficient),
    ("constant", RankDeficient),
    ("exact", regression._Unsure),
    ("clear", None),
])
def test_pooled_fit_defers_where_the_rows_might_differ(case, outcome):
    second = {"near_rank": _near_rank_column(_L8, _U8), "copy": _L8,
              "constant": np.full(8, 2.0), "exact": _U8, "clear": _U8}[case]
    X = regression._expand(("x1", "x2"), np.column_stack([_L8, second]), _BLOCKS)
    y = 1.0 + _LEVELS + (0.0 if case == "exact" else 1.0) * _NOISE
    fit = regression._pool(X, y).fit
    if outcome is None:
        assert fit(("x1", "x2")).ss_res > 0
    else:
        with pytest.raises(outcome):
            fit(("x1", "x2"))


@pytest.mark.parametrize("entering,results,included", [
    # p within 1e-6 relative of 0.05
    (True, {("a",): (4.3, 0.05 * (1 - 1e-7))}, []),
    # p of b within 1e-6 relative of p of a less 1e-12
    (True, {("a",): (9.0, 0.01), ("b",): (9.0, 0.01 - 1e-12 + 1e-9)}, []),
    # p within 1e-6 relative of 0.10, removing
    (False, {("b",): (2.7, 0.10 * (1 + 1e-7)), ("a",): (50.0, 1e-9)}, ["a", "b"]),
    # two removal p-values apart by 1e-2, but at an F below 1e-4
    (False, {("b",): (1e-5, 0.99), ("a",): (5e-5, 0.98)}, ["a", "b"]),
])
def test_pooled_scan_defers_near_each_flip_point(monkeypatch, entering, results,
                                                 included):
    # (F, p) per fit; a fit is named by its predictors
    monkeypatch.setattr(regression, "partial_f_test",
                        lambda full, reduced: results[full if entering else reduced])
    names = [fit[-1] for fit in results] if entering else included

    def scan(pooled):
        return regression._screen(names, tuple, None, included, entering, pooled)

    with pytest.raises(regression._Unsure):
        scan(pooled=True)
    assert scan(pooled=False) is not None


def test_margin_covers_the_pooled_gap_on_the_published_cells():
    # every subset of every published cell ends the same way on the rows
    # and pooled, deferring never; then every nested pair (S, S + one
    # column) of the fitted ones
    gap, pairs, subsets = 0.0, 0, 0
    for cell, seed in itertools.product(CELLS, (0, 5)):
        X, y = _published(*cell, seed)
        pool = regression._pool(X, y)
        fits = {}
        for r in range(len(X.names) + 1):
            for names in itertools.combinations(X.names, r):
                ends = (_ending(lambda n: ols_fit(X.subset(n), y), names),
                        _ending(pool.fit, names))
                assert type(ends[0]) is type(ends[1]), (cell, seed, names)
                subsets += 1
                if isinstance(ends[0], ModelFit):
                    fits[names] = ends
        for names, (rows, pooled) in fits.items():
            for j in range(len(names)):
                reduced = fits.get(names[:j] + names[j + 1:])
                if reduced is None:
                    continue
                _, p_rows = partial_f_test(rows, reduced[0])
                _, p_pool = partial_f_test(pooled, reduced[1])
                gap = max(gap, abs(p_pool - p_rows) / p_rows if p_rows else p_pool)
                pairs += 1
    assert subsets == 2 * len(CELLS) * 2 ** 7
    assert pairs > 1000
    assert 100 * gap <= regression._MARGIN
