"""Stepwise selection fitted from one exact Gram, against the per-row oracle.

stepwise groups its design's identical rows once (or, for
condition_matrix's design and response, takes the table's exact sums),
forms one exact Gram of all its candidates and fits each subset on its
principal submatrix. reference_stepwise (tests/stepwise_oracle.py) fits
every candidate with ols_fit on the rows. Both are exact least squares
rounded once, so their reports, and the reprs of their reports, must be
equal, and each step's r2 is float() of tests/exact_oracle.py's.
"""

import csv
import itertools
import math
import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fitts3d import (ConditionTable, DesignMatrix, InsufficientData,
                     InteractionKind, ModelFit, RankDeficient,
                     condition_matrix, ols_fit, read_trials, stepwise,
                     write_trials)
from fitts3d import regression, render_stepwise
from fitts3d.cli import main
from fitts3d.constants import STEPWISE_CANDIDATES
from cells import CELLS, PUBLISHED_REPS, cell_log
from exact_oracle import exact_fit
import stepwise_oracle
from stepwise_oracle import reference_stepwise


def _outcome(select, X, y):
    try:
        report = select(X, y)
    except (InsufficientData, RankDeficient) as exc:
        return type(exc), str(exc)
    return report, repr(report)


def _assert_matches_oracle(X, y):
    assert _outcome(stepwise, X, y) == _outcome(reference_stepwise, X, y)


def _assert_steps_exact(X, y):
    """Each step's r2 is the exact r2 of the columns included after it."""
    included = []
    for step in stepwise(X, y).steps:
        if step.action == "enter":
            included.append(step.name)
        else:
            included.remove(step.name)
        assert step.r2 == float(exact_fit(X.subset(included), y)[1]), step


def _counting(monkeypatch, name):
    """The arguments of each call of regression's function name, in call
    order."""
    calls = []
    function = getattr(regression, name)

    def counting(*args):
        calls.append(args)
        return function(*args)

    monkeypatch.setattr(regression, name, counting)
    return calls


def _constant_names(X):
    """The names of X's exactly constant columns."""
    return {name for name, col in zip(X.names, zip(*X.values))
            if min(col) == max(col)}


def _expand(names, values, conditions):
    """The design with one row per entry of conditions, each the row of
    values (one per condition) it names."""
    return DesignMatrix(names, values[conditions])


@lru_cache(maxsize=None)
def _published(experiment, interaction, seed=0):
    """(X, y) of one published-scale cell, per trial."""
    log = cell_log(experiment, interaction, PUBLISHED_REPS[experiment], seed)
    return condition_matrix(ConditionTable(log, aggregate=False))


def _ending(fit, names):
    """The ModelFit of names, or the InsufficientData or RankDeficient
    it raised; every other error propagates."""
    try:
        return fit(names)
    except (InsufficientData, RankDeficient) as exc:
        return type(exc), str(exc)


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
    X = _expand(tuple(f"x{j}" for j in range(len(cols))), values,
                _conditions(draw, m, reps))
    rows = np.array(X.values)
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
    X, y = design
    with pytest.MonkeyPatch.context() as mp:
        fits = _counting(mp, "_solve")
        outcome = _outcome(stepwise, X, y)
    assert outcome == _outcome(reference_stepwise, X, y)
    # a constant column can never enter, so no fit is given one
    constant = _constant_names(X)
    assert not any(constant.intersection(call[3]) for call in fits)


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
    return _expand(("x1",), _L8[:, None], _BLOCKS), _NOISE + t * _LEVELS


def _removal(t):  # x1 enters first and leaves once x2, x3 explain it
    X = _expand(("x1", "x2", "x3"),
                np.column_stack([_X2_8 + _X3_8 + _U8, _X2_8, _X3_8]), _CYCLES)
    noise = _orthogonal(0.3 * np.random.default_rng(1).standard_normal(24),
                        *zip(*X.values))
    return X, _X2 + _X3 + t * _U + noise


def _tie(t):  # x2 = x1 + t u overtakes x1 once its p is 1e-12 smaller
    X = _expand(("x1", "x2"), np.column_stack([_L8, _L8 + t * _U8]), _BLOCKS)
    return X, 0.5 * _LEVELS + 0.8 * _U8[_BLOCKS] + 3.0 * _NOISE


@pytest.mark.parametrize("make,lo,hi,flip", [
    (_entry, 0.0, 1.0, "enter"),
    (_removal, 0.0, 1.0, "remove"),
    (_tie, 0.0, 1.0, "tie"),
])
def test_flip_points_match_the_oracle_exactly(make, lo, hi, flip):
    # two adjacent inputs that the rule decides differently: the scan
    # decides each on exact fits, so as the oracle does, and each step's
    # r2 is the exact one
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
        _assert_matches_oracle(*make(t))
        _assert_steps_exact(*make(t))


def test_ulp_near_tie_matches_the_oracle():
    # row 5 has a condition of its own, with x2 one ulp above x1
    conditions = _BLOCKS.copy()
    conditions[5] = 8
    x1 = np.append(_L8, _LEVELS[5])
    x2 = np.append(_L8, np.nextafter(_LEVELS[5], math.inf))
    X = _expand(("x1", "x2"), np.column_stack([x1, x2]), conditions)
    y = 0.15 * _LEVELS + _NOISE  # p of about 0.01: a tie worth checking
    report = stepwise(X, y)
    assert [s.name for s in report.steps] == ["x1"]
    assert 1e-4 < report.steps[0].p_value < 0.05
    # both columns together fail the rank rule, though not exactly singular
    with pytest.raises(RankDeficient):
        ols_fit(X, y)
    exact_fit(X, y)
    _assert_matches_oracle(X, y)
    _assert_steps_exact(X, y)


def test_mirrored_candidates_tie_exactly():
    # x2 = 7 - x1 spans what x1 does: their fits are one exact number, so
    # their p-values are equal and the earlier column enters, either way round
    X = _expand(("x1", "x2"), np.column_stack([_L8, 7.0 - _L8]), _BLOCKS)
    y = 0.3 * _LEVELS + _NOISE
    for names in (("x1", "x2"), ("x2", "x1")):
        design = X.subset(names)
        first, second = (ols_fit(design.subset([n]), y) for n in names)
        assert first.r2 == second.r2 and first.ss_res == second.ss_res
        assert [s.name for s in stepwise(design, y).steps] == [names[0]]
        _assert_matches_oracle(design, y)


# ---- the oracle on the paper's logs -------------------------------------------

@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
@pytest.mark.parametrize("experiment,interaction", CELLS)
def test_stepwise_matches_the_oracle_on_paper_logs(tmp_path, capsys, experiment,
                                                   interaction, seed):
    path = tmp_path / "log.csv"
    write_trials(path, cell_log(experiment, interaction, seed=seed), experiment)
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
def test_published_cells_fit_from_the_tables_sums(experiment, interaction,
                                                  candidates):
    table = ConditionTable(cell_log(experiment, interaction, PUBLISHED_REPS[experiment]),
                           aggregate=False)
    X, y = condition_matrix(table, candidates)
    # fewer distinct design rows than conditions: the rows merge them
    assert len(set(X.values)) < len(table.tasks)
    hand_built = DesignMatrix(X.names, X.values)  # grouped by its rows
    assert stepwise(X, y) == stepwise(hand_built, y)
    _assert_matches_oracle(X, y)


def test_hand_built_repeated_design_matches_the_oracle(monkeypatch):
    X, y = _published("e4", InteractionKind.MANIPULATION)
    X = DesignMatrix(X.names, X.values)  # the same rows, no table
    fits = _counting(monkeypatch, "_solve")
    checks = _counting(monkeypatch, "_full_rank")
    report = stepwise(X, y)
    monkeypatch.undo()
    expected = reference_stepwise(X, y)
    assert report == expected and repr(report) == repr(expected)
    # no fit is given the constant F, which no scan offers
    constant = _constant_names(X)
    assert constant == {"F"}
    assert not any(constant.intersection(call[3]) for call in fits)
    # the offered columns pass the rank rule together, so every subset
    # of them does: one check
    assert len(checks) == 1
    assert len(fits) > len(report.steps) + 1


@pytest.mark.parametrize("grouped", [True, False])
def test_y_of_the_wrong_length_or_shape_raises_before_grouping(monkeypatch, grouped):
    X, y = _published("e1", InteractionKind.POINTING)
    if not grouped:  # the same rows, hand-built
        X = DesignMatrix(X.names, X.values)
    monkeypatch.setattr(regression, "_grouped", None)  # never reached
    message = "y must be one value per design matrix row"
    ys = np.array(y)
    for bad in (y[:-1], ys[:-1], np.append(ys, 1.0), ys[:, None], ys[:1, None],
                ys[0], np.asarray(ys[0])):
        with pytest.raises(ValueError) as got:
            stepwise(X, bad)
        assert str(got.value) == message
    monkeypatch.undo()
    for bad in (ys[:-1], np.append(ys, 1.0), ys[:, None]):  # the oracle's cases
        with pytest.raises(ValueError, match=f"^{message}$"):
            reference_stepwise(X, bad)


def test_published_log_forms_one_gram(monkeypatch):
    X, y = _published("e4", InteractionKind.MANIPULATION)
    grams = _counting(monkeypatch, "_gram")
    groupings = _counting(monkeypatch, "_grouped")
    checks = _counting(monkeypatch, "_full_rank")
    report = stepwise(X, y)
    # the table's sums, one Gram of every candidate and one rank check
    assert (len(grams), len(groupings), len(checks)) == (1, 0, 1)
    monkeypatch.undo()
    assert report == reference_stepwise(X, y)


@pytest.mark.parametrize("big", ["1e308", "1.5e308"])
def test_a_column_near_the_float_maximum_matches_the_oracle(tmp_path, capsys, big):
    # A = 12 cm rewritten as big: its squares are far beyond the float
    # range, which the exact Gram does not mind
    path = tmp_path / "log.csv"
    write_trials(path, cell_log("e1", "pointing"), "e1")
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
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no overflow warning
            assert [s.name for s in stepwise(X, y).steps] == selected
        _assert_matches_oracle(X, y)
        _assert_steps_exact(X, y)
        argv = ["stepwise", str(path), "--aggregate", str(aggregate).lower()]
        assert main(argv) == 0
        assert capsys.readouterr().out == render_stepwise(
            reference_stepwise(X, y), "table")


# ---- the fits from one Gram ------------------------------------------------------

@st.composite
def _replicated(draw):
    m = draw(st.integers(4, 12))
    k = draw(st.integers(1, 3))
    levels = st.lists(st.integers(-4, 4), min_size=k, max_size=k)
    base = np.array(draw(st.lists(levels, min_size=m, max_size=m)), dtype=float)
    reps = draw(st.lists(st.integers(1, 6), min_size=m, max_size=m))
    X = _expand(tuple(f"x{j}" for j in range(k)), base, _conditions(draw, m, reps))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = 1.0 + np.array(X.values) @ rng.standard_normal(k) + rng.standard_normal(len(X.values))
    return X, y


def _gram_fits(X, y):
    """The fit of each subset of X's columns from one Gram, as stepwise
    makes it, by the names of the subset."""
    columns, counts, sums, squares, scale = regression._conditions(X, y)
    gram, scales = regression._gram(columns, counts, sums, squares)
    index = {name: j for j, name in enumerate(X.names, start=1)}
    return lambda names: regression._solve(gram, scales, scale, tuple(names),
                                           [index[n] for n in names])


@settings(max_examples=200, deadline=None)
@given(_replicated())
def test_one_gram_fits_each_subset_as_ols_fit_does(design):
    X, y = design
    # each distinct row's count and exact response sums
    columns, counts, sums, squares, scale = regression._conditions(X, y)
    unit = 2.0 ** -scale
    for row, count, total, square in zip(zip(*columns), counts, sums, squares):
        members = [v for r, v in zip(X.values, y) if r == row]
        assert len(members) == count
        assert total == sum(int(v / unit) for v in members)
        assert square == sum(int(v / unit) ** 2 for v in members)
    fit = _gram_fits(X, y)
    for r in range(len(X.names) + 1):
        for names in itertools.combinations(X.names, r):
            ending = _ending(fit, names)
            assert ending == _ending(lambda n: ols_fit(X.subset(n), y), names)
            if isinstance(ending, ModelFit):
                coefficients, r2, ss_res, ss_tot = exact_fit(X.subset(names), y)
                assert (ending.r2, ending.ss_res, ending.ss_tot) == (
                    float(r2), float(ss_res), float(ss_tot))
                assert ending.coefficients == {
                    name: float(v) for name, v in coefficients.items()}


def test_the_tables_sums_serve_only_its_response(monkeypatch):
    log = cell_log("e4", "manipulation", PUBLISHED_REPS["e4"])
    table = ConditionTable(log, aggregate=False)
    X, y = condition_matrix(table)
    columns, *sums = regression._conditions(X, y)
    assert sums == [table.counts, table.sums, table.squares, table.scale]
    assert len(columns[0]) == len(table.tasks) == 64
    # another response, or the same rows hand-built, are grouped by rows
    hand_built = DesignMatrix(X.names, X.values)
    groupings = _counting(monkeypatch, "_grouped")
    doubled = tuple(2.0 * v for v in y)
    # an equal response that is not the table's own is grouped by rows too
    for design, response in ((X, doubled), (X, list(y)), (hand_built, y)):
        columns, counts, *_ = regression._conditions(design, response)
        assert sum(counts) == len(y) and len(counts) == len(table.tasks)
    assert len(groupings) == 3
    assert stepwise(X, doubled) == stepwise(hand_built, doubled)


def _near_rank_design(ratio):
    """[x, x + eps u] on 8 rows, with eps chosen so that the singular
    values of [1, x, x + eps u] have s_min / s_max = ratio * RANK_TOL."""
    lo, hi = 1e-14, 1e-6
    for _ in range(200):
        eps = math.sqrt(lo * hi)
        M = np.column_stack([np.ones(8), _L8, _L8 + eps * _U8])
        s = np.linalg.svd(M, compute_uv=False)
        if s[-1] / s[0] < ratio * regression.RANK_TOL:
            lo = eps
        else:
            hi = eps
    assert s[-1] / s[0] == pytest.approx(ratio * regression.RANK_TOL, rel=1e-5)
    return DesignMatrix(("x1", "x2"), M[:, 1:])


@pytest.mark.parametrize("ratio,estimated", [
    (0.5, False), (0.9, True), (0.999, True), (1.001, True), (1.1, False),
    (2.0, False)])
def test_rank_rule_at_its_threshold(monkeypatch, ratio, estimated):
    # s_min < RANK_TOL * s_max is decided on the exact Gram; only within
    # a trace's width of the threshold does it need the float estimate
    # of the largest eigenvalue
    X = _near_rank_design(ratio)
    estimates = _counting(monkeypatch, "_largest_eigenvalue")
    outcome = _ending(lambda names: ols_fit(X, _L8 + _U8), X.names)
    assert isinstance(outcome, ModelFit) == (ratio > 1)
    assert bool(estimates) == estimated


@pytest.mark.parametrize("case", ["copy", "constant", "exact", "clear"])
def test_gram_fit_outcomes(case):
    second = {"copy": _L8, "constant": np.full(8, 2.0), "exact": _U8,
              "clear": _U8}[case]
    X = _expand(("x1", "x2"), np.column_stack([_L8, second]), _BLOCKS)
    y = 1.0 + _LEVELS + (0.0 if case == "exact" else 1.0) * _NOISE
    outcome = _ending(_gram_fits(X, y), ("x1", "x2"))
    assert outcome == _ending(lambda names: ols_fit(X, y), X.names)
    if case in ("copy", "constant"):
        assert outcome[0] is RankDeficient
    elif case == "exact":  # no residual at all, exactly
        assert outcome.ss_res == 0.0 and outcome.r2 == 1.0
    else:
        assert outcome.ss_res > 0


def test_one_gram_fits_every_subset_of_the_published_cells():
    # every subset of every published cell ends the same way from the
    # table's sums and from the rows grouped afresh
    subsets = 0
    for cell in CELLS:
        X, y = _published(*cell)
        from_rows = _gram_fits(DesignMatrix(X.names, X.values), y)
        from_table = _gram_fits(X, y)
        for r in range(len(X.names) + 1):
            for names in itertools.combinations(X.names, r):
                ends = (_ending(from_table, names), _ending(from_rows, names))
                assert ends[0] == ends[1], (cell, names)
                subsets += 1
    assert subsets == len(CELLS) * 2 ** 7
