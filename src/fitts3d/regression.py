"""Least-squares fitting of movement-time models, partial F tests and
bidirectional stepwise variable selection.

One kernel, _least_squares, solves every fit through an orthogonal
decomposition (SVD) of the intercept-augmented design matrix rather than
the normal equations, so badly scaled predictor columns do not lose
precision. Singular values below 1e-10 of the largest are rank
deficiencies, not silently pseudo-inverted; sums of squares that
overflow raise DomainError.

The analyses (fit_model, compare_models, condition_matrix) read a
ConditionTable, which groups a TrialLog's columns once into their
distinct conditions and fixes the response: condition means or
successful trials (aggregate).
Predictors are evaluated once per distinct condition and expanded to one
row per observation, the design a per-trial evaluation would build, so
the fits are identical to it.

stepwise screens its candidates on the table's conditions when it is
given condition_matrix's design over a per-trial table: the rows of each
condition pool into their count, mean and pure error, and least squares
on the rows becomes weighted least squares on the conditions (Draper &
Smith, lack of fit). Other designs screen on the rows. Only the step
each scan chooses is refitted on the rows, so every reported F, p and
r^2 is the per-row number. A scan whose pooled decision is not clear of
its flip points by a relative margin of 1e-6 on each p-value screens on
the rows instead (see stepwise). The p-value tie rule is absolute: every
p below 1e-12 ties, and the earliest such column enters whatever its F.
"""

import math
from dataclasses import dataclass, field, replace

from .errors import (DomainError, EmptyCondition, Fitts3dError,
                     InsufficientData, InvalidNesting, RankDeficient)
from .metrics import (MODEL_ORDER, ModelKind, _sin_deg, predictor_names,
                      predictors_for)
from .special import f_sf
from .tasks import STEPWISE_CANDIDATES, check_candidates
from .trial_io import TrialLog, _log_terms

# numpy comes after the package's own modules: a process that compiles
# them from source with numpy already loaded peaks up to ~1 MB higher
import numpy as np

RANK_TOL = 1e-10
_RANK_DEFICIENT = "design matrix is rank deficient (collinear or constant columns)"

# p-values closer than this are a tie, resolved by column order
_P_TIE_TOL = 1e-12

_ENTER_P = 0.05
_REMOVE_P = 0.10

# a pooled stepwise screen vouches for a decision only when each p-value
# could be off by _MARGIN relative without flipping it; the largest gap
# measured on the published cells is ~2e-10 (tests/test_stepwise_pool.py)
_MARGIN = 1e-6
# below this F, p = 1 - O(sqrt(F)) moves by O(sqrt(dF)) for an error dF
_F_FLOOR = 1e-4
# a residual sum of squares at most this share of y @ y is all rounding
_NEAR_ZERO = 1e-6


@dataclass(frozen=True)
class DesignMatrix:
    """Named predictor columns for a set of observations. The intercept
    column is implicit and added at fit time."""

    names: tuple[str, ...]
    values: np.ndarray
    # (one row per condition, each row's condition) when _expand built
    # the design from a ConditionTable; stepwise pools on it
    _grouping: tuple | None = field(default=None, init=False, repr=False,
                                    compare=False)

    def __post_init__(self):
        names = tuple(str(n) for n in self.names)
        if len(set(names)) != len(names):
            raise ValueError("column names must be unique")
        if any(not n for n in names):
            raise ValueError("column names must be nonempty")
        # always column-major: BLAS rounds the fit's M @ beta differently
        # for row-major designs, so the layout would change last bits
        values = np.array(self.values, dtype=float, copy=True, order="F")
        if values.ndim != 2:
            raise ValueError("values must be a 2-d array")
        if values.shape[1] != len(names):
            raise ValueError("one name per column required")
        if not np.all(np.isfinite(values)):
            raise ValueError("design matrix entries must be finite")
        values.flags.writeable = False
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "values", values)

    def subset(self, names) -> "DesignMatrix":
        idx = [self.names.index(n) for n in names]
        return DesignMatrix(tuple(self.names[i] for i in idx),
                            self.values[:, idx])


@dataclass(frozen=True)
class ModelFit:
    """Result of one least-squares fit; it keeps no per-row residuals.

    coefficients holds the intercept under the key "intercept" and one
    slope per retained predictor; ss_res and ss_tot are the residual and
    total sums of squares over the n observations. dropped lists
    predictor columns that were constant on the data and therefore
    excluded before fitting. degenerate_variance marks a constant
    response, where r^2 is reported as 0 by convention.
    """

    predictor_names: tuple[str, ...]
    coefficients: dict[str, float]
    r2: float
    n: int
    ss_res: float
    ss_tot: float
    degenerate_variance: bool = False
    dropped: tuple[str, ...] = ()


def ols_fit(X: DesignMatrix, y) -> ModelFit:
    """Fit y = a + X b by least squares in _least_squares, the kernel it
    shares with stepwise's pooled screen; the residuals are summed into
    ss_res and not kept. Raises InsufficientData when rows <= columns,
    RankDeficient when the augmented matrix is numerically singular and
    DomainError when a sum of squares of y overflows.
    """
    yarr = np.asarray(y, dtype=float)
    n = X.values.shape[0]
    if yarr.ndim != 1 or yarr.shape[0] != n:
        raise ValueError("y must be one value per design matrix row")
    if not np.all(np.isfinite(yarr)):
        raise ValueError("y must be finite")
    ss_tot = float(np.sum((yarr - yarr.mean()) ** 2)) if n else 0.0  # mean() warns on []
    M = np.column_stack([np.ones(n), X.values])
    return _least_squares(M, yarr, X.names, n, ss_tot)[0]


def _least_squares(M, r, names, n, ss_tot, pure_error=0.0, tol=RANK_TOL):
    """The fit of r on the intercept-augmented design M over n
    observations, its ss_res pure_error plus r's residual sum of squares,
    and M's singular values s (descending), for ols_fit (the rows) and
    _Pool (its weighted conditions). Raises InsufficientData when n <=
    len(names), RankDeficient when M has fewer rows than columns or
    s[-1] < tol * s[0], and DomainError when ss_tot or ss_res overflowed.
    """
    if n <= len(names):
        raise InsufficientData(
            f"{n} rows cannot identify {len(names)} slopes plus an intercept")
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    if len(s) < M.shape[1] or s[-1] < tol * s[0]:
        raise RankDeficient(_RANK_DEFICIENT)
    beta = Vt.T @ ((U.T @ r) / s)
    residuals = r - M @ beta
    ss_res = pure_error + float(residuals @ residuals)
    # a coefficient that is not finite leaves every residual not finite
    if not (math.isfinite(ss_tot) and math.isfinite(ss_res)):
        raise DomainError("sums of squares overflow: the response is too large")
    coefficients = dict(zip(("intercept",) + names, beta.tolist()))
    degenerate = ss_tot == 0.0
    return ModelFit(predictor_names=names, coefficients=coefficients,
                    r2=0.0 if degenerate else 1.0 - ss_res / ss_tot, n=n,
                    ss_res=ss_res, ss_tot=ss_tot, degenerate_variance=degenerate), s


def partial_f_test(full: ModelFit, reduced: ModelFit):
    """Partial F test of the predictors present in full but not in
    reduced; returns (F, p).

    Both fits must come from the same observations; the reduced
    predictor set must be a subset of the full one.
    """
    full_names = set(full.predictor_names)
    red_names = set(reduced.predictor_names)
    if not red_names <= full_names:
        raise InvalidNesting("reduced model is not nested in the full model")
    if full.n != reduced.n:
        raise InvalidNesting("fits use different numbers of observations")
    extra = len(full.predictor_names) - len(reduced.predictor_names)
    if extra == 0:
        return 0.0, 1.0
    df_full = full.n - len(full.predictor_names) - 1
    if df_full <= 0:
        raise InsufficientData("no residual degrees of freedom in the full model")
    num = max(reduced.ss_res - full.ss_res, 0.0) / extra
    den = full.ss_res / df_full
    if den == 0.0:
        if num == 0.0:
            return 0.0, 1.0
        return math.inf, 0.0
    f_stat = num / den
    return f_stat, f_sf(f_stat, extra, df_full)


@dataclass(frozen=True)
class StepwiseStep:
    action: str  # "enter" or "remove"
    name: str
    f_stat: float
    p_value: float
    r2: float  # cumulative r^2 after this step


@dataclass(frozen=True)
class StepwiseReport:
    """Trace of a bidirectional stepwise selection.

    contributions maps each finally selected variable to the percentage
    of total variance it explained at the step where it (last) entered.
    """

    steps: tuple[StepwiseStep, ...]
    selected: tuple[str, ...]
    contributions: dict[str, float]
    r2: float
    fit: ModelFit
    hit_round_cap: bool = False  # stopped at max_rounds, still changing


class _Unsure(Exception):
    """A pooled screen cannot vouch for the decision the rows would make."""


class _Pool:
    """The rows of a design grouped by condition.

    values holds one design row per condition and rows each response
    row's condition; counts is each condition's row count. Least squares
    on the rows is weighted least squares on the conditions: the
    residual sum of squares is the pure error (each row's squared
    deviation from its condition's mean, summed in two passes) plus the
    residual sum of squares of the condition means, each weighted by its
    condition's row count. n and the residual degrees of freedom still
    count rows. fit caches its fits by predictor names.
    """

    def __init__(self, names, y, values, rows):
        self.n = len(y)
        self.counts = counts = np.bincount(rows)
        means = np.bincount(rows, weights=y) / counts
        dev = y - means[rows]
        self.pure_error = np.bincount(rows, weights=dev * dev)
        self._pure_error = float(self.pure_error.sum())
        root = np.sqrt(counts)
        self._columns = {name: j + 1 for j, name in enumerate(names)}
        # a constant column is a multiple of the intercept in every fit
        self._constant = {name for name, constant
                          in zip(names, (values == values[0]).all(axis=0)) if constant}
        self._design = root[:, None] * np.column_stack([np.ones(len(counts)), values])
        self._response = root * means
        self._scale = float(y @ y)
        self.ss_tot = float(np.sum((y - y.mean()) ** 2))
        self._fits = {}

    def fit(self, names) -> ModelFit:
        """The weighted fit of the named predictors, as ols_fit would
        give it on the rows but for rounding. Raises ols_fit's errors as
        ols_fit does, and _Unsure when the singular-value ratio is within
        10x of RANK_TOL or the residual sum of squares is not above 1e-6
        of y @ y, where the rows might decide otherwise."""
        names = tuple(names)
        fit = self._fits.get(names)
        if fit is not None:
            return fit
        # a constant column decides the rank, unless the rows are too few
        if self.n > len(names) and not self._constant.isdisjoint(names):
            raise RankDeficient(_RANK_DEFICIENT)
        W = self._design[:, [0] + [self._columns[name] for name in names]]
        fit, s = _least_squares(W, self._response, names, self.n, self.ss_tot,
                                self._pure_error, RANK_TOL / 10)
        if s[-1] / s[0] < RANK_TOL * 10 or fit.ss_res <= _NEAR_ZERO * self._scale:
            raise _Unsure
        self._fits[names] = fit
        return fit


def _pool(X: DesignMatrix, y):
    """A _Pool of X's rows grouped by condition, or None when X records
    no grouping (it was not built by _expand) or when every condition has
    one row, as in an aggregate table."""
    if X._grouping is None:
        return None
    values, rows = X._grouping
    if len(rows) == len(values):
        return None
    return _Pool(X.names, y, values, rows)


def _below(a, b, size, pooled):
    """a < b. A pooled screen raises _Unsure when a and b are closer
    than _MARGIN * size, so a p-value off by _MARGIN relative could
    flip the answer."""
    if pooled and abs(a - b) <= _MARGIN * size:
        raise _Unsure
    return a < b


def _screen(names, fit, current, included, entering, pooled=False):
    """One entry or removal scan over names; returns the chosen
    (p, F, name, fit) or None.

    fit maps predictor names to a ModelFit; current is the fit of
    included. Entering, it picks the smallest p below 0.05 among the
    candidates that leave a full-rank fit with residual degrees of
    freedom; removing, the largest p above 0.10. A p within _P_TIE_TOL
    of the best so far does not displace it. pooled makes every
    comparison raise _Unsure unless it clears its flip point by _MARGIN
    relative on each p; a comparison of two p-values also does so when
    either F is below _F_FLOOR.
    """
    best = None
    for name in names:
        if entering:
            try:
                cand = fit(included + [name])
                f_stat, p = partial_f_test(cand, current)
            except (RankDeficient, InsufficientData):
                continue
        else:
            cand = fit([m for m in included if m != name])
            f_stat, p = partial_f_test(current, cand)
        # a removal reads as an entry with each p negated: -p < -0.10,
        # and -p < -worst - tol in place of p > worst + tol
        q = p if entering else -p
        if not _below(q, _ENTER_P if entering else -_REMOVE_P, abs(q), pooled):
            continue
        if best is not None:
            if pooled and min(f_stat, best[1]) < _F_FLOOR:
                raise _Unsure
            if not _below(q, best[0] - _P_TIE_TOL, abs(q) + abs(best[0]), pooled):
                continue
        best = (q, f_stat, name, cand)
    if best is None:
        return None
    q, f_stat, name, cand = best
    return (q if entering else -q), f_stat, name, cand


def stepwise(X: DesignMatrix, y) -> StepwiseReport:
    """Bidirectional stepwise selection over the columns of X.

    Each round first enters the candidate with the smallest partial-F
    p-value if that p-value is below 0.05, then removes included
    variables whose p-value rose above 0.10 (largest first).
    Candidates that would make the matrix rank deficient or leave the
    fit no residual degrees of freedom are skipped. A step whose fit has
    zero residual variance reports F = inf and p = 0, which JSON output
    refuses.
    Ties within 1e-12 go to the earlier column. The tolerance is
    absolute, so every p-value below 1e-12 ties and the earliest such
    column enters, whatever its F. Stops when a round changes nothing,
    or after 4 * len(X.names) + 8 rounds, which sets hit_round_cap.

    Given condition_matrix's design over a per-trial table, each scan
    first screens the candidates on weighted least squares over the
    table's conditions, then refits only the chosen step on the rows, so
    every reported F, p and r^2 is the per-row number. Other designs,
    aggregate or hand-built, screen on the rows. A scan whose pooled
    decision could differ from the rows' screens on the rows instead: a
    comparison within 1e-6 relative on a p-value of its flip point
    (0.05, 0.10 or another p-value -/+ 1e-12), two p-values compared at
    an F below 1e-4, a singular-value ratio within 10x of RANK_TOL, or a
    residual sum of squares not above 1e-6 of y @ y.

    Raises ols_fit's ValueError unless y is one value per row of X.
    """
    yarr = np.asarray(y, dtype=float)
    intercept_only = ols_fit(DesignMatrix((), np.empty((len(X.values), 0))), yarr)
    if intercept_only.degenerate_variance:
        return StepwiseReport((), (), {}, 0.0, intercept_only)

    pool = _pool(X, yarr)
    included: list[str] = []
    current = intercept_only
    steps: list[StepwiseStep] = []
    entry_gain: dict[str, tuple[float, float]] = {}
    max_rounds = 4 * len(X.names) + 8  # guards against enter/remove cycles

    def on_rows(names):
        return ols_fit(X.subset(names), yarr)

    def choose(entering):
        names = ([n for n in X.names if n not in included] if entering
                 else list(included))
        if pool is not None:
            try:
                pick = _screen(names, pool.fit, pool.fit(included), included,
                               entering, pooled=True)
            except (_Unsure, RankDeficient):
                pass  # screen every candidate on the rows
            else:
                names = [pick[2]] if pick else []
        return _screen(names, on_rows, current, included, entering)

    for _ in range(max_rounds):
        changed = False

        best = choose(entering=True)
        if best is not None:
            p, f_stat, name, cand = best
            before = current.r2
            current = cand
            included.append(name)
            steps.append(StepwiseStep("enter", name, f_stat, p, current.r2))
            entry_gain[name] = (before, current.r2)
            changed = True

        while included:
            worst = choose(entering=False)
            if worst is None:
                break
            p, f_stat, name, reduced = worst
            included.remove(name)
            current = reduced
            steps.append(StepwiseStep("remove", name, f_stat, p, current.r2))
            entry_gain.pop(name, None)
            changed = True

        if not changed:
            break

    contributions = {name: (entry_gain[name][1] - entry_gain[name][0]) * 100.0
                     for name in included}
    return StepwiseReport(tuple(steps), tuple(included), contributions,
                          current.r2, current, hit_round_cap=changed)


class ConditionTable:
    """A TrialLog's trials grouped once into their distinct conditions.

    tasks holds the distinct TaskSpecs in the order they enter the
    table, grouped by TaskSpec equality; the first spec to enter is
    kept when equal specs differ in the sign of a zero. y is the
    response: with aggregate=True the mean successful movement time of
    each condition (one row per condition), otherwise each successful
    trial's movement time in trial order. rows gives, for each response
    row, the index of its condition in tasks. n_trials counts every
    trial given, error trials included; aggregate records the choice.

    Raises InsufficientData for no trials, no successful trials
    (per-trial) or fewer than two conditions, EmptyCondition when
    aggregating a condition without a successful trial, and DomainError
    when a condition's times overflow their sum; fits on the table raise
    it when y's sums of squares overflow (see _least_squares).
    """

    def __init__(self, log: TrialLog, aggregate: bool = True):
        specs = log.tasks
        if not log.task_index:
            raise InsufficientData("no trials")
        # each condition's successful movement times; per-trial, only a
        # successful trial brings its condition into the table. slot maps
        # a spec's position in specs to its condition, looked up by
        # TaskSpec equality the first time a row of that spec enters
        index, slot, successes, rows, y = {}, [None] * len(specs), [], [], []
        for k, mt, success in zip(log.task_index, log.mt, log.success):
            if not (aggregate or success):
                continue
            i = slot[k]
            if i is None:
                i = index.get(specs[k])
                if i is None:
                    i = index[specs[k]] = len(successes)
                    successes.append([])
                slot[k] = i
            if success:
                successes[i].append(mt)
                rows.append(i)
                y.append(mt)
        tasks = tuple(index)
        if aggregate:
            for task, mts in zip(tasks, successes):
                if not mts:
                    raise EmptyCondition(
                        f"no successful trials for condition {_log_terms(task)}")
            try:
                y = [math.fsum(mts) / len(mts) for mts in successes]
            except OverflowError:  # only in-process: read_trials bounds the times
                raise DomainError(
                    "a condition's movement times overflow their sum") from None
            rows = range(len(tasks))
        elif not y:
            raise InsufficientData("no successful trials")
        if len(tasks) < 2:
            raise InsufficientData("need at least two distinct conditions")
        self.n_trials = len(log)
        self.aggregate = bool(aggregate)
        self.tasks = tasks
        self.rows = np.array(rows, dtype=np.intp)
        self.y = np.array(y, dtype=float)
        self.rows.flags.writeable = False
        self.y.flags.writeable = False
        self._predictors = {}

    def predictors(self, kind: ModelKind):
        """(names, values) of a model's regressors, one row of values per
        distinct condition. predictors_for runs once per condition and
        model; the first condition it rejects raises its DomainError."""
        kind = ModelKind(kind)
        cached = self._predictors.get(kind)
        if cached is None:
            values = np.array([list(predictors_for(kind, task).values())
                               for task in self.tasks], dtype=float)
            values.flags.writeable = False
            cached = self._predictors[kind] = (predictor_names(kind), values)
        return cached


def fit_model(kind: ModelKind, table: ConditionTable) -> ModelFit:
    """Fit one movement-time model to the response of a ConditionTable
    (condition means or successful trials, as the table was grouped).

    Predictor columns that are constant on the data are dropped and
    recorded on the returned fit.
    """
    kind = ModelKind(kind)
    names, values = table.predictors(kind)
    keep, dropped = [], []
    for j, name in enumerate(names):
        col = values[:, j]
        span = float(col.max() - col.min())
        if span > 1e-12 * max(1.0, float(np.abs(col).max())):
            keep.append(j)
        else:
            dropped.append(name)
    if not keep:
        raise RankDeficient(
            f"all {kind.value} predictors are constant on this data")
    X = _expand(tuple(names[j] for j in keep), values[:, keep], table.rows)
    fit = ols_fit(X, table.y)
    return replace(fit, dropped=tuple(dropped))


@dataclass(frozen=True)
class ComparisonRow:
    """One line of a model comparison: either a fit or the error that
    prevented one."""

    kind: ModelKind
    fit: ModelFit | None = None
    error: str | None = None


def compare_models(table: ConditionTable, kinds=MODEL_ORDER):
    """One row per requested model, each fitted once to the table: fitted
    rows by descending r^2 (ties in declaration order), then rows whose
    fit raised a Fitts3dError, carrying "<type>: <message>" inline."""
    rows = []
    for kind in sorted({ModelKind(k) for k in kinds}, key=MODEL_ORDER.index):
        try:
            rows.append(ComparisonRow(kind, fit=fit_model(kind, table)))
        except Fitts3dError as exc:
            rows.append(ComparisonRow(kind, error=f"{type(exc).__name__}: {exc}"))
    fitted = [r for r in rows if r.fit is not None]
    fitted.sort(key=lambda r: -r.fit.r2)  # stable: ties keep declaration order
    return fitted + [r for r in rows if r.fit is None]


def condition_matrix(table: ConditionTable, candidates=STEPWISE_CANDIDATES):
    """Design matrix of raw task variables plus the response vector of
    a ConditionTable, for stepwise selection.

    Candidates come from {F, W, A, phi, theta, alpha, omega}, checked by
    tasks.check_candidates; phi is encoded as sin(phi) under the column
    name "sin_phi".
    """
    cols, names = [], []
    for cand in check_candidates(candidates):
        if cand == "phi":
            names.append("sin_phi")
            cols.append([_sin_deg(t.phi) for t in table.tasks])
        else:
            names.append(cand)
            cols.append([float(getattr(t, cand)) for t in table.tasks])
    X = _expand(tuple(names), np.array(cols, dtype=float).T, table.rows)
    return X, table.y.copy()


def _expand(names, values, rows) -> DesignMatrix:
    """The design with one row per response row, from values (one row
    per condition) and rows (each response row's condition, every
    condition having one or more). The grouping is recorded on it for
    stepwise's pooled screen."""
    X = DesignMatrix(names, values[rows])
    object.__setattr__(X, "_grouping", (values, rows))
    return X
