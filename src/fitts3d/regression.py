"""Least-squares fitting of movement-time models, partial F tests and
bidirectional stepwise variable selection.

Coefficients are solved through an orthogonal decomposition (SVD) of the
intercept-augmented design matrix rather than the normal equations, so
badly scaled predictor columns do not lose precision. Columns whose
singular values fall below 1e-10 of the largest are treated as rank
deficiencies, not silently pseudo-inverted.

The analyses (fit_model, compare_models, condition_matrix) read a
ConditionTable, which groups the trials once into their distinct
conditions and fixes the response: condition means or successful trials
(aggregate). Predictors are evaluated once per distinct condition and
expanded to one row per observation, the design a per-trial evaluation
would build, so the fits are identical to it.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (DegenerateVariance, EmptyCondition, Fitts3dError,
                     InsufficientData, InvalidNesting, RankDeficient)
from .metrics import MODEL_ORDER, ModelKind, declaration_index, predictors_for
from .special import f_sf

RANK_TOL = 1e-10

# p-values closer than this are a tie, resolved by column order
_P_TIE_TOL = 1e-12

_ENTER_P = 0.05
_REMOVE_P = 0.10


@dataclass(frozen=True)
class DesignMatrix:
    """Named predictor columns for a set of observations. The intercept
    column is implicit and added at fit time."""

    names: tuple[str, ...]
    values: np.ndarray

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

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    def subset(self, names) -> "DesignMatrix":
        idx = [self.names.index(n) for n in names]
        return DesignMatrix(tuple(self.names[i] for i in idx),
                            self.values[:, idx])


@dataclass(frozen=True)
class ModelFit:
    """Result of one least-squares fit.

    coefficients holds the intercept under the key "intercept" and one
    slope per retained predictor. dropped lists predictor columns that
    were constant on the data and therefore excluded before fitting.
    degenerate_variance marks a constant response, where r^2 is reported
    as 0 by convention.
    """

    kind: ModelKind | None
    predictor_names: tuple[str, ...]
    coefficients: dict[str, float]
    r2: float
    residuals: np.ndarray
    n: int
    ss_res: float
    ss_tot: float
    degenerate_variance: bool = False
    dropped: tuple[str, ...] = ()


def ols_fit(X: DesignMatrix, y, kind: ModelKind | None = None) -> ModelFit:
    """Fit y = a + X b by least squares.

    Raises InsufficientData when rows <= columns and RankDeficient when
    the augmented matrix is numerically singular.
    """
    yarr = np.asarray(y, dtype=float)
    if yarr.ndim != 1 or yarr.shape[0] != X.n_rows:
        raise ValueError("y must be one value per design matrix row")
    if not np.all(np.isfinite(yarr)):
        raise ValueError("y must be finite")
    n, p = X.values.shape
    if n <= p:
        raise InsufficientData(f"{n} rows cannot identify {p} slopes plus an intercept")
    M = np.column_stack([np.ones(n), X.values])
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    if s[0] <= 0 or np.any(s < RANK_TOL * s[0]):
        raise RankDeficient(
            "design matrix is rank deficient (collinear or constant columns)")
    beta = Vt.T @ ((U.T @ yarr) / s)
    fitted = M @ beta
    residuals = yarr - fitted
    ss_res = float(residuals @ residuals)
    ss_tot = float(np.sum((yarr - yarr.mean()) ** 2))
    if ss_tot == 0.0:
        r2 = 0.0
        degenerate = True
    else:
        r2 = 1.0 - ss_res / ss_tot
        degenerate = False
    coefficients = {"intercept": float(beta[0])}
    for name, b in zip(X.names, beta[1:]):
        coefficients[name] = float(b)
    residuals.flags.writeable = False
    return ModelFit(kind=kind, predictor_names=X.names,
                    coefficients=coefficients, r2=r2, residuals=residuals,
                    n=n, ss_res=ss_res, ss_tot=ss_tot,
                    degenerate_variance=degenerate)


def r_squared(fit: ModelFit, y) -> float:
    """Coefficient of determination of a fit against its response.

    Raises DegenerateVariance when y is constant.
    """
    yarr = np.asarray(y, dtype=float)
    if yarr.shape[0] != fit.n:
        raise ValueError("y length does not match the fit")
    ss_res = float(fit.residuals @ fit.residuals)
    ss_tot = float(np.sum((yarr - yarr.mean()) ** 2))
    if ss_tot == 0.0:
        raise DegenerateVariance("constant response has no explainable variance")
    return 1.0 - ss_res / ss_tot


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


def stepwise(X: DesignMatrix, y) -> StepwiseReport:
    """Bidirectional stepwise selection over the columns of X.

    Each round first enters the candidate with the smallest partial-F
    p-value if that p-value is below 0.05, then removes included
    variables whose p-value rose above 0.10 (largest first).
    Candidates that would make the matrix rank deficient are skipped.
    Ties within 1e-12 go to the earlier column. Stops when a round
    changes nothing.
    """
    yarr = np.asarray(y, dtype=float)
    intercept_only = ols_fit(DesignMatrix((), np.empty((yarr.shape[0], 0))), yarr)
    if intercept_only.degenerate_variance:
        return StepwiseReport((), (), {}, 0.0, intercept_only)

    included: list[str] = []
    current = intercept_only
    steps: list[StepwiseStep] = []
    entry_gain: dict[str, tuple[float, float]] = {}
    max_rounds = 4 * len(X.names) + 8  # guards against enter/remove cycles

    for _ in range(max_rounds):
        changed = False

        best = None
        for name in X.names:
            if name in included:
                continue
            try:
                cand = ols_fit(X.subset(included + [name]), yarr)
            except (RankDeficient, InsufficientData):
                continue
            f_stat, p = partial_f_test(cand, current)
            if p < _ENTER_P and (best is None or p < best[0] - _P_TIE_TOL):
                best = (p, f_stat, name, cand)
        if best is not None:
            p, f_stat, name, cand = best
            before = current.r2
            current = cand
            included.append(name)
            steps.append(StepwiseStep("enter", name, f_stat, p, current.r2))
            entry_gain[name] = (before, current.r2)
            changed = True

        while included:
            worst = None
            for name in included:
                reduced = ols_fit(
                    X.subset([m for m in included if m != name]), yarr)
                f_stat, p = partial_f_test(current, reduced)
                if p > _REMOVE_P and (worst is None or p > worst[0] + _P_TIE_TOL):
                    worst = (p, f_stat, name, reduced)
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
                          current.r2, current)


class ConditionTable:
    """Trials grouped once into their distinct conditions.

    tasks holds the distinct TaskSpecs in first-appearance order. y is
    the response: with aggregate=True the mean successful movement time
    of each condition (one row per condition), otherwise each successful
    trial's movement time in trial order. rows gives, for each response
    row, the index of its condition in tasks.

    Raises InsufficientData for no trials, no successful trials
    (per-trial) or fewer than two conditions, and EmptyCondition when
    aggregating a condition without a successful trial.
    """

    def __init__(self, trials, aggregate: bool = True):
        trials = list(trials)
        if not trials:
            raise InsufficientData("no trials")
        index, tasks, rows, y = {}, [], [], []
        if aggregate:
            successes = []
            for t in trials:
                i = index.get(t.task)
                if i is None:
                    i = index[t.task] = len(tasks)
                    tasks.append(t.task)
                    successes.append([])
                if t.success:
                    successes[i].append(t.mt)
            for task, mts in zip(tasks, successes):
                if not mts:
                    raise EmptyCondition(
                        f"no successful trials for condition {task}")
                y.append(math.fsum(mts) / len(mts))
            rows = range(len(tasks))
        else:
            for t in trials:
                if not t.success:
                    continue
                i = index.get(t.task)
                if i is None:
                    i = index[t.task] = len(tasks)
                    tasks.append(t.task)
                rows.append(i)
                y.append(t.mt)
            if not y:
                raise InsufficientData("no successful trials")
        if len(tasks) < 2:
            raise InsufficientData("need at least two distinct conditions")
        self.tasks = tuple(tasks)
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
            vectors = [predictors_for(kind, task) for task in self.tasks]
            values = np.array([v.values for v in vectors], dtype=float)
            values.flags.writeable = False
            cached = self._predictors[kind] = (vectors[0].names, values)
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
    X = DesignMatrix(tuple(names[j] for j in keep), values[:, keep][table.rows])
    fit = ols_fit(X, table.y, kind=kind)
    return replace(fit, dropped=tuple(dropped))


@dataclass(frozen=True)
class ComparisonRow:
    """One line of a model comparison: either a fit or the error that
    prevented one."""

    kind: ModelKind
    fit: ModelFit | None = None
    error: str | None = None


def compare_models(table: ConditionTable, kinds=MODEL_ORDER):
    """Fit several models to the same ConditionTable and rank them.

    Returns one row per requested model: fitted rows first, sorted by
    descending r^2 (ties broken by declaration order), then rows whose
    fit failed, carrying the error message inline.
    """
    rows = []
    for kind in sorted({ModelKind(k) for k in kinds}, key=declaration_index):
        try:
            rows.append(ComparisonRow(kind, fit=fit_model(kind, table)))
        except Fitts3dError as exc:
            rows.append(ComparisonRow(kind, error=f"{type(exc).__name__}: {exc}"))
    fitted = [r for r in rows if r.fit is not None]
    failed = [r for r in rows if r.fit is None]
    fitted.sort(key=lambda r: (-r.fit.r2, declaration_index(r.kind)))
    return fitted + failed


# candidate columns for stepwise selection on raw task variables; the
# direction angle enters through its sine, matching the directional
# term of the angle-aware models
STEPWISE_CANDIDATES = ("F", "W", "A", "phi", "theta", "alpha", "omega")


def condition_matrix(table: ConditionTable, candidates=STEPWISE_CANDIDATES):
    """Design matrix of raw task variables plus the response vector of
    a ConditionTable, for stepwise selection.

    Candidates come from {F, W, A, phi, theta, alpha, omega}; phi is
    encoded as sin(phi) under the column name "sin_phi".
    """
    candidates = tuple(candidates)
    if not candidates:
        raise ValueError("need at least one candidate")
    if len(set(candidates)) != len(candidates):
        raise ValueError("duplicate candidate names")
    unknown = set(candidates) - set(STEPWISE_CANDIDATES)
    if unknown:
        raise ValueError(f"unknown candidates: {sorted(unknown)}")
    cols, names = [], []
    for cand in candidates:
        if cand == "phi":
            names.append("sin_phi")
            cols.append([math.sin(math.radians(t.phi)) for t in table.tasks])
        else:
            names.append(cand)
            cols.append([float(getattr(t, cand)) for t in table.tasks])
    X = DesignMatrix(tuple(names), np.array(cols, dtype=float).T[table.rows])
    return X, table.y.copy()
