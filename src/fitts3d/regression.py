"""Least-squares fitting of movement-time models, partial F tests and
bidirectional stepwise variable selection.

Every fit is exact, and each number it reports is rounded once. A
least-squares fit depends on its observations only through each
distinct design row's count and response sum, and the response's sum of
squares. Every float is an integer times a power of two, so each design
column and the response are scaled to integers by one power of two
each, and the bordered Gram [[M'M, M'y], [y'M, y'y]] of the
intercept-augmented design M is formed from those sums in integers.
_solve eliminates it fraction-free (Bareiss, Math. Comp. 1968) and
rounds each coefficient, ss_res, ss_tot and r^2 by one int/int true
division, which CPython rounds correctly. So each is the float nearest
the exact least-squares value on any platform, and one too large for a
float raises DomainError.

The rank rule is numerical: a design is rank deficient when the
smallest singular value of M is below RANK_TOL (1e-10) times its
largest. It is decided on the exact Gram (see _full_rank).

The analyses (fit_model, compare_models, condition_matrix) read a
ConditionTable, which groups a TrialLog's columns once into their
distinct conditions, fixes the response (condition means or successful
trials, aggregate) and holds its exact per-condition sums; predictors
are evaluated once per distinct condition. fit_model and _table_stepwise
(the CLI's stepwise) fit from those sums; ols_fit and stepwise group a
DesignMatrix's identical rows, so a per-trial design and its conditions
give the same numbers, bit for bit. stepwise forms one Gram of all its
candidates and fits each subset on its principal submatrix.
The p-value tie rule is absolute: every p below 1e-12 ties, and the
earliest such column enters whatever its F. No scan is offered an
exactly constant candidate.
"""

import math
from functools import reduce
from itertools import chain, compress, repeat
from operator import mul, or_, rshift

from .constants import STEPWISE_CANDIDATES
from .errors import (DomainError, EmptyCondition, Fitts3dError,
                     InsufficientData, InvalidNesting, RankDeficient)
from .metrics import (MODEL_ORDER, ModelKind, _sin_deg, predictor_names,
                      predictors_for)
from .tasks import _Record, check_candidates
from .trial_io import TrialLog, _log_terms

RANK_TOL = 1e-10
_RANK_DEFICIENT = "design matrix is rank deficient (collinear or constant columns)"
_OVERFLOW = "sums of squares overflow: the response is too large"
# RANK_TOL**2 as _TOL2_NUM / 2**_TOL2_SHIFT
_TOL_NUM, _TOL_DEN = RANK_TOL.as_integer_ratio()
_TOL2_NUM, _TOL2_SHIFT = _TOL_NUM ** 2, 2 * (_TOL_DEN.bit_length() - 1)

# p-values closer than this are a tie, resolved by column order
_P_TIE_TOL = 1e-12

_ENTER_P = 0.05
_REMOVE_P = 0.10


class DesignMatrix(_Record):
    """Named predictor columns for a set of observations. The intercept
    column is implicit and added at fit time. values is given as any 2-d
    sequence of numbers (a numpy array among them: its ndim must be 2)
    and held as a tuple of row tuples of floats."""

    _fields = ("names", "values")

    def __init__(self, names: tuple[str, ...],
                 values: tuple[tuple[float, ...], ...]):
        names = tuple(str(n) for n in names)
        if len(set(names)) != len(names):
            raise ValueError("column names must be unique")
        if any(not n for n in names):
            raise ValueError("column names must be nonempty")
        try:
            values = (tuple(tuple(map(float, row)) for row in values)
                      if getattr(values, "ndim", 2) == 2 else None)
        except TypeError:
            values = None
        if values is None:
            raise ValueError("values must be a 2-d array")
        if any(len(row) != len(names) for row in values):
            raise ValueError("one name per column required")
        if not all(map(math.isfinite, chain.from_iterable(values))):
            raise ValueError("design matrix entries must be finite")
        self._set(names, values)

    def subset(self, names) -> "DesignMatrix":
        idx = [self.names.index(n) for n in names]
        return DesignMatrix(tuple(self.names[i] for i in idx),
                            [[row[i] for i in idx] for row in self.values])


class ModelFit(_Record):
    """Result of one least-squares fit; it keeps no per-row residuals.

    coefficients holds the intercept under the key "intercept" and one
    slope per retained predictor; ss_res and ss_tot are the residual and
    total sums of squares over the n observations. Each of these and r2
    is the exact least-squares value rounded once (see _solve). dropped
    lists predictor columns that were constant on the data and therefore
    excluded before fitting. degenerate_variance marks a constant
    response, where r^2 is reported as 0 by convention.
    """

    _fields = ("predictor_names", "coefficients", "r2", "n", "ss_res",
               "ss_tot", "degenerate_variance", "dropped")

    def __init__(self, predictor_names: tuple[str, ...],
                 coefficients: dict[str, float], r2: float, n: int,
                 ss_res: float, ss_tot: float, degenerate_variance: bool = False,
                 dropped: tuple[str, ...] = ()):
        self._set(predictor_names, coefficients, r2, n, ss_res, ss_tot,
                  degenerate_variance, dropped)


def ols_fit(X: DesignMatrix, y) -> ModelFit:
    """Fit y = a + X b by exact least squares on X's distinct rows (see
    _solve). Raises ValueError unless y is one finite value per row of
    X, InsufficientData when rows <= columns, RankDeficient when the
    augmented design fails the rank rule and DomainError when a result
    is too large for a float.
    """
    return _fit(X.names, *_conditions(X, y))


def _conditions(X: DesignMatrix, y):
    """(columns, counts, sums, squares, scale) of X's distinct rows in
    first-seen order (see _gram) and y, which must be one finite value
    per row of X, else ValueError. A numpy y must be 1-d: float() would
    take each entry of a column."""
    try:
        ys = list(map(float, y)) if getattr(y, "ndim", 1) == 1 else None
    except TypeError:
        ys = None
    if ys is None or len(ys) != len(X.values):
        raise ValueError("y must be one value per design matrix row")
    if not all(map(math.isfinite, ys)):
        raise ValueError("y must be finite")
    groups = {}
    for row, v in zip(X.values, ys):
        groups.setdefault(row, []).append(v)
    columns = list(zip(*groups)) if groups else [()] * len(X.names)
    counts = list(map(len, groups.values()))
    return (columns, counts,
            *_response_sums(counts, list(chain.from_iterable(groups.values()))))


def _integers(values):
    """(ints, scale): each of the floats values times 2**scale, an exact
    integer, with scale the least that does this for the smallest
    nonzero value. Raises OverflowError or ValueError for a value that
    is not finite."""
    smallest = min(values, default=0.0)  # movement times are positive
    if smallest <= 0.0:
        smallest = min(filter(None, map(abs, values)), default=0.0)
    if not smallest:
        return [0] * len(values), 0
    # every float is a multiple of its 53-bit ulp, so of the smallest's
    scale = min(1074, 53 - math.frexp(smallest)[1])
    try:
        return list(map(int, map(math.ldexp, values, repeat(scale)))), scale
    except OverflowError:  # too wide an exponent range for a float
        return [(m << scale) // d
                for m, d in map(float.as_integer_ratio, values)], scale


def _column(values):
    """_integers of a design column, with their common factors of two
    taken out: small integers keep the elimination cheap."""
    ints, scale = _integers(values)
    common = reduce(or_, ints, 0)
    zeros = max(0, (common & -common).bit_length() - 1)
    return list(map(rshift, ints, repeat(zeros))), scale - zeros


def _response_sums(counts, ys):
    """(sums, squares, scale) of ys taken in runs of counts: each run's
    sum and sum of squares, as exact integers at the scale 2**scale of
    _integers."""
    ints, scale = _integers(ys)
    sums, squares, start = [], [], 0
    for count in counts:
        run = ints[start:start + count]
        start += count
        sums.append(sum(run))
        squares.append(sum(map(mul, run, run)))
    return tuple(sums), tuple(squares), scale


def _gram(columns, counts, sums, squares):
    """(gram, scales): the bordered Gram of the intercept-augmented design
    whose distinct rows hold the values of columns, each counts[i] times,
    with a response of sums and squares per row, scaled as _column and
    _response_sums scale them. Row and column 0 are the intercept's and
    the last the response's; scales[j] is column j's power of two (0 for
    the intercept), the response's being the sums' own."""
    scaled = [([1] * len(counts), 0), *map(_column, columns)]
    ints = [col for col, _ in scaled]
    size = len(ints)
    gram = [[0] * (size + 1) for _ in range(size + 1)]
    for i, col in enumerate(ints):
        weighted = list(map(mul, counts, col))
        for j in range(i, size):
            gram[i][j] = gram[j][i] = sum(map(mul, weighted, ints[j]))
        gram[i][size] = gram[size][i] = sum(map(mul, col, sums))
    gram[size][size] = sum(squares)
    return gram, [scale for _, scale in scaled]


def _fit(names, columns, counts, sums, squares, scale) -> ModelFit:
    """The exact fit of the named columns (see _gram), checked for rank."""
    gram, scales = _gram(columns, counts, sums, squares)
    return _solve(gram, scales, scale, tuple(names), range(1, len(names) + 1))


def _solve(gram, scales, scale, names, columns, check_rank=True) -> ModelFit:
    """The fit of the response on the intercept and the named columns
    (indices into gram, see _gram), the response scaled by 2**scale.

    The principal submatrix of gram on the intercept, columns and the
    response is eliminated fraction-free (_eliminate). Its corner is
    then det * ss_res and back substitution gives det times each
    coefficient, in integers, det being the Gram's determinant. Each
    reported number is one correctly rounded int/int division. Raises
    InsufficientData when there are no more observations than names,
    RankDeficient when check_rank and the design fails the rank rule,
    s_min < RANK_TOL * s_max of the intercept-augmented design, decided
    on the exact Gram by _full_rank, and DomainError when a result is
    too large for a float.
    """
    n = gram[0][0]
    if n <= len(names):
        raise InsufficientData(
            f"{n} rows cannot identify {len(names)} slopes plus an intercept")
    idx = [0, *columns]
    if check_rank and not _full_rank(gram, scales, idx):
        raise RankDeficient(_RANK_DEFICIENT)
    last = len(gram) - 1
    order = idx + [last]
    a = [[gram[i][j] for j in order] for i in order]
    p = len(idx)
    if not _eliminate(a, p):  # exactly singular, past an unchecked rule
        raise RankDeficient(_RANK_DEFICIENT)
    det = a[p - 1][p - 1]
    x = [0] * p  # det times each coefficient of the scaled columns
    for k in reversed(range(p)):
        x[k] = (det * a[k][p] - sum(map(mul, a[k][k + 1:p], x[k + 1:]))) // a[k][k]
    residual = a[p][p]  # det * 4**scale * ss_res
    spread = n * gram[last][last] - gram[0][last] ** 2  # n * 4**scale * ss_tot
    coefficients = {name: _ratio(v, det, scales[j] - scale)
                    for name, v, j in zip(("intercept",) + names, x, idx)}
    ss_res = _ratio(residual, det, -2 * scale)
    ss_tot = _ratio(spread, n, -2 * scale)
    # 1 - ss_res / ss_tot, in [0, 1]
    r2 = (spread * det - residual * n) / (spread * det) if spread else 0.0
    return ModelFit(predictor_names=names, coefficients=coefficients, r2=r2,
                    n=n, ss_res=ss_res, ss_tot=ss_tot,
                    degenerate_variance=not spread)


def _ratio(num, den, shift):
    """num / den * 2**shift, correctly rounded; DomainError when it is
    too large for a float."""
    if shift >= 0:
        num <<= shift
    else:
        den <<= -shift
    try:
        return num / den
    except OverflowError:
        raise DomainError(_OVERFLOW) from None


def _eliminate(a, steps) -> bool:
    """Eliminate the first steps columns of the symmetric integer matrix
    a fraction-free (Bareiss), in place on its upper triangle. After
    step k each a[i][j], k < i <= j, is the minor of a's rows 0..k, i and
    columns 0..k, j, so every division is exact and each pivot a[k][k]
    is a leading principal minor. Returns False, and stops, at the first
    pivot that is not positive: a is then not positive definite."""
    size = len(a)
    previous = 1
    for k in range(steps):
        pivot, row = a[k][k], a[k]
        if pivot <= 0:
            return False
        for i in range(k + 1, size):
            factor, target = row[i], a[i]
            for j in range(i, size):
                target[j] = (pivot * target[j] - factor * row[j]) // previous
        previous = pivot
    return True


def _full_rank(gram, scales, idx) -> bool:
    """Whether the intercept-augmented design whose Gram G is gram's
    principal submatrix on idx passes the rank rule s_min >= RANK_TOL *
    s_max, that is, for the eigenvalues l = s**2 of G, l_min >=
    RANK_TOL**2 * l_max.

    It is decided exactly, as whether G - RANK_TOL**2 * l * I is positive
    definite, for l first the trace of G (at least l_max: passing decides
    full rank), then G's largest diagonal entry (at most l_max: failing
    decides rank deficiency) and, only between the two, a float estimate
    of l_max (_largest_eigenvalue). G is taken unscaled, times one power
    of two, so the rule sees the design's own columns.
    """
    top = max(scales[i] for i in idx)
    g = [[gram[i][j] << (2 * top - scales[i] - scales[j]) for j in idx] for i in idx]
    diagonal = [g[i][i] for i in range(len(g))]
    if _clears(g, sum(diagonal), 0):
        return True
    if not _clears(g, max(diagonal), 0):
        return False
    return _clears(g, *_largest_eigenvalue(g))


def _clears(g, num, exp) -> bool:
    """Whether g - RANK_TOL**2 * num * 2**exp * I is positive definite,
    in integers: g is scaled by the power of two that clears the
    denominators."""
    shift, c = _TOL2_SHIFT, _TOL2_NUM * num
    if exp >= 0:
        c <<= exp
    else:
        shift -= exp
    a = [[(v << shift) - (c if i == j else 0) for j, v in enumerate(row)]
         for i, row in enumerate(g)]
    return _eliminate(a, len(a))


def _largest_eigenvalue(g):
    """(m, e): m * 2**e, a float estimate of the largest eigenvalue of the
    symmetric positive semidefinite integer matrix g, by cyclic Jacobi
    rotations (Golub & Van Loan, Matrix Computations, 8.5) on g scaled
    below 1."""
    e = max(g[i][i] for i in range(len(g))).bit_length()
    a = [[v / (1 << e) for v in row] for row in g]
    size = len(a)
    for _ in range(64):
        if math.fsum(a[p][q] ** 2 for p in range(size)
                     for q in range(p + 1, size)) <= 1e-36:
            break
        for p in range(size - 1):
            for q in range(p + 1, size):
                if not a[p][q]:
                    continue
                tau = (a[q][q] - a[p][p]) / (2 * a[p][q])
                t = math.copysign(1.0 / (abs(tau) + math.hypot(1.0, tau)), tau)
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                for row in a:  # columns p and q
                    row[p], row[q] = c * row[p] - s * row[q], s * row[p] + c * row[q]
                a[p], a[q] = ([c * u - s * v for u, v in zip(a[p], a[q])],
                              [s * u + c * v for u, v in zip(a[p], a[q])])
    m, d = max(a[i][i] for i in range(size)).as_integer_ratio()
    return m, e - (d.bit_length() - 1)


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
    from .special import f_sf  # here, so compare and fit, which test no F, skip it
    return f_stat, f_sf(f_stat, extra, df_full)


class StepwiseStep(_Record):
    """One step of a stepwise selection: action is "enter" or "remove",
    and r2 is the cumulative r^2 after the step."""

    _fields = ("action", "name", "f_stat", "p_value", "r2")

    def __init__(self, action: str, name: str, f_stat: float, p_value: float,
                 r2: float):
        self._set(action, name, f_stat, p_value, r2)


class StepwiseReport(_Record):
    """Trace of a bidirectional stepwise selection.

    contributions maps each finally selected variable to the percentage
    of total variance it explained at the step where it (last) entered.
    hit_round_cap marks a selection stopped at max_rounds, still changing.
    """

    _fields = ("steps", "selected", "contributions", "r2", "fit",
               "hit_round_cap")

    def __init__(self, steps: tuple[StepwiseStep, ...], selected: tuple[str, ...],
                 contributions: dict[str, float], r2: float, fit: ModelFit,
                 hit_round_cap: bool = False):
        self._set(steps, selected, contributions, r2, fit, hit_round_cap)


def stepwise(X: DesignMatrix, y) -> StepwiseReport:
    """Bidirectional stepwise selection over the columns of X.

    Each round first enters the candidate with the smallest partial-F
    p-value if that p-value is below 0.05, then removes included
    variables whose p-value rose above 0.10 (largest first). An exactly
    constant column (-0.0 equals 0.0) is never offered; other candidates
    that would make the matrix rank deficient or leave the fit no
    residual degrees of freedom are skipped. A step whose fit has zero
    residual variance reports F = inf and p = 0, which JSON output
    refuses. Ties within 1e-12 go to the earlier column. The tolerance is
    absolute, so every p-value below 1e-12 ties and the earliest such
    column enters, whatever its F. Stops when a round changes nothing,
    or after 4 * len(X.names) + 8 rounds, which sets hit_round_cap.

    X's identical rows are grouped once (_table_stepwise takes a table's
    sums instead) and one exact Gram of all its columns is formed; each
    subset is fitted on its principal submatrix, so every fit is
    ols_fit's on that subset, bit for bit. When the offered columns
    together pass the rank rule, every subset of them does (Cauchy
    interlacing: a principal submatrix's eigenvalues lie within the
    whole's), so the rule is checked once; otherwise it is checked for
    each subset.

    Raises ols_fit's ValueError unless y is one finite value per row of
    X, its InsufficientData for a design with no rows, and its
    DomainError when a result is too large for a float.
    """
    return _stepwise(X.names, *_conditions(X, y))


def _stepwise(names, columns, counts, sums, squares, scale) -> StepwiseReport:
    """stepwise on the named columns' distinct rows and sums (_gram)."""
    if not counts:
        raise InsufficientData(
            f"0 rows cannot identify {len(names)} slopes plus an intercept")
    gram, scales = _gram(columns, counts, sums, squares)
    index = {name: j for j, name in enumerate(names, start=1)}
    # an exactly constant column is a multiple of the intercept: never offered
    offered = [name for name, col in zip(names, columns) if min(col) != max(col)]
    each_subset = not _full_rank(gram, scales, [0, *map(index.get, offered)])
    fits = {}

    def fit(names):
        names = tuple(names)
        found = fits.get(names)
        if found is None:
            found = fits[names] = _solve(gram, scales, scale, names,
                                         list(map(index.get, names)), each_subset)
        return found

    intercept_only = fit(())
    if intercept_only.degenerate_variance:
        return StepwiseReport((), (), {}, 0.0, intercept_only)

    included: list[str] = []
    current = intercept_only
    steps: list[StepwiseStep] = []
    entry_gain: dict[str, tuple[float, float]] = {}
    max_rounds = 4 * len(names) + 8  # guards against enter/remove cycles

    for _ in range(max_rounds):
        changed = False

        best = None
        for name in offered:
            if name in included:
                continue
            try:
                cand = fit(included + [name])
                f_stat, p = partial_f_test(cand, current)
            except (RankDeficient, InsufficientData):
                continue
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
                reduced = fit([m for m in included if m != name])
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
                          current.r2, current, hit_round_cap=changed)


class ConditionTable:
    """A TrialLog's trials grouped once into their distinct conditions.

    tasks holds the distinct TaskSpecs in the order they enter the
    table, grouped by TaskSpec equality; the first spec to enter is
    kept when equal specs differ in the sign of a zero. y is the
    response, a tuple: with aggregate=True the mean successful movement
    time of each condition, fsum(mts) / n rounded once (one row per
    condition), otherwise each successful trial's movement time in trial
    order. rows gives, for each response row, the index of its condition
    in tasks. n_trials counts every trial given, error trials included;
    aggregate records the choice.

    Each condition's response rows are summed exactly: counts[i] is the
    number of condition i's rows, and sums[i] and squares[i] are their
    sum and sum of squares times 2**scale and 4**scale, integers, with
    one scale for the table. The fits are made from these.

    Raises InsufficientData for no trials, no successful trials
    (per-trial) or fewer than two conditions, EmptyCondition when
    aggregating a condition without a successful trial, and DomainError
    when a condition's times overflow their sum or a time is not finite;
    fits on the table raise it when a result is too large for a float.
    """

    def __init__(self, log: TrialLog, aggregate: bool = True):
        specs = log.tasks
        if not log.task_index:
            raise InsufficientData("no trials")
        # each condition's successful times; per trial only the successful
        # trials enter, a condition with its first success. slot maps a
        # spec's position in specs to its condition, looked up by TaskSpec
        # equality on the spec's first row
        index, slot, times = {}, [None] * len(specs), []
        trials = zip(log.task_index, log.mt, log.success) if aggregate else zip(
            compress(log.task_index, log.success), compress(log.mt, log.success),
            repeat(True))
        for k, mt, success in trials:
            i = slot[k]
            if i is None:
                i = slot[k] = index.setdefault(specs[k], len(index))
                if i == len(times):
                    times.append([])
            if success:
                times[i].append(mt)
        tasks = tuple(index)
        if aggregate:
            for task, mts in zip(tasks, times):
                if not mts:
                    raise EmptyCondition(
                        f"no successful trials for condition {_log_terms(task)}")
            try:
                y = [math.fsum(mts) / len(mts) for mts in times]
            except OverflowError:  # only in-process: read_trials bounds the times
                raise DomainError(
                    "a condition's movement times overflow their sum") from None
            rows = range(len(tasks))
            times = [[mt] for mt in y]
        else:
            y = tuple(compress(log.mt, log.success))
            if not y:
                raise InsufficientData("no successful trials")
            rows = map(slot.__getitem__, compress(log.task_index, log.success))
        if len(tasks) < 2:
            raise InsufficientData("need at least two distinct conditions")
        self.counts = tuple(map(len, times))
        try:
            self.sums, self.squares, self.scale = _response_sums(
                self.counts, list(chain.from_iterable(times)))
        except (OverflowError, ValueError):  # only in-process, as above
            raise DomainError("movement times must be finite") from None
        self.n_trials = len(log)
        self.aggregate = bool(aggregate)
        self.tasks = tasks
        self.rows = tuple(rows)
        self.y = tuple(y)
        self._predictors = {}

    def predictors(self, kind: ModelKind):
        """(names, values) of a model's regressors: values holds one tuple
        of floats per distinct condition. predictors_for runs once per
        condition and model; the first condition it rejects raises its
        DomainError."""
        kind = ModelKind(kind)
        cached = self._predictors.get(kind)
        if cached is None:
            values = tuple(tuple(map(float, predictors_for(kind, task).values()))
                           for task in self.tasks)
            cached = self._predictors[kind] = (predictor_names(kind), values)
        return cached


def fit_model(kind: ModelKind, table: ConditionTable) -> ModelFit:
    """Fit one movement-time model to the response of a ConditionTable
    (condition means or successful trials, as the table was grouped),
    from the table's exact sums.

    Predictor columns that are constant on the data are dropped and
    recorded on the returned fit.
    """
    kind = ModelKind(kind)
    names, values = table.predictors(kind)
    keep, dropped = [], []
    for name, col in zip(names, zip(*values)):
        if max(col) - min(col) > 1e-12 * max(1.0, max(map(abs, col))):
            keep.append((name, col))
        else:
            dropped.append(name)
    if not keep:
        raise RankDeficient(
            f"all {kind.value} predictors are constant on this data")
    kept, columns = zip(*keep)
    fit = _fit(kept, columns, table.counts, table.sums, table.squares, table.scale)
    return fit._replace(dropped=tuple(dropped))


class ComparisonRow(_Record):
    """One line of a model comparison: either a fit or the error that
    prevented one."""

    _fields = ("kind", "fit", "error")

    def __init__(self, kind: ModelKind, fit: ModelFit | None = None,
                 error: str | None = None):
        self._set(kind, fit, error)


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
    a ConditionTable, for stepwise selection, one row per response row.
    The response is table.y itself. `fitts3d stepwise` fits the same
    numbers, bit for bit, from the table's sums (_table_stepwise).

    Candidates come from {F, W, A, phi, theta, alpha, omega}, checked by
    tasks.check_candidates; phi is encoded as sin(phi) under the column
    name "sin_phi".
    """
    X = _condition_design(table, candidates)
    # checked once per condition, then one row per response row
    object.__setattr__(X, "values", tuple(map(X.values.__getitem__, table.rows)))
    return X, table.y


def _condition_design(table: ConditionTable, candidates) -> DesignMatrix:
    """condition_matrix's design, one row per condition of table.tasks."""
    cols, names = [], []
    for cand in check_candidates(candidates):
        if cand == "phi":
            names.append("sin_phi")
            cols.append([_sin_deg(t.phi) for t in table.tasks])
        else:
            names.append(cand)
            cols.append([float(getattr(t, cand)) for t in table.tasks])
    return DesignMatrix(tuple(names), tuple(zip(*cols)))


def _table_stepwise(table: ConditionTable, candidates) -> StepwiseReport:
    """stepwise(*condition_matrix(table, candidates)), bit for bit, from
    the table's exact per-condition sums, no row expanded or grouped."""
    X = _condition_design(table, candidates)
    return _stepwise(X.names, list(zip(*X.values)), table.counts, table.sums,
                     table.squares, table.scale)
