"""The scalar stepwise selection, kept as the oracle for fitts3d's.

reference_stepwise fits every candidate of every round with ols_fit on
the rows, where fitts3d.regression.stepwise fits each subset from one
exact Gram of all its candidates; the two must return equal reports
with equal reprs.
"""

import numpy as np

from fitts3d.errors import InsufficientData, RankDeficient
from fitts3d.regression import (DesignMatrix, StepwiseReport, StepwiseStep,
                                ols_fit, partial_f_test)

# the rule's thresholds, stated here rather than imported, so that a
# change to fitts3d's rule has to change the oracle on purpose
ENTER_P = 0.05
REMOVE_P = 0.10
P_TIE_TOL = 1e-12  # p-values closer than this tie, and column order decides


def reference_stepwise(X: DesignMatrix, y) -> StepwiseReport:
    """Bidirectional stepwise selection over the columns of X.

    Each round first enters the candidate with the smallest partial-F
    p-value if that p-value is below 0.05, then removes included
    variables whose p-value rose above 0.10 (largest first).
    Candidates that would make the matrix rank deficient or leave the
    fit no residual degrees of freedom are skipped. A step whose fit has
    zero residual variance reports F = inf and p = 0, which JSON output
    refuses.
    Ties within 1e-12 go to the earlier column. Stops when a round
    changes nothing, or after 4 * len(X.names) + 8 rounds, which sets
    hit_round_cap.
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
                f_stat, p = partial_f_test(cand, current)
            except (RankDeficient, InsufficientData):
                continue
            if p < ENTER_P and (best is None or p < best[0] - P_TIE_TOL):
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
                if p > REMOVE_P and (worst is None or p > worst[0] + P_TIE_TOL):
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
