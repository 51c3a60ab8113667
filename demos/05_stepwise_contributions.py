"""
Which task variables actually drive movement time?
==================================================

Stepwise selection over the raw task variables of a synthetic block.
Enter the best candidate while its partial-F p-value is below .05,
remove anything that drifts above .10, and report each variable's
r-squared gain at entry. The trials are grouped into per-condition
mean movement times (a ConditionTable) before the selection.
"""

from fitts3d import (ConditionTable, InteractionKind, build_grid,
                     condition_matrix, generate_trials, paper_scale_defaults,
                     render_stepwise, stepwise)

interaction = InteractionKind.POINTING

# e1 varies F, W and A only
grid = build_grid("e1", interaction)
truth = paper_scale_defaults("e1", interaction)
log = generate_trials(grid, truth, interaction)
X, y = condition_matrix(ConditionTable(log), ("F", "W", "A"))
print("== e1, candidates F, W, A ==")
print(render_stepwise(stepwise(X, y), "table"))

# e4 adds direction, elevation and the rotational demands; phi enters
# as sin(phi)
grid = build_grid("e4", interaction)
truth = paper_scale_defaults("e4", interaction)
log = generate_trials(grid, truth, interaction)
X, y = condition_matrix(ConditionTable(log))
print("== e4, all candidates ==")
print(render_stepwise(stepwise(X, y), "table"))
