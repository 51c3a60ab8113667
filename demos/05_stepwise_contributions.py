"""
Which task variables actually drive movement time?
==================================================

Stepwise selection over the raw task variables of a synthetic block.
Enter the best candidate while its partial-F p-value is below .05,
remove anything that drifts above .10, and report each variable's
r-squared gain at entry. The trials are grouped into per-condition
mean movement times (a ConditionTable) before the selection.
"""

from fitts3d import (ConditionTable, InteractionKind, condition_matrix,
                     generate_cell, render_stepwise, stepwise)

interaction = InteractionKind.POINTING

# e1 varies F, W and A only
log = generate_cell("e1", interaction)
X, y = condition_matrix(ConditionTable(log), ("F", "W", "A"))
print("== e1, candidates F, W, A ==")
print(render_stepwise(stepwise(X, y), "table"))

# e4 adds direction, elevation and the rotational demands; phi enters
# as sin(phi)
log = generate_cell("e4", interaction)
X, y = condition_matrix(ConditionTable(log))
print("== e4, all candidates ==")
print(render_stepwise(stepwise(X, y), "table"))
