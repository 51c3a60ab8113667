"""
Task grids and the seeded trial generator
=========================================

Build the four factorial grids, plant a ground-truth model scaled to
realistic mean movement times, and synthesize a reproducible block of
noisy trials. The block comes back as a TrialLog: the conditions, and
one column each for every trial's condition index, movement time and
outcome.
"""

import math
import os
import tempfile
from dataclasses import replace

from fitts3d import (InteractionKind, build_grid, generate_trials,
                     paper_scale_defaults, predict_mt, write_trials)

for experiment in ("e1", "e2", "e3", "e4"):
    grid = build_grid(experiment)
    print(f"{experiment}: {len(grid.variations)} conditions x "
          f"{grid.repetitions} repetitions")

# the default ground truth hits a published-scale mean movement time
interaction = InteractionKind.POINTING
truth = paper_scale_defaults("e4", interaction)
grid = build_grid("e4", interaction)
preds = [predict_mt(truth, t) for t in grid.variations]
print()
print("planted coefficients:", {k: round(v, 4)
                                for k, v in truth.coefficients.items()})
print(f"grid-mean prediction: {math.fsum(preds) / len(preds):.3f} s")
print(f"prediction range: {min(preds):.2f} .. {max(preds):.2f} s")

log = generate_trials(grid, truth, interaction)
errors = log.success.count(False)
mean_mt = math.fsum(mt for mt, success in zip(log.mt, log.success)
                    if success) / (len(log) - errors)
print()
print(f"generated {len(log)} trials, {errors} errors, "
      f"mean successful MT {mean_mt:.3f} s")

# same seed, same bytes; a different seed gives a different block
again = generate_trials(grid, truth, interaction)
print("identical regeneration:", log == again)
other = generate_trials(grid, replace(truth, seed=1), interaction)
print("different under seed=1:", log != other)

out = os.path.join(tempfile.gettempdir(), "e4_pointing_demo.csv")
write_trials(out, log, "e4")
print("wrote", out)
