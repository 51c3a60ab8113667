"""The paper's eight cells, the published repetitions, and each cell's
trial log, made once per process (a TrialLog is immutable)."""

from dataclasses import replace
from functools import lru_cache

from fitts3d import build_grid, generate_cell, generate_trials, paper_scale_defaults

CELLS = tuple((e, i) for e in ("e1", "e2", "e3", "e4")
              for i in ("pointing", "manipulation"))
# 4 800 trials a cell; test_synth holds it equal to perfbench/run.py's
PUBLISHED_REPS = {"e1": 100, "e2": 100, "e3": 100, "e4": 75}


@lru_cache(maxsize=None)
def cell_log(experiment, interaction, repetitions=None, seed=0):
    """A cell's log under the planted paper-scale model at seed: its
    paper grid's, or with the repetitions given."""
    if repetitions is None:
        return generate_cell(experiment, interaction, seed=seed)
    grid = replace(build_grid(experiment, interaction), repetitions=repetitions)
    truth = replace(paper_scale_defaults(experiment, interaction), seed=seed)
    return generate_trials(grid, truth, interaction)
