"""Experimental task grids and the seeded synthetic trial generator.

The four grids reproduce the published factorial designs exactly:

    E1  pure translation    F{3,4,5} x W{5,7.5,10,12.5} x A{12,24,36,48},
                            phi=90, theta=0            -> 48 conditions x 5
    E2  direction/elevation F=5, W{5,10}, A{12,24},
                            phi{0,90,180,270}, theta{15,30,45}
                                                       -> 48 conditions x 5
    E3  pure rotation       F{4,5}, W{5,10}, A=0,
                            alpha{15,30,45}, omega{2.5,5,7.5,10}
                                                       -> 48 conditions x 5
    E4  combined            F=4, W{4,8}, A{12,24}, phi{0,90},
                            theta{15,30}, alpha{30,45}, omega{7.5,15}
                                                       -> 64 conditions x 4

Conditions are the product of each field's levels in CONDITION_FIELDS
order (F, W, A, phi, theta, alpha, omega, slowest to fastest), which
fixes the condition index used for per-condition random substreams.

generate_trials returns a block as a TrialLog, the columns read_trials
returns for the same log, and builds no Trial per row. generate_cell is
the recipe for one paper cell: the experiment's grid, generated under
paper_scale_defaults with the seed, noise and error rate given.
"""

import math
from dataclasses import dataclass, replace
from itertools import product

from .constants import CONDITION_FIELDS, Experiment, InteractionKind
from .errors import InvalidTruth
from .metrics import ModelKind, predictor_names, predictors_for
from .rng import box_muller, derive_stream_seed, lockstep_uniforms
from .tasks import MIN_MT_S, TaskSpec
from .trial_io import TrialLog


GRID_LEVELS: dict[Experiment, dict[str, tuple[float, ...]]] = {
    Experiment.E1: {
        "F": (3.0, 4.0, 5.0),
        "W": (5.0, 7.5, 10.0, 12.5),
        "A": (12.0, 24.0, 36.0, 48.0),
        "phi": (90.0,),
        "theta": (0.0,),
        "alpha": (0.0,),
        "omega": (0.0,),
    },
    Experiment.E2: {
        "F": (5.0,),
        "W": (5.0, 10.0),
        "A": (12.0, 24.0),
        "phi": (0.0, 90.0, 180.0, 270.0),
        "theta": (15.0, 30.0, 45.0),
        "alpha": (0.0,),
        "omega": (0.0,),
    },
    Experiment.E3: {
        "F": (4.0, 5.0),
        "W": (5.0, 10.0),
        "A": (0.0,),
        "phi": (0.0,),
        "theta": (0.0,),
        "alpha": (15.0, 30.0, 45.0),
        "omega": (2.5, 5.0, 7.5, 10.0),
    },
    Experiment.E4: {
        "F": (4.0,),
        "W": (4.0, 8.0),
        "A": (12.0, 24.0),
        "phi": (0.0, 90.0),
        "theta": (15.0, 30.0),
        "alpha": (30.0, 45.0),
        "omega": (7.5, 15.0),
    },
}

GRID_REPETITIONS: dict[Experiment, int] = {
    Experiment.E1: 5,
    Experiment.E2: 5,
    Experiment.E3: 5,
    Experiment.E4: 4,
}

# published mean movement times (s) per experiment and interaction
PAPER_MEAN_MT: dict[tuple[Experiment, InteractionKind], float] = {
    (Experiment.E1, InteractionKind.POINTING): 1.63,
    (Experiment.E1, InteractionKind.MANIPULATION): 2.13,
    (Experiment.E2, InteractionKind.POINTING): 1.47,
    (Experiment.E2, InteractionKind.MANIPULATION): 2.11,
    (Experiment.E3, InteractionKind.POINTING): 3.37,
    (Experiment.E3, InteractionKind.MANIPULATION): 2.79,
    (Experiment.E4, InteractionKind.POINTING): 2.71,
    (Experiment.E4, InteractionKind.MANIPULATION): 3.10,
}

# published error-trial counts out of 4800 trials per cell
PAPER_ERROR_RATE: dict[tuple[Experiment, InteractionKind], float] = {
    (Experiment.E1, InteractionKind.POINTING): 4 / 4800,
    (Experiment.E1, InteractionKind.MANIPULATION): 44 / 4800,
    (Experiment.E2, InteractionKind.POINTING): 3 / 4800,
    (Experiment.E2, InteractionKind.MANIPULATION): 60 / 4800,
    (Experiment.E3, InteractionKind.POINTING): 225 / 4800,
    (Experiment.E3, InteractionKind.MANIPULATION): 64 / 4800,
    (Experiment.E4, InteractionKind.POINTING): 120 / 4800,
    (Experiment.E4, InteractionKind.MANIPULATION): 82 / 4800,
}

DEFAULT_NOISE_SD = 0.2
DEFAULT_INTERCEPT = {
    InteractionKind.POINTING: 0.4,
    InteractionKind.MANIPULATION: 0.6,
}

# share of the above-intercept time budget assigned to rotation when a
# grid exercises both regimes; rotation dominates combined-task time
_ROTATION_BUDGET_SHARE = 2.0 / 3.0


@dataclass(frozen=True)
class ExperimentGrid:
    experiment: Experiment
    variations: tuple[TaskSpec, ...]
    repetitions: int

    def __post_init__(self):
        if (isinstance(self.repetitions, bool) or not isinstance(self.repetitions, int)
                or self.repetitions < 1):
            raise ValueError("repetitions must be a positive integer")


def build_grid(experiment: Experiment,
               interaction: InteractionKind = InteractionKind.POINTING) -> ExperimentGrid:
    """All conditions of one experiment, in canonical order."""
    experiment = Experiment(experiment)
    interaction = InteractionKind(interaction)
    levels = GRID_LEVELS[experiment]
    variations = tuple(
        TaskSpec(*values, interaction=interaction)
        for values in product(*(levels[f] for f in CONDITION_FIELDS)))
    return ExperimentGrid(experiment, variations, GRID_REPETITIONS[experiment])


@dataclass(frozen=True)
class GroundTruth:
    """A planted movement-time model.

    coefficients must hold "intercept" plus one entry per predictor of
    the chosen model kind. noise_sd is the per-trial Gaussian spread in
    seconds; error_rate the per-trial probability of an error trial.
    seed, an int in [0, 2**64), is the master seed of the per-condition
    streams.
    """

    kind: ModelKind
    coefficients: dict[str, float]
    noise_sd: float = 0.0
    error_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "kind", ModelKind(self.kind))
        if not 0.0 <= self.noise_sd < math.inf:
            raise InvalidTruth("noise_sd must be nonnegative and finite")
        if not 0.0 <= self.error_rate < 1.0:
            raise InvalidTruth("error_rate must lie in [0, 1)")
        if (isinstance(self.seed, bool) or not isinstance(self.seed, int)
                or not 0 <= self.seed < 2**64):
            raise InvalidTruth("seed must be an integer in [0, 2**64)")
        needed = ("intercept",) + predictor_names(self.kind)
        missing = [n for n in needed if n not in self.coefficients]
        if missing:
            raise InvalidTruth(f"missing coefficients: {missing}")


def predict_mt(truth: GroundTruth, task: TaskSpec) -> float:
    """Noise-free movement time the planted model assigns a condition."""
    mt = truth.coefficients["intercept"]
    for name, value in predictors_for(truth.kind, task).items():
        mt += truth.coefficients[name] * value
    return mt


def generate_trials(grid: ExperimentGrid, truth: GroundTruth,
                    interaction: InteractionKind) -> TrialLog:
    """Synthesize one full block of trials for a grid, as a TrialLog.

    Every condition gets its own random substream derived from
    truth.seed and the condition index, so the output is reproducible
    trial for trial; lockstep_uniforms draws all of them together. Per
    repetition the stream yields first the noise deviate z (two
    uniforms), then the error-decision uniform u; movement time is
    max(prediction + noise_sd * z, 0.05 s). Error trials (u below
    error_rate, or a draw at/over the interaction timeout) are recorded
    at the timeout with success = 0. The log's tasks are the grid's
    conditions, each followed by its repetitions.

    Raises InvalidTruth when the planted model predicts a nonpositive
    or NaN movement time anywhere on the grid.
    """
    interaction = InteractionKind(interaction)
    timeout = interaction.timeout_s
    tasks = tuple(task._replace(interaction=interaction) for task in grid.variations)
    # plain floats, so the log holds (and writes) Python floats even when
    # the truth holds numpy scalars
    predictions = [float(predict_mt(truth, task)) for task in tasks]
    bad = [i for i, p in enumerate(predictions) if not p > 0]
    if bad:
        raise InvalidTruth(
            f"planted model predicts nonpositive movement time for "
            f"condition index {bad[0]}: {predictions[bad[0]]:.4f} s")
    seeds = [derive_stream_seed(truth.seed, ci) for ci in range(len(tasks))]
    # one column of 3 * repetitions uniforms per condition
    columns = zip(*lockstep_uniforms(seeds, 3 * grid.repetitions))
    noise_sd, error_rate = float(truth.noise_sd), truth.error_rate
    mts, successes = [], []
    for pred, column in zip(predictions, columns):
        draws = iter(column)
        for u1, u2, u in zip(draws, draws, draws):
            mt = max(pred + noise_sd * box_muller(u1, u2), MIN_MT_S)
            success = not (u < error_rate or mt >= timeout)
            mts.append(mt if success else timeout)
            successes.append(success)
    task_index = tuple(k for k in range(len(tasks)) for _ in range(grid.repetitions))
    return TrialLog(tasks, task_index, tuple(mts), tuple(successes))


def paper_scale_defaults(experiment: Experiment,
                         interaction: InteractionKind) -> GroundTruth:
    """Planted two-index model whose grid-mean prediction matches the
    published mean movement time of the experiment.

    The intercept is 0.4 s for pointing and 0.6 s for manipulation; the
    remaining time budget is split one third to the translational index
    and two thirds to the rotational index when the grid exercises
    both, and assigned wholly to whichever is present otherwise.
    """
    experiment = Experiment(experiment)
    interaction = InteractionKind(interaction)
    grid = build_grid(experiment, interaction)
    vecs = [predictors_for(ModelKind.FINAL, task) for task in grid.variations]
    n = len(vecs)
    mean_idt = math.fsum(v["id_t"] for v in vecs) / n
    mean_idr = math.fsum(v["id_r"] for v in vecs) / n
    a = DEFAULT_INTERCEPT[interaction]
    budget = PAPER_MEAN_MT[(experiment, interaction)] - a
    eps = 1e-12
    if mean_idt > eps and mean_idr > eps:
        c = (1.0 - _ROTATION_BUDGET_SHARE) * budget / mean_idt
        d = _ROTATION_BUDGET_SHARE * budget / mean_idr
    elif mean_idt > eps:
        c, d = budget / mean_idt, 0.0
    elif mean_idr > eps:
        c, d = 0.0, budget / mean_idr
    else:
        raise InvalidTruth("grid has neither translational nor rotational demand")
    return GroundTruth(
        kind=ModelKind.FINAL,
        coefficients={"intercept": a, "id_t": c, "id_r": d},
        noise_sd=DEFAULT_NOISE_SD,
        error_rate=PAPER_ERROR_RATE[(experiment, interaction)],
        seed=0)


def generate_cell(experiment: Experiment, interaction: InteractionKind, *,
                  seed: int = 0, noise_sd: float | None = None,
                  error_rate: float | None = None) -> TrialLog:
    """One paper cell: generate_trials on the experiment's grid under
    paper_scale_defaults, with seed and, unless None, noise_sd and
    error_rate in place of its values; InvalidTruth on an invalid one."""
    truth = paper_scale_defaults(experiment, interaction)
    truth = replace(
        truth, seed=seed,
        noise_sd=truth.noise_sd if noise_sd is None else noise_sd,
        error_rate=truth.error_rate if error_rate is None else error_rate)
    return generate_trials(build_grid(experiment, interaction), truth, interaction)
