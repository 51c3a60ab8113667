"""Movement-time models for 3D pointing and manipulation tasks.

The package covers the full loop from task definition to model ranking:
difficulty indices for seven candidate models (tasks/metrics), binary
success classification of pose pairs (tasks), factorial task grids and
a seeded synthetic trial generator (synth), least-squares fitting with
partial F tests and stepwise selection (regression), and CSV / report
IO with a command line front end (trial_io, report, cli).

Only the regression names need numpy. They are looked up in their
module on first use (PEP 562), so a process that fits nothing, such as
the generate, classify and report verbs, never loads numpy.
"""

import importlib

from .errors import (ConvergenceError, DomainError, EmptyCondition,
                     Fitts3dError, InsufficientData, InvalidNesting,
                     InvalidTruth, ParseError, RankDeficient, SchemaError)
from .tasks import (MANIPULATION_TIMEOUT_S, MIN_MT_S, POINTING_TIMEOUT_S,
                    InteractionKind, Pose, TaskSpec, Trial, classify_combined,
                    classify_rotation, classify_translation,
                    symmetry_reduced_delta_deg, wrap_angle_deg)
from .metrics import (MODEL_ORDER, ModelKind, id_fitts, id_hoffmann,
                      id_r_final, id_rot_adapted, id_shannon, id_t_final,
                      id_welford, predictor_names, predictors_cha_myung,
                      predictors_for, predictors_murata, task_regime)
from .special import f_cdf, f_sf, regularized_incomplete_beta
from .rng import Xoshiro256StarStar, derive_stream_seed, lockstep_uniforms
from .synth import (GRID_LEVELS, GRID_REPETITIONS, PAPER_ERROR_RATE,
                    PAPER_MEAN_MT, Experiment, ExperimentGrid, GroundTruth,
                    build_grid, generate_trials, paper_scale_defaults,
                    predict_mt)
from .trial_io import (POSE_CSV_HEADER, TRIAL_CSV_HEADER, TrialLog,
                       read_poses, read_trials, write_trials)
from .report import (build_comparison_report, format_equation,
                     render_comparison, render_document, render_stepwise,
                     stepwise_document)

__version__ = "0.1.0"

# exported name -> the module it is looked up in on first use
_LAZY_EXPORTS = {name: "regression" for name in (
    "ComparisonRow", "ConditionTable", "DesignMatrix", "ModelFit",
    "StepwiseReport", "StepwiseStep", "compare_models", "condition_matrix",
    "fit_model", "ols_fit", "partial_f_test", "stepwise")}


def __getattr__(name):
    module = _LAZY_EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *_LAZY_EXPORTS})
