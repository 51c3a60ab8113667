"""Movement-time models for 3D pointing and manipulation tasks.

The package covers the full loop from task definition to model ranking:
difficulty indices for seven candidate models (tasks/metrics), binary
success classification of pose pairs (tasks, and of whole pose files by
column in poses), factorial task grids and a seeded synthetic trial
generator (synth), least-squares fitting with partial F tests and
stepwise selection (regression), and CSV / report IO with a command
line front end (trial_io, report, cli).

Every exported name is looked up in its module on first use (PEP 562),
through the one table _LAZY_EXPORTS, and so is each of those modules,
so `import fitts3d` loads no other fitts3d module. A process loads only
the modules it uses: the report verb never loads tasks or synth, and a
process that fits nothing never loads numpy. __all__ is the table's
names, so `from fitts3d import *` binds every one of them.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the module it is looked up in on first use
_LAZY_EXPORTS = {name: module for module, names in {
    "errors": (
        "ConvergenceError", "DomainError", "EmptyCondition", "Fitts3dError",
        "InsufficientData", "InvalidNesting", "InvalidTruth", "ParseError",
        "RankDeficient", "SchemaError"),
    "constants": (
        "MANIPULATION_TIMEOUT_S", "POINTING_TIMEOUT_S", "Experiment",
        "InteractionKind"),
    "tasks": (
        "MIN_MT_S", "Pose", "TaskSpec", "Trial",
        "classify_combined", "classify_rotation", "classify_translation"),
    "poses": ("POSE_CSV_HEADER", "symmetry_reduced_delta_deg", "wrap_angle_deg"),
    "metrics": (
        "MODEL_ORDER", "ModelKind", "id_fitts", "id_hoffmann", "id_r_final",
        "id_rot_adapted", "id_shannon", "id_t_final", "id_welford",
        "predictor_names", "predictors_cha_myung", "predictors_for",
        "predictors_murata", "task_regime"),
    "special": ("f_cdf", "f_sf", "regularized_incomplete_beta"),
    "rng": ("Xoshiro256StarStar", "derive_stream_seed", "lockstep_uniforms"),
    "synth": (
        "GRID_LEVELS", "GRID_REPETITIONS", "PAPER_ERROR_RATE", "PAPER_MEAN_MT",
        "ExperimentGrid", "GroundTruth", "build_grid", "generate_trials",
        "paper_scale_defaults", "predict_mt"),
    "trial_io": (
        "TRIAL_CSV_HEADER", "TrialLog", "read_poses",
        "read_trials", "write_trials"),
    "report": (
        "build_comparison_report", "format_equation", "render_comparison",
        "render_document", "render_stepwise", "stepwise_document"),
    "regression": (
        "ComparisonRow", "ConditionTable", "DesignMatrix", "ModelFit",
        "StepwiseReport", "StepwiseStep", "compare_models", "condition_matrix",
        "fit_model", "ols_fit", "partial_f_test", "stepwise"),
}.items() for name in names}

__all__ = list(_LAZY_EXPORTS)


def __getattr__(name):
    module = _LAZY_EXPORTS.get(name)
    if module is not None:
        return getattr(importlib.import_module(f".{module}", __name__), name)
    if name in _LAZY_EXPORTS.values():  # a submodule not yet imported
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAZY_EXPORTS, *_LAZY_EXPORTS.values()})
