"""Indices of difficulty for seven movement-time models and the
per-model regressors used by the regression layer.

An index is a float in bits; a model's regressors for one condition are
a dict of name -> value, keyed in predictor_names order. Every index is
the Fitts, Welford or Shannon form at substituted arguments (A, W, F in
cm; alpha, omega in degrees), and each form is evaluated in one
function, which rejects a non-finite result:

    Fitts     log2(2A / W)          Hoffmann    Fitts at (A, W + F)
    Welford   log2(A / W + 0.5)     final ID_t  Shannon at (2A, W + F)
    Shannon   log2(A / W + 1)       final ID_r  Shannon at (2 alpha, omega^2)

A prior model's rotational adaptation is its base form at (alpha,
omega): Fitts for Fitts, Hoffmann and Cha-Myung (Hoffmann's finger span
F has no rotational analogue), Welford for Welford, Shannon for Shannon
and Murata-Iwase. Negative indices (possible when the tolerance exceeds
the amplitude) are returned as-is, never clamped. _MODELS is the one
table of models and the one place to add a model.
"""

import math
from enum import Enum

from .errors import DomainError
from .tasks import TaskSpec, _Record

TRANSLATION = "translation"
ROTATION = "rotation"
COMBINED = "combined"


class ModelKind(Enum):
    """The seven candidate models, in canonical declaration order."""

    FITTS = "fitts"
    HOFFMANN = "hoffmann"
    WELFORD = "welford"
    SHANNON = "shannon"
    MURATA_IWASE = "murata-iwase"
    CHA_MYUNG = "cha-myung"
    FINAL = "final"


MODEL_ORDER = tuple(ModelKind)


def predictor_names(kind: ModelKind) -> tuple[str, ...]:
    """Names of the regressors the model fits (intercept excluded)."""
    return _MODELS[ModelKind(kind)].names


def _sin_deg(angle: float) -> float:
    return math.sin(math.radians(angle))


def _finite(bits: float) -> float:
    if not math.isfinite(bits):
        raise DomainError("difficulty index is not finite")
    return bits


def _fitts_bits(A: float, W: float, what: str) -> float:
    """The Fitts form log2(2A / W); what names the index in errors."""
    x = 2.0 * A / W
    if x <= 0:
        raise DomainError(f"{what} requires a positive log argument, got {x}")
    return _finite(math.log2(x))


def id_fitts(A: float, W: float) -> float:
    """log2(2A / W). Requires A > 0 and W > 0; negative when A < W/2."""
    if A <= 0 or W <= 0:
        raise DomainError("id_fitts needs A > 0 and W > 0")
    return _fitts_bits(A, W, "id_fitts")


def id_hoffmann(A: float, W: float, F: float) -> float:
    """log2(2A / (W + F)), Fitts at width W + F. Needs A > 0, W + F > 0."""
    if A <= 0 or W + F <= 0:
        raise DomainError("id_hoffmann needs A > 0 and W + F > 0")
    return _fitts_bits(A, W + F, "id_hoffmann")


def id_welford(A: float, W: float) -> float:
    """log2(A / W + 0.5). Requires A >= 0 and W > 0."""
    if A < 0 or W <= 0:
        raise DomainError("id_welford needs A >= 0 and W > 0")
    return _finite(math.log2(A / W + 0.5))


def id_shannon(A: float, W: float) -> float:
    """log2(A / W + 1). Requires A >= 0 and W > 0; zero at A = 0."""
    if A < 0 or W <= 0:
        raise DomainError("id_shannon needs A >= 0 and W > 0")
    return _finite(math.log2(A / W + 1.0))


def id_t_final(A: float, W: float, F: float) -> float:
    """log2(2A / (F + W) + 1), Shannon at (2A, W + F). Needs A >= 0, W + F > 0."""
    if A < 0 or W + F <= 0:
        raise DomainError("id_t_final needs A >= 0 and W + F > 0")
    return id_shannon(2.0 * A, W + F)


def id_r_final(alpha: float, omega: float) -> float:
    """log2(2 alpha / omega^2 + 1), Shannon at (2 alpha, omega^2).
    Requires alpha >= 0 and omega > 0; zero at alpha = 0. Halving omega
    adds roughly two bits once 2 alpha / omega^2 is large."""
    if alpha < 0 or omega <= 0:
        raise DomainError("id_r_final needs alpha >= 0 and omega > 0")
    if not omega * omega > 0:
        raise DomainError("id_r_final needs omega^2 > 0")
    return id_shannon(2.0 * alpha, omega * omega)


def task_regime(task: TaskSpec) -> str:
    """Which motion regime a condition exercises.

    No rotation requirement -> translation (even at A = 0); rotation
    with A = 0 -> rotation; otherwise combined.
    """
    if task.alpha == 0 and task.omega == 0:
        return TRANSLATION
    if task.A == 0:
        return ROTATION
    return COMBINED


def _one_index(task: TaskSpec, t: float, r: float) -> tuple[float, ...]:
    return (t + r,)


# One entry per model: regressor names, translational index of a task
# condition c, rotational base form (adapted by id_rot_adapted), and the
# regressor values from c and its translational and rotational bits t, r.
class _Model(_Record):
    _fields = ("names", "translation", "rotation", "values")

    def __init__(self, names: tuple[str, ...], translation, rotation,
                 values=_one_index):
        self._set(names, translation, rotation, values)


_MODELS = {
    ModelKind.FITTS: _Model(("id",), lambda c: id_fitts(c.A, c.W), id_fitts),
    ModelKind.HOFFMANN: _Model(
        ("id",), lambda c: id_hoffmann(c.A, c.W, c.F), id_fitts),
    ModelKind.WELFORD: _Model(("id",), lambda c: id_welford(c.A, c.W), id_welford),
    ModelKind.SHANNON: _Model(("id",), lambda c: id_shannon(c.A, c.W), id_shannon),
    ModelKind.MURATA_IWASE: _Model(
        ("id_shannon", "sin_phi"), lambda c: id_shannon(c.A, c.W), id_shannon,
        lambda c, t, r: (t + r, _sin_deg(c.phi))),
    ModelKind.CHA_MYUNG: _Model(
        ("theta1", "sin_theta2", "id_hoffmann"),
        lambda c: id_hoffmann(c.A, c.W, c.F), id_fitts,
        lambda c, t, r: (c.theta, _sin_deg(c.phi), t + r)),
    ModelKind.FINAL: _Model(
        ("id_t", "id_r"), lambda c: id_t_final(c.A, c.W, c.F), id_r_final,
        lambda c, t, r: (t, r)),
}


def id_rot_adapted(kind: ModelKind, alpha: float, omega: float) -> float:
    """Rotational difficulty under a model's adapted form: its base form
    at amplitude alpha and tolerance omega, or ID_r for the final model."""
    kind = ModelKind(kind)
    form = _MODELS[kind].rotation
    if form is id_r_final:
        return id_r_final(alpha, omega)
    if omega <= 0 or alpha < 0:
        raise DomainError("adapted rotational ID needs alpha >= 0 and omega > 0")
    if form is not id_fitts:
        return form(alpha, omega)
    # the Fitts form is evaluated here so that its errors name the model
    what = f"{kind.value} adapted form"
    if alpha <= 0:
        raise DomainError(f"{what} needs alpha > 0")
    return _fitts_bits(alpha, omega, what)


def predictors_murata(A: float, W: float, phi: float) -> dict[str, float]:
    """Murata-Iwase regressors for a translational task: the Shannon
    index plus the sine of the direction angle."""
    return dict(zip(predictor_names(ModelKind.MURATA_IWASE),
                    (id_shannon(A, W), _sin_deg(phi))))


def predictors_cha_myung(A: float, W: float, F: float,
                         theta1: float, theta2: float) -> dict[str, float]:
    """Cha-Myung regressors: inclination angle in raw degrees, sine of
    the direction angle, and the Hoffmann index."""
    return dict(zip(predictor_names(ModelKind.CHA_MYUNG),
                    (float(theta1), _sin_deg(theta2), id_hoffmann(A, W, F))))


def predictors_for(kind: ModelKind, task: TaskSpec) -> dict[str, float]:
    """Regressors a model uses for one task condition, name -> value.

    Raises DomainError when the model cannot express the condition,
    e.g. Fitts on a purely translational task with A = 0.
    """
    kind = ModelKind(kind)
    model = _MODELS[kind]
    regime = task_regime(task)
    t = 0.0 if regime == ROTATION else model.translation(task)
    r = 0.0 if regime == TRANSLATION else id_rot_adapted(kind, task.alpha, task.omega)
    return dict(zip(model.names, model.values(task, t, r)))
