"""Task domain model: trial conditions, poses, target geometry and the
binary success classifiers.

Conventions used throughout the package:

* lengths in centimetres, angles in degrees, times in seconds;
* the coordinate frame is right-handed with the first axis pointing
  forward (viewing direction), the second axis up and the third axis to
  the right;
* object rotations are stored per axis in degrees, wrapped to
  (-180, 180].

CONDITION_FIELDS is the one order of a condition's seven fields: the
TaskSpec fields, the synth grid's loop order and the trial log's
condition columns all follow it. It lives in fitts3d.constants with the
Experiment and InteractionKind enums, the two timeouts and
STEPWISE_CANDIDATES, so the CLI parser can offer them without importing
this module.

wrap_angle_deg, symmetry_reduced_delta_deg, ROTATION_SYMMETRY_DEG and
the W/2 and omega tests the classifiers apply live in fitts3d.poses,
which classifies pose files by column without building a Pose.
"""

import math
from dataclasses import dataclass

from .constants import CONDITION_FIELDS, STEPWISE_CANDIDATES, InteractionKind
from .poses import rotation_ok, translation_ok, wrap_angle_deg

MIN_MT_S = 0.05


@dataclass(frozen=True)
class Pose:
    """Position (cm) and per-axis rotation (degrees) of a rigid object.

    Rotations are normalised to (-180, 180] on construction.
    """

    position: tuple[float, float, float]
    rotation: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        pos = tuple(float(v) for v in self.position)
        rot = tuple(wrap_angle_deg(float(v)) for v in self.rotation)
        if len(pos) != 3 or len(rot) != 3:
            raise ValueError("Pose needs 3 position and 3 rotation components")
        if not all(math.isfinite(v) for v in pos + rot):
            raise ValueError("Pose components must be finite")
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "rotation", rot)


@dataclass(frozen=True)
class TaskSpec:
    """One experimental condition.

    F : cube side of the manipulated object, cm (> 0)
    W : cube side of the target, cm (> 0)
    A : centre-to-centre target distance, cm (>= 0)
    phi : direction angle in the horizontal plane, degrees in [0, 360)
    theta : inclination angle above the horizontal plane, degrees in [0, 90]
    alpha : required rotation about each axis, degrees (>= 0)
    omega : rotational tolerance per axis, degrees (>= 0)
    """

    F: float
    W: float
    A: float
    phi: float = 0.0
    theta: float = 0.0
    alpha: float = 0.0
    omega: float = 0.0
    interaction: InteractionKind = InteractionKind.POINTING

    def __post_init__(self):
        for name in CONDITION_FIELDS:
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, v)
        if self.F <= 0 or self.W <= 0:
            raise ValueError("F and W must be positive")
        if self.A < 0 or self.alpha < 0 or self.omega < 0:
            raise ValueError("A, alpha and omega must be nonnegative")
        if not 0.0 <= self.phi < 360.0:
            raise ValueError("phi must lie in [0, 360)")
        if not 0.0 <= self.theta <= 90.0:
            raise ValueError("theta must lie in [0, 90]")
        object.__setattr__(self, "interaction", InteractionKind(self.interaction))


def check_candidates(names) -> tuple:
    """names as a tuple; raises ValueError unless they are nonempty,
    distinct and each one of STEPWISE_CANDIDATES."""
    names = tuple(names)
    if not names:
        raise ValueError("no candidate variables given")
    if len(set(names)) != len(names):
        dupes = sorted({str(n) for n in names if names.count(n) > 1})
        raise ValueError(f"duplicate candidate names: {', '.join(dupes)}")
    unknown = [str(n) for n in names if n not in STEPWISE_CANDIDATES]
    if unknown:
        raise ValueError(f"unknown candidates: {', '.join(unknown)}; "
                         f"choose from {', '.join(STEPWISE_CANDIDATES)}")
    return names


@dataclass(frozen=True)
class Trial:
    """One observed movement: the condition, the time and the outcome.

    Successful trials always finish within the interaction timeout;
    error trials are recorded at the timeout by the synthesizer.
    """

    task: TaskSpec
    mt: float
    success: bool

    def __post_init__(self):
        mt = float(self.mt)
        if not math.isfinite(mt) or mt <= 0:
            raise ValueError("mt must be positive and finite")
        if self.success and mt > self.task.interaction.timeout_s:
            raise ValueError("successful trials cannot exceed the timeout")
        object.__setattr__(self, "mt", mt)
        object.__setattr__(self, "success", bool(self.success))


def classify_translation(obj: Pose, target: Pose, W: float) -> bool:
    """Positional success: the object centre lies within W/2 of the
    target centre (at least 50 percent overlap). Boundary counts."""
    if W <= 0:
        raise ValueError("W must be positive")
    return translation_ok(obj.position, target.position, W)


def classify_rotation(obj: Pose, target: Pose, omega: float) -> bool:
    """Rotational success: on every axis the symmetry-reduced angular
    difference is within omega. Boundary counts."""
    if omega < 0:
        raise ValueError("omega must be nonnegative")
    return rotation_ok(obj.rotation, target.rotation, omega)


def classify_combined(obj: Pose, target: Pose, W: float, omega: float) -> bool:
    """Combined success: positional and rotational criteria both hold."""
    return classify_translation(obj, target, W) and classify_rotation(obj, target, omega)
