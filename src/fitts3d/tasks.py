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

_Record, the base of every record here and in trial_io, metrics and
regression, behaves as a frozen dataclass without importing dataclasses
(and inspect), which the verbs that fit therefore never load.
"""

import math
from operator import attrgetter

from .constants import CONDITION_FIELDS, STEPWISE_CANDIDATES, InteractionKind
from .poses import rotation_ok, translation_ok, wrap_angle_deg

MIN_MT_S = 0.05


class _Record:
    """An immutable record of the two or more fields named in _fields, in
    __init__ parameter order; a subclass's __init__ checks its arguments
    and stores them with _set. Records compare (same class only), hash
    and repr by their fields (the tuple _values) as a frozen dataclass
    does, and _replace(**changes) builds a new record through __init__,
    so its checks run again."""

    _fields = ()

    def __init_subclass__(cls):
        cls._values = property(attrgetter(*cls._fields))

    def _set(self, *values):
        # object.__setattr__ keeps the values inline; filling __dict__
        # would make each later attribute read several times slower
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _replace(self, **changes):
        return type(self)(**dict(zip(self._fields, self._values), **changes))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self._fields, self._values))
        return f"{type(self).__qualname__}({fields})"


class Pose(_Record):
    """Position (cm) and per-axis rotation (degrees) of a rigid object.

    Rotations are normalised to (-180, 180] on construction.
    """

    _fields = ("position", "rotation")

    def __init__(self, position: tuple[float, float, float],
                 rotation: tuple[float, float, float] = (0.0, 0.0, 0.0)):
        pos = tuple(float(v) for v in position)
        rot = tuple(wrap_angle_deg(float(v)) for v in rotation)
        if len(pos) != 3 or len(rot) != 3:
            raise ValueError("Pose needs 3 position and 3 rotation components")
        if not all(math.isfinite(v) for v in pos + rot):
            raise ValueError("Pose components must be finite")
        self._set(pos, rot)


class TaskSpec(_Record):
    """One experimental condition.

    F : cube side of the manipulated object, cm (> 0)
    W : cube side of the target, cm (> 0)
    A : centre-to-centre target distance, cm (>= 0)
    phi : direction angle in the horizontal plane, degrees in [0, 360)
    theta : inclination angle above the horizontal plane, degrees in [0, 90]
    alpha : required rotation about each axis, degrees (>= 0)
    omega : rotational tolerance per axis, degrees (>= 0)
    """

    _fields = (*CONDITION_FIELDS, "interaction")

    def __init__(self, F: float, W: float, A: float, phi: float = 0.0,
                 theta: float = 0.0, alpha: float = 0.0, omega: float = 0.0,
                 interaction: InteractionKind = InteractionKind.POINTING):
        values = []
        for name, v in zip(CONDITION_FIELDS, (F, W, A, phi, theta, alpha, omega)):
            v = float(v)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite")
            values.append(v)
        F, W, A, phi, theta, alpha, omega = values
        if F <= 0 or W <= 0:
            raise ValueError("F and W must be positive")
        if A < 0 or alpha < 0 or omega < 0:
            raise ValueError("A, alpha and omega must be nonnegative")
        if not 0.0 <= phi < 360.0:
            raise ValueError("phi must lie in [0, 360)")
        if not 0.0 <= theta <= 90.0:
            raise ValueError("theta must lie in [0, 90]")
        self._set(*values, InteractionKind(interaction))


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


class Trial(_Record):
    """One observed movement: the condition, the time and the outcome.

    Successful trials always finish within the interaction timeout;
    error trials are recorded at the timeout by the synthesizer.
    """

    _fields = ("task", "mt", "success")

    def __init__(self, task: TaskSpec, mt: float, success: bool):
        mt = float(mt)
        if not math.isfinite(mt) or mt <= 0:
            raise ValueError("mt must be positive and finite")
        if success and mt > task.interaction.timeout_s:
            raise ValueError("successful trials cannot exceed the timeout")
        self._set(task, mt, bool(success))


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
