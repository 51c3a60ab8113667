import math

import numpy as np
import pytest

from fitts3d import (InteractionKind, Pose, TaskSpec, Trial, classify_combined,
                     classify_rotation, classify_translation,
                     symmetry_reduced_delta_deg, wrap_angle_deg)
from fitts3d.constants import CONDITION_FIELDS, STEPWISE_CANDIDATES


def test_condition_fields_are_task_spec_field_order():
    # build_grid and read_trials pass a condition's values positionally
    assert TaskSpec._fields == (*CONDITION_FIELDS, "interaction")
    assert STEPWISE_CANDIDATES is CONDITION_FIELDS


def test_timeouts():
    assert InteractionKind.POINTING.timeout_s == 15.0
    assert InteractionKind.MANIPULATION.timeout_s == 20.0


def test_wrap_angle():
    assert wrap_angle_deg(0.0) == 0.0
    assert wrap_angle_deg(180.0) == 180.0
    assert wrap_angle_deg(-180.0) == 180.0
    assert wrap_angle_deg(540.0) == 180.0
    assert wrap_angle_deg(190.0) == -170.0
    assert wrap_angle_deg(-190.0) == 170.0
    assert wrap_angle_deg(720.0) == 0.0


def test_pose_normalises_rotation():
    p = Pose((1, 2, 3), (540.0, -190.0, 180.0))
    assert p.rotation == (180.0, 170.0, 180.0)
    with pytest.raises(ValueError):
        Pose((0, 0), (0, 0, 0))
    with pytest.raises(ValueError):
        Pose((0, 0, math.nan))


def test_task_spec_validation():
    t = TaskSpec(F=3, W=5, A=12, phi=90)
    assert t.interaction is InteractionKind.POINTING
    with pytest.raises(ValueError):
        TaskSpec(F=0, W=5, A=12)
    with pytest.raises(ValueError):
        TaskSpec(F=3, W=-1, A=12)
    with pytest.raises(ValueError):
        TaskSpec(F=3, W=5, A=-2)
    with pytest.raises(ValueError):
        TaskSpec(F=3, W=5, A=12, phi=360)
    with pytest.raises(ValueError):
        TaskSpec(F=3, W=5, A=12, theta=91)
    with pytest.raises(ValueError):
        TaskSpec(F=3, W=5, A=12, alpha=-1)
    with pytest.raises(ValueError, match="^omega must be finite$"):
        TaskSpec(F=3, W=5, A=12, omega=math.nan)


def test_trial_validation():
    task = TaskSpec(F=3, W=5, A=12)
    Trial(task, 14.99, True)
    Trial(task, 15.0, True)  # boundary allowed
    Trial(task, 19.0, False)  # errors may sit past the timeout
    with pytest.raises(ValueError):
        Trial(task, 15.01, True)
    with pytest.raises(ValueError):
        Trial(task, 0.0, True)
    with pytest.raises(ValueError):
        Trial(task, -1.0, False)
    # manipulation timeout is longer
    mtask = TaskSpec(F=3, W=5, A=12, interaction=InteractionKind.MANIPULATION)
    Trial(mtask, 19.5, True)


def test_classify_translation_boundary():
    obj = Pose((0, 0, 0))
    # 50 percent overlap: separation exactly W/2 still counts
    assert classify_translation(obj, Pose((2.5, 0, 0)), 5.0)
    assert not classify_translation(obj, Pose((2.5000001, 0, 0)), 5.0)
    assert classify_translation(obj, Pose((0, 0, 0)), 5.0)
    with pytest.raises(ValueError, match="^W must be positive$"):
        classify_translation(obj, obj, 0.0)


def test_classify_rotation_symmetry():
    obj = Pose((0, 0, 0), (0, 0, 0))
    # 89 degrees off is 1 degree from the next symmetric orientation
    assert classify_rotation(obj, Pose((0, 0, 0), (89, 0, 0)), 2.5)
    assert classify_rotation(obj, Pose((0, 0, 0), (180, 90, 270)), 0.0)
    assert not classify_rotation(obj, Pose((0, 0, 0), (44, 0, 0)), 2.5)
    # boundary inclusive
    assert classify_rotation(obj, Pose((0, 0, 0), (2.5, 0, 0)), 2.5)
    # every axis must pass
    assert not classify_rotation(obj, Pose((0, 0, 0), (1, 1, 50)), 2.5)
    with pytest.raises(ValueError, match="^omega must be nonnegative$"):
        classify_rotation(obj, obj, -0.5)


def test_symmetry_reduction_range():
    for raw in (-1000, -135, -90, -45, 0, 30, 45, 60, 90, 135, 180, 725):
        r = symmetry_reduced_delta_deg(raw)
        assert -45.0 <= r <= 45.0


def _oracle_rotation(obj, target, omega):
    # brute force: per axis, closest of the four symmetric orientations
    for o_i, t_i in zip(obj.rotation, target.rotation):
        best = min(abs(wrap_angle_deg(t_i + 90.0 * k - o_i)) for k in range(4))
        if best > omega:
            return False
    return True


def test_classify_rotation_matches_enumeration():
    rng = np.random.default_rng(42)
    for _ in range(2000):
        obj = Pose((0, 0, 0), tuple(rng.uniform(-720, 720, 3)))
        target = Pose((0, 0, 0), tuple(rng.uniform(-720, 720, 3)))
        omega = float(rng.uniform(0, 50))
        assert classify_rotation(obj, target, omega) == _oracle_rotation(obj, target, omega)


def test_classify_translation_invariance():
    # rigid translation of both poses never changes the outcome
    rng = np.random.default_rng(3)
    for _ in range(2000):
        o = rng.uniform(-30, 30, 3)
        t = rng.uniform(-30, 30, 3)
        shift = rng.uniform(-100, 100, 3)
        w = float(rng.uniform(0.5, 15))
        before = classify_translation(Pose(tuple(o)), Pose(tuple(t)), w)
        after = classify_translation(Pose(tuple(o + shift)), Pose(tuple(t + shift)), w)
        assert before == after


def test_classify_combined_is_conjunction():
    rng = np.random.default_rng(11)
    for _ in range(500):
        obj = Pose(tuple(rng.uniform(-10, 10, 3)), tuple(rng.uniform(-360, 360, 3)))
        target = Pose(tuple(rng.uniform(-10, 10, 3)), tuple(rng.uniform(-360, 360, 3)))
        w = float(rng.uniform(0.5, 20))
        omega = float(rng.uniform(0, 45))
        assert classify_combined(obj, target, w, omega) == (
            classify_translation(obj, target, w)
            and classify_rotation(obj, target, omega))
