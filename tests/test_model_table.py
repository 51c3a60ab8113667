"""The model table in fitts3d.metrics against a reference copy of the
per-model if-chain it replaced.

The reference below keeps its own formulas and branches, so it shares no
code with the table. For every model the table must give the same
predictor names and bit-identical values, or a DomainError with the same
message.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fitts3d import (MODEL_ORDER, DomainError, ModelKind, TaskSpec, id_fitts,
                     id_hoffmann, id_r_final, id_rot_adapted, id_shannon,
                     id_t_final, id_welford, predictors_cha_myung,
                     predictors_for, predictors_murata)

TRANSLATION, ROTATION = "translation", "rotation"


# --- reference if-chain -------------------------------------------------

def _ref_bits(x):
    bits = math.log2(x)
    if not math.isfinite(bits):
        raise DomainError("difficulty index is not finite")
    return bits


def _ref_log2_checked(x, what):
    if x <= 0:
        raise DomainError(f"{what} requires a positive log argument, got {x}")
    return _ref_bits(x)


def _ref_sin_deg(angle):
    return math.sin(math.radians(angle))


def ref_id_fitts(A, W):
    if A <= 0 or W <= 0:
        raise DomainError("id_fitts needs A > 0 and W > 0")
    return _ref_log2_checked(2.0 * A / W, "id_fitts")


def ref_id_hoffmann(A, W, F):
    if A <= 0 or W + F <= 0:
        raise DomainError("id_hoffmann needs A > 0 and W + F > 0")
    return _ref_log2_checked(2.0 * A / (W + F), "id_hoffmann")


def ref_id_welford(A, W):
    if A < 0 or W <= 0:
        raise DomainError("id_welford needs A >= 0 and W > 0")
    return _ref_bits(A / W + 0.5)


def ref_id_shannon(A, W):
    if A < 0 or W <= 0:
        raise DomainError("id_shannon needs A >= 0 and W > 0")
    return _ref_bits(A / W + 1.0)


def ref_id_t_final(A, W, F):
    if A < 0 or W + F <= 0:
        raise DomainError("id_t_final needs A >= 0 and W + F > 0")
    return _ref_bits(2.0 * A / (F + W) + 1.0)


def ref_id_r_final(alpha, omega):
    if alpha < 0 or omega <= 0:
        raise DomainError("id_r_final needs alpha >= 0 and omega > 0")
    return _ref_bits(2.0 * alpha / (omega * omega) + 1.0)


def ref_id_rot_adapted(kind, alpha, omega):
    kind = ModelKind(kind)
    if kind is ModelKind.FINAL:
        return ref_id_r_final(alpha, omega)
    if omega <= 0 or alpha < 0:
        raise DomainError("adapted rotational ID needs alpha >= 0 and omega > 0")
    if kind in (ModelKind.FITTS, ModelKind.HOFFMANN, ModelKind.CHA_MYUNG):
        if alpha <= 0:
            raise DomainError(f"{kind.value} adapted form needs alpha > 0")
        return _ref_log2_checked(2.0 * alpha / omega, f"{kind.value} adapted form")
    if kind is ModelKind.WELFORD:
        return _ref_bits(alpha / omega + 0.5)
    return _ref_bits(alpha / omega + 1.0)  # Shannon, Murata-Iwase


def _ref_regime(task):
    if task.alpha == 0 and task.omega == 0:
        return TRANSLATION
    if task.A == 0:
        return ROTATION
    return "combined"


def _ref_translation_bits(kind, task):
    if kind is ModelKind.FITTS:
        return ref_id_fitts(task.A, task.W)
    if kind in (ModelKind.HOFFMANN, ModelKind.CHA_MYUNG):
        return ref_id_hoffmann(task.A, task.W, task.F)
    if kind is ModelKind.WELFORD:
        return ref_id_welford(task.A, task.W)
    return ref_id_shannon(task.A, task.W)


def _ref_single_id_bits(kind, task):
    regime = _ref_regime(task)
    if regime == TRANSLATION:
        return _ref_translation_bits(kind, task)
    if regime == ROTATION:
        return ref_id_rot_adapted(kind, task.alpha, task.omega)
    return (_ref_translation_bits(kind, task)
            + ref_id_rot_adapted(kind, task.alpha, task.omega))


def ref_predictors_for(kind, task):
    kind = ModelKind(kind)
    if kind in (ModelKind.FITTS, ModelKind.HOFFMANN,
                ModelKind.WELFORD, ModelKind.SHANNON):
        return {"id": _ref_single_id_bits(kind, task)}
    if kind is ModelKind.MURATA_IWASE:
        return {"id_shannon": _ref_single_id_bits(kind, task),
                "sin_phi": _ref_sin_deg(task.phi)}
    if kind is ModelKind.CHA_MYUNG:
        return {"theta1": task.theta, "sin_theta2": _ref_sin_deg(task.phi),
                "id_hoffmann": _ref_single_id_bits(kind, task)}
    idt = ref_id_t_final(task.A, task.W, task.F)
    if _ref_regime(task) == TRANSLATION:
        idr = 0.0
    else:
        idr = ref_id_r_final(task.alpha, task.omega)
    return {"id_t": idt, "id_r": idr}


# --- comparison ------------------------------------------------------------

ZERO_DIVISION = ("ZeroDivisionError",)


def outcome(call):
    """Bit-exact result of a call: the hex of an index, the names and
    hex values of a regressor dict, or the DomainError message."""
    try:
        got = call()
    except DomainError as exc:
        return ("DomainError", str(exc))
    except ZeroDivisionError:
        return ZERO_DIVISION
    if isinstance(got, float):
        return got.hex()
    return tuple((name, value.hex()) for name, value in got.items())


def assert_same(call, ref_call):
    want = outcome(ref_call)
    got = outcome(call)
    if want == ZERO_DIVISION:
        # omega^2 underflows to zero: the reference divides by it,
        # ID_r rejects the zero width under its own name
        assert got == ("DomainError", "id_r_final needs omega^2 > 0")
    else:
        assert got == want


positive = st.floats(min_value=0.0, max_value=1e6, exclude_min=True)
nonnegative = st.one_of(st.just(0.0), positive)
anything = st.floats(min_value=-1e6, max_value=1e6)


@st.composite
def tasks(draw):
    """Valid TaskSpecs in every regime: translation (alpha = omega = 0),
    rotation (A = 0) and combined, with zero amplitudes and tolerances
    on either side of the amplitude."""
    rotating = draw(st.booleans())
    return TaskSpec(F=draw(positive), W=draw(positive), A=draw(nonnegative),
                    phi=draw(st.floats(0.0, 360.0, exclude_max=True)),
                    theta=draw(st.floats(0.0, 90.0)),
                    alpha=draw(nonnegative) if rotating else 0.0,
                    omega=draw(nonnegative) if rotating else 0.0)


@settings(max_examples=300, deadline=None)
@given(task=tasks())
@example(task=TaskSpec(F=3, W=5, A=12, phi=90))
@example(task=TaskSpec(F=3, W=5, A=0))                      # translation, A = 0
@example(task=TaskSpec(F=3, W=50, A=2, theta=30))           # W > A
@example(task=TaskSpec(F=4, W=5, A=0, alpha=30, omega=7.5))
@example(task=TaskSpec(F=4, W=5, A=0, alpha=0, omega=7.5))  # alpha = 0
@example(task=TaskSpec(F=4, W=5, A=10, alpha=0, omega=7.5))
@example(task=TaskSpec(F=4, W=5, A=0, alpha=30, omega=0))   # omega = 0
@example(task=TaskSpec(F=4, W=8, A=24, phi=10, theta=15, alpha=30, omega=7.5))
@example(task=TaskSpec(F=4, W=8, A=2, alpha=3, omega=45))   # omega > alpha
# 2 alpha / omega and omega^2 underflow to zero
@example(task=TaskSpec(F=4, W=8, A=2, alpha=5e-324, omega=3.0))
@example(task=TaskSpec(F=4, W=8, A=2, alpha=30, omega=1e-200))
def test_predictors_for_matches_reference(task):
    for kind in MODEL_ORDER:
        assert_same(lambda: predictors_for(kind, task),
                    lambda: ref_predictors_for(kind, task))


@settings(max_examples=300, deadline=None)
@given(alpha=anything, omega=anything)
@example(alpha=0.0, omega=5.0)
@example(alpha=30.0, omega=0.0)
@example(alpha=-1.0, omega=5.0)
@example(alpha=5e-324, omega=3.0)
@example(alpha=30.0, omega=1e-200)
def test_id_rot_adapted_matches_reference(alpha, omega):
    for kind in MODEL_ORDER:
        assert_same(lambda: id_rot_adapted(kind, alpha, omega),
                    lambda: ref_id_rot_adapted(kind, alpha, omega))


@settings(max_examples=300, deadline=None)
@given(A=anything, W=anything, F=anything)
@example(A=5e-324, W=3.0, F=1.0)
def test_indices_match_reference(A, W, F):
    assert_same(lambda: id_fitts(A, W), lambda: ref_id_fitts(A, W))
    assert_same(lambda: id_hoffmann(A, W, F), lambda: ref_id_hoffmann(A, W, F))
    assert_same(lambda: id_welford(A, W), lambda: ref_id_welford(A, W))
    assert_same(lambda: id_shannon(A, W), lambda: ref_id_shannon(A, W))
    assert_same(lambda: id_t_final(A, W, F), lambda: ref_id_t_final(A, W, F))
    assert_same(lambda: id_r_final(A, W), lambda: ref_id_r_final(A, W))


@given(A=positive, W=positive, F=positive,
       phi=anything, theta=anything)
def test_murata_and_cha_myung_vectors(A, W, F, phi, theta):
    assert_same(lambda: predictors_murata(A, W, phi),
                lambda: {"id_shannon": ref_id_shannon(A, W),
                         "sin_phi": _ref_sin_deg(phi)})
    assert_same(lambda: predictors_cha_myung(A, W, F, theta, phi),
                lambda: {"theta1": float(theta), "sin_theta2": _ref_sin_deg(phi),
                         "id_hoffmann": ref_id_hoffmann(A, W, F)})
