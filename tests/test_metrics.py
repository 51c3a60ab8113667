import math

import pytest

from fitts3d import (DomainError, ModelKind, TaskSpec,
                     id_fitts, id_hoffmann, id_r_final, id_rot_adapted,
                     id_shannon, id_t_final, id_welford, predictor_names,
                     predictors_cha_myung, predictors_for, predictors_murata,
                     task_regime)

# expected values frozen from independent ln-ratio arithmetic
LOG2_4_8 = 2.263034405833794       # log(4.8)/log(2)
LOG2_19_2 = 4.263034405833794
LOG2_3 = 1.5849625007211563
LOG2_3_2 = 1.6780719051126378
LOG2_2_9 = 1.5360529002402097
LOG2_3_4 = 1.7655347463629771
LOG2_5 = 2.321928094887362
LOG2_2_6 = 1.3785116232537298
LOG2_1_2667 = 0.3410369178350669   # log2(60/225 + 1)


def test_id_fitts_values():
    assert id_fitts(12, 5) == pytest.approx(LOG2_4_8, abs=1e-9)
    assert id_fitts(48, 5) == pytest.approx(LOG2_19_2, abs=1e-9)
    # below half-width amplitude the index goes negative, not clamped
    assert id_fitts(2, 5) < 0


def test_id_hoffmann_values():
    assert id_hoffmann(12, 5, 3) == pytest.approx(LOG2_3, abs=1e-9)
    assert id_hoffmann(24, 10, 5) == pytest.approx(LOG2_3_2, abs=1e-9)


def test_id_welford_shannon_values():
    assert id_welford(12, 5) == pytest.approx(LOG2_2_9, abs=1e-9)
    assert id_shannon(12, 5) == pytest.approx(LOG2_3_4, abs=1e-9)
    assert id_shannon(0, 5) == 0.0
    assert id_welford(0, 5) == -1.0


def test_final_model_indices():
    assert id_t_final(12, 4, 4) == pytest.approx(2.0, abs=1e-9)
    assert id_t_final(24, 8, 4) == pytest.approx(LOG2_5, abs=1e-9)
    assert id_t_final(0, 5, 3) == 0.0
    assert id_r_final(45, 7.5) == pytest.approx(LOG2_2_6, abs=1e-9)
    assert id_r_final(30, 15) == pytest.approx(LOG2_1_2667, abs=1e-9)
    assert id_r_final(0, 5) == 0.0


def test_domain_errors():
    with pytest.raises(DomainError):
        id_fitts(0, 5)
    with pytest.raises(DomainError):
        id_fitts(12, 0)
    with pytest.raises(DomainError):
        id_hoffmann(0, 5, 3)
    with pytest.raises(DomainError):
        id_welford(-1, 5)
    with pytest.raises(DomainError):
        id_shannon(12, -5)
    with pytest.raises(DomainError):
        id_t_final(-1, 5, 3)
    with pytest.raises(DomainError):
        id_r_final(30, 0)
    with pytest.raises(DomainError, match=r"^id_r_final needs omega\^2 > 0$"):
        id_r_final(30, 1e-200)  # omega^2 underflows to zero
    with pytest.raises(DomainError):
        id_rot_adapted(ModelKind.FITTS, 0, 5)


def test_overflowing_ratio_is_not_finite():
    # every index goes through the Fitts, Welford or Shannon form, and
    # each form rejects an infinite log2 with the same error
    calls = [
        lambda: id_fitts(1e308, 1e-308),
        lambda: id_hoffmann(1e308, 1e-308, 1e-308),
        lambda: id_welford(1e308, 1e-308),
        lambda: id_shannon(1e308, 1e-308),
        lambda: id_t_final(1e308, 1e-308, 1e-308),
        lambda: id_r_final(1e308, 1e-100),
    ] + [lambda kind=kind: id_rot_adapted(kind, 1e308, 1e-100) for kind in ModelKind]
    for call in calls:
        with pytest.raises(DomainError, match=r"^difficulty index is not finite$"):
            call()


def test_rot_adapted_forms():
    assert id_rot_adapted(ModelKind.FITTS, 30, 7.5) == pytest.approx(3.0, abs=1e-9)
    assert id_rot_adapted(ModelKind.HOFFMANN, 30, 7.5) == pytest.approx(3.0, abs=1e-9)
    assert id_rot_adapted(ModelKind.CHA_MYUNG, 30, 7.5) == pytest.approx(3.0, abs=1e-9)
    assert id_rot_adapted(ModelKind.WELFORD, 15, 10) == pytest.approx(1.0, abs=1e-9)
    assert id_rot_adapted(ModelKind.SHANNON, 45, 5) == pytest.approx(math.log2(10), abs=1e-9)
    assert id_rot_adapted(ModelKind.MURATA_IWASE, 45, 5) == pytest.approx(math.log2(10), abs=1e-9)
    assert id_rot_adapted(ModelKind.FINAL, 45, 7.5) == pytest.approx(LOG2_2_6, abs=1e-9)
    # negative adapted index surfaces when tolerance exceeds amplitude
    assert id_rot_adapted(ModelKind.FITTS, 2, 5) < 0


def test_shannon_approaches_fitts_minus_one():
    # id_fitts - id_shannon -> 1 as A/W grows
    prev = None
    for ratio in (2.0, 5.0, 20.0, 100.0, 1000.0, 1e6):
        diff = id_fitts(ratio, 1.0) - id_shannon(ratio, 1.0)
        if prev is not None:
            assert abs(diff - 1.0) <= abs(prev - 1.0)
        prev = diff
    assert abs(prev - 1.0) < 1e-5


def test_id_t_final_is_shifted_shannon():
    import numpy as np
    rng = np.random.default_rng(5)
    for _ in range(500):
        a = float(rng.uniform(0, 60))
        w = float(rng.uniform(0.5, 15))
        f = float(rng.uniform(0.5, 8))
        assert id_t_final(a, w, f) == id_shannon(2 * a, w + f)


def test_predictor_layouts():
    assert predictor_names(ModelKind.FITTS) == ("id",)
    assert predictor_names(ModelKind.MURATA_IWASE) == ("id_shannon", "sin_phi")
    assert predictor_names(ModelKind.CHA_MYUNG) == ("theta1", "sin_theta2", "id_hoffmann")
    assert predictor_names(ModelKind.FINAL) == ("id_t", "id_r")


def test_task_regimes():
    assert task_regime(TaskSpec(F=3, W=5, A=12)) == "translation"
    assert task_regime(TaskSpec(F=3, W=5, A=0)) == "translation"
    assert task_regime(TaskSpec(F=4, W=5, A=0, alpha=30, omega=5)) == "rotation"
    assert task_regime(TaskSpec(F=4, W=8, A=24, alpha=30, omega=7.5)) == "combined"


def test_predictors_translation_regime():
    task = TaskSpec(F=3, W=5, A=12, phi=90)
    assert predictors_for(ModelKind.FITTS, task) == {"id": pytest.approx(LOG2_4_8, abs=1e-12)}
    vec = predictors_for(ModelKind.FINAL, task)
    assert list(vec) == ["id_t", "id_r"]
    assert vec["id_r"] == 0.0  # exactly zero rotational demand


def test_predictors_rotation_regime():
    task = TaskSpec(F=4, W=5, A=0, alpha=30, omega=7.5)
    assert predictors_for(ModelKind.FITTS, task)["id"] == pytest.approx(3.0, abs=1e-12)
    vec = predictors_for(ModelKind.FINAL, task)
    assert vec["id_t"] == 0.0
    assert vec["id_r"] == pytest.approx(id_r_final(30, 7.5), abs=1e-12)


def test_predictors_combined_regime_sums():
    # prior models sum translation and adapted rotation difficulty
    task = TaskSpec(F=4, W=8, A=24, phi=0, theta=15, alpha=30, omega=7.5)
    got = predictors_for(ModelKind.FITTS, task)["id"]
    assert got == pytest.approx(5.584962500721156, abs=1e-9)  # log2(6)+log2(8)
    vec = predictors_for(ModelKind.FINAL, task)
    assert vec["id_t"] == pytest.approx(LOG2_5, abs=1e-12)
    assert vec["id_r"] == pytest.approx(1.0473057147783564, abs=1e-12)
    # same geometry at a wider rotation matches the frozen table value
    wide = TaskSpec(F=4, W=8, A=24, phi=0, theta=15, alpha=45, omega=7.5)
    assert predictors_for(ModelKind.FINAL, wide)["id_r"] == pytest.approx(
        LOG2_2_6, abs=1e-12)


def test_predictors_degenerate_translational():
    task = TaskSpec(F=3, W=5, A=0)
    with pytest.raises(DomainError):
        predictors_for(ModelKind.FITTS, task)
    with pytest.raises(DomainError):
        predictors_for(ModelKind.CHA_MYUNG, task)
    vec = predictors_for(ModelKind.FINAL, task)
    assert vec == {"id_t": 0.0, "id_r": 0.0}
    assert predictors_for(ModelKind.SHANNON, task) == {"id": 0.0}


def test_predictors_murata():
    vec = predictors_murata(12, 5, 30)
    assert list(vec) == ["id_shannon", "sin_phi"]
    assert vec["id_shannon"] == pytest.approx(LOG2_3_4, abs=1e-9)
    assert vec["sin_phi"] == pytest.approx(0.5, abs=1e-12)
    # sin(180 deg) is zero to double precision
    assert abs(predictors_murata(24, 10, 180)["sin_phi"]) < 1e-9


def test_predictors_cha_myung():
    vec = predictors_cha_myung(4, 5, 3, 0, 0)
    assert list(vec) == ["theta1", "sin_theta2", "id_hoffmann"]
    assert list(vec.values()) == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)
    vec = predictors_cha_myung(24, 10, 5, 30, 90)
    assert vec["theta1"] == 30.0
    assert vec["sin_theta2"] == pytest.approx(1.0, abs=1e-12)
    assert vec["id_hoffmann"] == pytest.approx(LOG2_3_2, abs=1e-9)


def test_determinism():
    a = predictors_for(ModelKind.FINAL, TaskSpec(F=4, W=8, A=24, alpha=30, omega=7.5))
    b = predictors_for(ModelKind.FINAL, TaskSpec(F=4, W=8, A=24, alpha=30, omega=7.5))
    assert a == b
