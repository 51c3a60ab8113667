"""Acceptance suite: one test per release criterion.

Every test prints a single PASS line with its measured numbers and
enforces both the stated tolerance and the runtime budget. A failing
criterion fails its test, so `pytest -v tests/test_acceptance.py` reads
as a one-line-per-criterion checklist.
"""

import math
import random
import time
from dataclasses import replace

import numpy as np
import pytest

from fitts3d import (ConditionTable, DesignMatrix, GroundTruth,
                     InteractionKind, ModelKind, Pose, TaskSpec,
                     Xoshiro256StarStar, build_grid,
                     classify_combined, classify_rotation,
                     classify_translation, compare_models, derive_stream_seed,
                     f_cdf, f_sf, fit_model, generate_trials, joint_angle,
                     ols_fit, paper_scale_defaults, partial_f_test, pd_torque,
                     predictors_for, r_squared, read_trials, stepwise,
                     write_trials)
from fitts3d.retarget import BonePair, JointState
from fitts3d.synth import GRID_REPETITIONS, Experiment
from fitts3d import (id_fitts, id_hoffmann, id_r_final, id_rot_adapted,
                     id_shannon, id_t_final, id_welford, predictors_cha_myung,
                     predictors_murata)

POINT = InteractionKind.POINTING
MANIP = InteractionKind.MANIPULATION

LOG2 = math.log(2.0)


def _log2(x):
    # independent oracle path: ln ratio instead of math.log2
    return math.log(x) / LOG2


def test_criterion_01_id_oracle_table():
    t0 = time.perf_counter()
    # every entry pairs a package value with a hand-reduced ratio
    scalar_cases = [
        ("fitts 12/5", id_fitts(12, 5).bits, _log2(4.8)),
        ("fitts 48/5", id_fitts(48, 5).bits, _log2(19.2)),
        ("fitts 24/12.5", id_fitts(24, 12.5).bits, _log2(3.84)),
        ("fitts 36/7.5", id_fitts(36, 7.5).bits, _log2(9.6)),
        ("hoffmann 12/5/3", id_hoffmann(12, 5, 3).bits, _log2(3.0)),
        ("hoffmann 24/10/5", id_hoffmann(24, 10, 5).bits, _log2(3.2)),
        ("hoffmann 48/12.5/4", id_hoffmann(48, 12.5, 4).bits, _log2(96 / 16.5)),
        ("welford 12/5", id_welford(12, 5).bits, _log2(2.9)),
        ("welford 36/10", id_welford(36, 10).bits, _log2(4.1)),
        ("shannon 12/5", id_shannon(12, 5).bits, _log2(3.4)),
        ("shannon 48/12.5", id_shannon(48, 12.5).bits, _log2(4.84)),
        ("id_t 12/4/4", id_t_final(12, 4, 4).bits, 2.0),
        ("id_t 24/8/4", id_t_final(24, 8, 4).bits, _log2(5.0)),
        ("id_t 24/10/5", id_t_final(24, 10, 5).bits, _log2(4.2)),
        ("id_r 45/7.5", id_r_final(45, 7.5).bits, _log2(2.6)),
        ("id_r 30/15", id_r_final(30, 15).bits, _log2(60 / 225 + 1)),
        ("id_r 15/2.5", id_r_final(15, 2.5).bits, _log2(5.8)),
        ("rot fitts 30/7.5", id_rot_adapted(ModelKind.FITTS, 30, 7.5).bits, 3.0),
        ("rot hoffmann 45/15", id_rot_adapted(ModelKind.HOFFMANN, 45, 15).bits,
         _log2(6.0)),
        ("rot cha-myung 30/2.5",
         id_rot_adapted(ModelKind.CHA_MYUNG, 30, 2.5).bits, _log2(24.0)),
        ("rot welford 15/10", id_rot_adapted(ModelKind.WELFORD, 15, 10).bits, 1.0),
        ("rot shannon 30/10", id_rot_adapted(ModelKind.SHANNON, 30, 10).bits, 2.0),
        ("rot murata 45/5",
         id_rot_adapted(ModelKind.MURATA_IWASE, 45, 5).bits, _log2(10.0)),
    ]
    vector_cases = [
        ("murata 12/5 phi=90", predictors_murata(12, 5, 90).values,
         (_log2(3.4), 1.0)),
        ("murata 12/5 phi=270", predictors_murata(12, 5, 270).values,
         (_log2(3.4), -1.0)),
        ("cha-myung 30/90 12/5/3",
         predictors_cha_myung(12, 5, 3, 30, 90).values, (30.0, 1.0, _log2(3.0))),
        ("cha-myung 45/180 24/10/5",
         predictors_cha_myung(24, 10, 5, 45, 180).values,
         (45.0, 0.0, _log2(3.2))),
        ("fitts combined A=12 W=4 a=30 o=7.5",
         predictors_for(ModelKind.FITTS,
                        TaskSpec(F=4, W=4, A=12, alpha=30, omega=7.5)).values,
         (_log2(6.0) + _log2(8.0),)),
        ("final A=24 W=8 F=4 a=45 o=7.5",
         predictors_for(ModelKind.FINAL,
                        TaskSpec(F=4, W=8, A=24, alpha=45, omega=7.5)).values,
         (_log2(5.0), _log2(2.6))),
    ]
    n = 0
    for label, got, want in scalar_cases:
        assert abs(got - want) <= 1e-9, label
        n += 1
    for label, got, want in vector_cases:
        assert len(got) == len(want), label
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-9, label
        n += 1
    elapsed = time.perf_counter() - t0
    assert n >= 20
    assert elapsed < 1.0
    print(f"PASS criterion 1: {n} ID oracle entries within 1e-9 "
          f"({elapsed:.3f} s < 1 s)")


def _oracle_translation(obj, target, w):
    dx = target.position[0] - obj.position[0]
    dy = target.position[1] - obj.position[1]
    dz = target.position[2] - obj.position[2]
    return math.sqrt(dx * dx + dy * dy + dz * dz) <= w / 2.0


def _oracle_rotation(obj, target, omega):
    for o, t in zip(obj.rotation, target.rotation):
        best = min(abs(((t + 90.0 * k - o) + 180.0) % 360.0 - 180.0)
                   for k in range(4))
        if best > omega:
            return False
    return True


def test_criterion_02_classifier_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(12345)
    pairs = []
    for _ in range(8000):
        obj = Pose(tuple(rng.uniform(-30, 30) for _ in range(3)),
                   tuple(rng.uniform(0, 360) for _ in range(3)))
        target = Pose(tuple(rng.uniform(-30, 30) for _ in range(3)),
                      tuple(rng.uniform(0, 360) for _ in range(3)))
        pairs.append((obj, target, rng.uniform(0.5, 15), rng.uniform(0, 50)))
    for _ in range(2000):
        # bias distances and angle offsets toward the thresholds
        w = rng.uniform(1, 12)
        omega = rng.uniform(0.5, 20)
        origin = tuple(rng.uniform(-20, 20) for _ in range(3))
        direction = [rng.gauss(0, 1) for _ in range(3)]
        norm = math.sqrt(sum(d * d for d in direction)) or 1.0
        eps = rng.choice([-1, 1]) * 10 ** rng.uniform(-9, -1)
        dist = (w / 2) * (1 + eps)
        target_pos = tuple(o + dist * d / norm
                           for o, d in zip(origin, direction))
        rot = tuple(rng.uniform(0, 360) for _ in range(3))
        target_rot = tuple(
            r + 90 * rng.randrange(4)
            + rng.choice([-1, 1]) * omega * (1 + rng.choice([-1, 1])
                                             * 10 ** rng.uniform(-9, -1))
            for r in rot)
        pairs.append((Pose(origin, rot), Pose(target_pos, target_rot),
                      w, omega))
    assert len(pairs) == 10000
    mismatches = 0
    for obj, target, w, omega in pairs:
        ot = _oracle_translation(obj, target, w)
        orr = _oracle_rotation(obj, target, omega)
        if classify_translation(obj, target, w) is not ot:
            mismatches += 1
        if classify_rotation(obj, target, omega) is not orr:
            mismatches += 1
        if classify_combined(obj, target, w, omega) is not (ot and orr):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    assert mismatches == 0
    assert elapsed < 5.0
    print(f"PASS criterion 2: 10000/10000 pose pairs agree with the "
          f"brute-force oracle ({elapsed:.2f} s < 5 s)")


def test_criterion_03_grid_fidelity():
    expected = {
        Experiment.E1: (48, 5, {
            "F": (3.0, 4.0, 5.0), "W": (5.0, 7.5, 10.0, 12.5),
            "A": (12.0, 24.0, 36.0, 48.0), "phi": (90.0,), "theta": (0.0,),
            "alpha": (0.0,), "omega": (0.0,)}),
        Experiment.E2: (48, 5, {
            "F": (5.0,), "W": (5.0, 10.0), "A": (12.0, 24.0),
            "phi": (0.0, 90.0, 180.0, 270.0), "theta": (15.0, 30.0, 45.0),
            "alpha": (0.0,), "omega": (0.0,)}),
        Experiment.E3: (48, 5, {
            "F": (4.0, 5.0), "W": (5.0, 10.0), "A": (0.0,),
            "phi": (0.0,), "theta": (0.0,),
            "alpha": (15.0, 30.0, 45.0), "omega": (2.5, 5.0, 7.5, 10.0)}),
        Experiment.E4: (64, 4, {
            "F": (4.0,), "W": (4.0, 8.0), "A": (12.0, 24.0),
            "phi": (0.0, 90.0), "theta": (15.0, 30.0),
            "alpha": (30.0, 45.0), "omega": (7.5, 15.0)}),
    }
    for experiment, (count, reps, levels) in expected.items():
        grid = build_grid(experiment)
        assert len(grid.variations) == count
        assert len(set(grid.variations)) == count
        assert grid.repetitions == reps
        assert GRID_REPETITIONS[experiment] == reps
        for attr, want in levels.items():
            got = tuple(sorted({getattr(t, attr) for t in grid.variations}))
            assert got == want, (experiment, attr)
    print("PASS criterion 3: grids reproduce the factorial designs exactly "
          "(48/48/48/64 conditions, 5/5/5/4 repetitions)")


def test_criterion_04_planted_model_recovery():
    t0 = time.perf_counter()
    plants = [
        (ModelKind.FITTS, "e1", {"intercept": 0.4, "id": 0.3}),
        (ModelKind.HOFFMANN, "e1", {"intercept": 0.35, "id": 0.28}),
        (ModelKind.WELFORD, "e1", {"intercept": 0.45, "id": 0.32}),
        (ModelKind.SHANNON, "e1", {"intercept": 0.4, "id": 0.3}),
        (ModelKind.MURATA_IWASE, "e2",
         {"intercept": 0.3, "id_shannon": 0.25, "sin_phi": 0.1}),
        (ModelKind.CHA_MYUNG, "e2",
         {"intercept": 0.2, "theta1": 0.005, "sin_theta2": 0.1,
          "id_hoffmann": 0.3}),
        (ModelKind.FINAL, "e4", {"intercept": 0.2, "id_t": 0.5, "id_r": 0.9}),
    ]
    for kind, experiment, coefficients in plants:
        grid = build_grid(experiment)
        truth = GroundTruth(kind=kind, coefficients=coefficients)
        trials = generate_trials(grid, truth, POINT)
        fit = fit_model(kind, ConditionTable(trials, aggregate=True))
        assert fit.dropped == ()
        for name, want in coefficients.items():
            assert abs(fit.coefficients[name] - want) <= 1e-6, (kind, name)
        assert abs(fit.r2 - 1.0) <= 1e-9, kind
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"PASS criterion 4: all seven planted models recovered "
          f"(coefficients to 1e-6, r2 = 1 to 1e-9; {elapsed:.2f} s < 5 s)")


def test_criterion_05_ranking_reproduction():
    t0 = time.perf_counter()
    wins = {}
    for experiment in ("e4", "e3"):
        grid = build_grid(experiment)
        base = paper_scale_defaults(experiment, POINT)
        top = 0
        for seed in range(100):
            trials = generate_trials(grid, replace(base, seed=seed), POINT)
            rows = compare_models(ConditionTable(trials), ModelKind)
            if rows[0].fit is not None and rows[0].kind is ModelKind.FINAL:
                top += 1
        wins[experiment] = top
        assert top >= 95, (experiment, top)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"PASS criterion 5: two-index model ranks first in "
          f"{wins['e4']}/100 seeds on e4 and {wins['e3']}/100 on e3 "
          f"({elapsed:.1f} s < 60 s)")


def test_criterion_06_stepwise_correctness():
    t0 = time.perf_counter()
    tasks = build_grid("e1").variations
    F = np.array([t.F for t in tasks])
    W = np.array([t.W for t in tasks])
    A = np.array([t.A for t in tasks])
    base = 1.0 + 0.03 * A - 0.04 * W + 0.02 * F

    noiseless = stepwise(
        DesignMatrix(("F", "W", "A"), np.column_stack([F, W, A])), base)
    assert noiseless.steps[0].name == "A"
    assert noiseless.contributions["A"] >= 80.0

    a_first = a_largest = 0
    for seed in range(100):
        z = np.array([Xoshiro256StarStar(derive_stream_seed(seed, ci)).normal()
                      for ci in range(len(tasks))])
        decoy_stream = Xoshiro256StarStar(derive_stream_seed(seed, 999))
        decoy = np.array([decoy_stream.normal() for _ in range(len(tasks))])
        y = base + 0.05 * z
        X = DesignMatrix(("F", "W", "A", "decoy"),
                         np.column_stack([F, W, A, decoy]))
        sw = stepwise(X, y)
        if sw.steps and sw.steps[0].action == "enter" and sw.steps[0].name == "A":
            a_first += 1
        if sw.contributions and max(
                sw.contributions, key=sw.contributions.get) == "A":
            a_largest += 1
        if "decoy" in sw.selected:
            cols = {"F": F, "W": W, "A": A, "decoy": decoy}
            others = tuple(n for n in sw.selected if n != "decoy")
            reduced = ols_fit(DesignMatrix(
                others, np.column_stack([cols[n] for n in others])), y)
            _, p = partial_f_test(sw.fit, reduced)
            assert p <= 0.10, f"decoy kept with p = {p:.3g} at seed {seed}"
    elapsed = time.perf_counter() - t0
    assert a_first >= 95
    assert a_largest >= 95
    assert elapsed < 30.0
    print(f"PASS criterion 6: A entered first in {a_first}/100 and largest "
          f"contributor in {a_largest}/100 seeds "
          f"(noiseless share {noiseless.contributions['A']:.1f}% >= 80%; "
          f"{elapsed:.2f} s < 30 s)")


def test_criterion_07_regression_properties():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1234)
    for _ in range(1000):
        n = int(rng.integers(8, 40))
        p = int(rng.integers(1, 5))
        X = rng.normal(size=(n, p))
        beta = rng.normal(size=p)
        y = X @ beta + rng.normal(size=n)
        names = tuple(f"v{i}" for i in range(p))
        fit = ols_fit(DesignMatrix(names, X), y)

        # residuals orthogonal to every regressor and the intercept
        scale = 1e-8 * max(1.0, float(np.abs(X).max()) * float(np.abs(y).max()))
        augmented = np.column_stack([np.ones(n), X])
        assert float(np.abs(augmented.T @ fit.residuals).max()) <= scale

        # r2 unchanged under y -> beta*y + gamma with beta > 0
        b = float(rng.uniform(0.1, 5.0))
        g = float(rng.uniform(-10.0, 10.0))
        fit2 = ols_fit(DesignMatrix(names, X), b * y + g)
        assert abs(fit2.r2 - fit.r2) <= 1e-9
        assert abs(r_squared(fit2, b * y + g) - fit2.r2) <= 1e-12

        # nested subsets never explain more variance than their superset
        prev = -1.0
        for k in range(1, p + 1):
            sub = ols_fit(DesignMatrix(names[:k], X[:, :k]), y)
            assert sub.r2 >= prev - 1e-12
            prev = sub.r2
        assert abs(prev - fit.r2) <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"PASS criterion 7: orthogonality, affine invariance, and nested "
          f"monotonicity on 1000 random instances ({elapsed:.2f} s < 10 s)")


def _f_density(x, d1, d2):
    log_num = (0.5 * d1 * math.log(d1) + 0.5 * d2 * math.log(d2)
               + (0.5 * d1 - 1.0) * math.log(x)
               - 0.5 * (d1 + d2) * math.log(d2 + d1 * x))
    log_b = (math.lgamma(0.5 * d1) + math.lgamma(0.5 * d2)
             - math.lgamma(0.5 * (d1 + d2)))
    return math.exp(log_num - log_b)


def test_criterion_08_f_cdf_accuracy():
    from scipy.integrate import quad
    t0 = time.perf_counter()
    cases = [(x, d1, d2)
             for x in (0.5, 2.0)
             for d1 in (1, 2, 5, 10, 30)
             for d2 in (4, 30)]
    assert len(cases) == 20
    worst = 0.0
    for x, d1, d2 in cases:
        oracle, err = quad(_f_density, 0.0, x, args=(d1, d2),
                           epsabs=1e-12, epsrel=1e-12, limit=500)
        assert err < 1e-9
        got = f_cdf(x, d1, d2)
        worst = max(worst, abs(got - oracle))
        assert abs(got - oracle) <= 1e-8, (x, d1, d2)
        assert abs(f_sf(x, d1, d2) - (1.0 - oracle)) <= 1e-8, (x, d1, d2)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"PASS criterion 8: F CDF within 1e-8 of quadrature on 20 cases "
          f"(worst {worst:.2e}; {elapsed:.2f} s < 5 s)")


def test_criterion_09_retargeting_checks():
    t0 = time.perf_counter()
    assert joint_angle(BonePair((1, 0, 0), (1, 0, 0))) == 0.0
    assert abs(joint_angle(BonePair((1, 0, 0), (0, 1, 0))) - math.pi / 2) <= 1e-12
    assert abs(joint_angle(BonePair((1, 1, 0), (1, 0, 0))) - math.pi / 4) <= 1e-12
    assert pd_torque(JointState(2.0, 0.0, 1.0, 0.5, 0.0)) == 1.0
    assert pd_torque(JointState(0.0, 1.0, 0.0, 0.0, 2.0)) == -2.0
    assert pd_torque(JointState(3.0, 0.5, 1.0, 1.0, 0.0)) == 0.0

    rng = random.Random(77)
    checked = 0
    for _ in range(10000):
        bone = tuple(rng.uniform(-1, 1) for _ in range(3))
        parent = tuple(rng.uniform(-1, 1) for _ in range(3))
        if (math.sqrt(sum(v * v for v in bone)) < 1e-3
                or math.sqrt(sum(v * v for v in parent)) < 1e-3):
            continue
        angle = joint_angle(BonePair(bone, parent))
        s = rng.uniform(0.05, 100.0)
        scaled = joint_angle(BonePair(tuple(s * v for v in bone), parent))
        assert abs(scaled - angle) <= 1e-9
        assert 0.0 <= angle <= math.pi
        checked += 1
    elapsed = time.perf_counter() - t0
    assert checked > 9900
    assert elapsed < 2.0
    print(f"PASS criterion 9: joint-angle and PD identities exact, scale "
          f"invariance on {checked} bone pairs ({elapsed:.2f} s < 2 s)")


def test_criterion_10_round_trip_determinism(tmp_path):
    total = 0
    for experiment in ("e1", "e2", "e3", "e4"):
        for interaction in (POINT, MANIP):
            grid = build_grid(experiment, interaction)
            truth = paper_scale_defaults(experiment, interaction)
            trials = generate_trials(grid, truth, interaction)
            path = tmp_path / f"{experiment}_{interaction.value}.csv"
            write_trials(path, trials, experiment)
            log = read_trials(path)
            assert log.trials == tuple(trials)
            assert log.experiment == experiment
            assert log.interaction is interaction
            again = tmp_path / f"{experiment}_{interaction.value}_again.csv"
            write_trials(again, generate_trials(grid, truth, interaction),
                         experiment)
            assert again.read_bytes() == path.read_bytes()
            total += len(trials)
    assert total == 2 * (240 + 240 + 240 + 256)
    print(f"PASS criterion 10: write/read identity and byte-identical "
          f"regeneration on all 8 synthetic sets ({total} trials)")
