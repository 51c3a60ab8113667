import dataclasses
import hashlib
import json
import math
from pathlib import Path

import pytest

from fitts3d import (GroundTruth, InteractionKind, InvalidTruth, ModelKind,
                     TaskSpec, Xoshiro256StarStar, build_grid,
                     derive_stream_seed, generate_trials, paper_scale_defaults,
                     predict_mt, write_trials)
from fitts3d.synth import (GRID_LEVELS, GRID_REPETITIONS, PAPER_ERROR_RATE,
                           PAPER_MEAN_MT, Experiment)

POINT = InteractionKind.POINTING
MANIP = InteractionKind.MANIPULATION


def _axis_levels(grid, attr):
    return tuple(sorted({getattr(t, attr) for t in grid.variations}))


def test_grid_sizes_and_repetitions():
    assert len(build_grid(Experiment.E1).variations) == 48
    assert len(build_grid(Experiment.E2).variations) == 48
    assert len(build_grid(Experiment.E3).variations) == 48
    assert len(build_grid(Experiment.E4).variations) == 64
    assert build_grid(Experiment.E1).repetitions == 5
    assert build_grid(Experiment.E2).repetitions == 5
    assert build_grid(Experiment.E3).repetitions == 5
    assert build_grid(Experiment.E4).repetitions == 4


def test_grid_level_sets_exact():
    for experiment, levels in GRID_LEVELS.items():
        grid = build_grid(experiment)
        for attr, expected in levels.items():
            assert _axis_levels(grid, attr) == tuple(sorted(expected)), (
                experiment, attr)
        # full crossing: the number of conditions is the level product
        n = 1
        for expected in levels.values():
            n *= len(expected)
        assert len(grid.variations) == n
        assert len(set(grid.variations)) == n


def test_grid_condition_order():
    # nested loops, F slowest through omega fastest
    e1 = build_grid(Experiment.E1).variations
    assert (e1[0].F, e1[0].W, e1[0].A) == (3.0, 5.0, 12.0)
    assert (e1[1].F, e1[1].W, e1[1].A) == (3.0, 5.0, 24.0)
    assert (e1[4].F, e1[4].W, e1[4].A) == (3.0, 7.5, 12.0)
    assert (e1[16].F, e1[16].W, e1[16].A) == (4.0, 5.0, 12.0)
    assert (e1[47].F, e1[47].W, e1[47].A) == (5.0, 12.5, 48.0)
    assert all(t.phi == 90.0 and t.theta == 0.0 for t in e1)

    e4 = build_grid(Experiment.E4).variations
    first = e4[0]
    assert (first.F, first.W, first.A, first.phi, first.theta,
            first.alpha, first.omega) == (4.0, 4.0, 12.0, 0.0, 15.0, 30.0, 7.5)
    assert e4[1].omega == 15.0 and e4[1].alpha == 30.0
    assert e4[2].alpha == 45.0 and e4[2].omega == 7.5
    assert e4[4].theta == 30.0 and e4[4].phi == 0.0
    assert e4[8].phi == 90.0 and e4[8].A == 12.0
    assert e4[16].A == 24.0 and e4[16].W == 4.0
    assert e4[32].W == 8.0


@pytest.mark.parametrize("repetitions", [0, -3, 2.5, 2.0, True, "4"])
def test_grid_rejects_repetitions_that_are_not_positive_ints(repetitions):
    # -3 would silently generate no trials, 2.5 fail deep in generate_trials
    with pytest.raises(ValueError, match="repetitions must be a positive integer"):
        dataclasses.replace(build_grid(Experiment.E1), repetitions=repetitions)


def test_grid_interaction_stamp():
    grid = build_grid(Experiment.E2, MANIP)
    assert all(t.interaction is MANIP for t in grid.variations)
    assert all(t.interaction is POINT
               for t in build_grid(Experiment.E2).variations)


def test_grid_accepts_plain_strings():
    grid = build_grid("e3", "manipulation")
    assert grid.experiment is Experiment.E3
    assert grid.variations[0].interaction is MANIP


def test_defaults_match_published_means():
    for experiment in Experiment:
        for interaction in (POINT, MANIP):
            truth = paper_scale_defaults(experiment, interaction)
            grid = build_grid(experiment, interaction)
            mean = math.fsum(
                predict_mt(truth, t) for t in grid.variations) / len(grid.variations)
            assert mean == pytest.approx(
                PAPER_MEAN_MT[(experiment, interaction)], abs=1e-9), (
                experiment, interaction)


def test_defaults_structure():
    truth = paper_scale_defaults(Experiment.E4, POINT)
    assert truth.kind is ModelKind.FINAL
    assert truth.noise_sd == 0.2
    assert truth.error_rate == PAPER_ERROR_RATE[(Experiment.E4, POINT)]
    assert truth.coefficients["intercept"] == 0.4
    assert truth.coefficients["id_t"] > 0 and truth.coefficients["id_r"] > 0
    manip = paper_scale_defaults(Experiment.E1, MANIP)
    assert manip.coefficients["intercept"] == 0.6
    # single-regime grids put the whole budget on the active index
    assert paper_scale_defaults(Experiment.E1, POINT).coefficients["id_r"] == 0.0
    assert paper_scale_defaults(Experiment.E2, POINT).coefficients["id_r"] == 0.0
    assert paper_scale_defaults(Experiment.E3, POINT).coefficients["id_t"] == 0.0


def test_generate_reproducible():
    grid = build_grid(Experiment.E2)
    truth = paper_scale_defaults(Experiment.E2, POINT)
    a = generate_trials(grid, truth, POINT)
    b = generate_trials(grid, truth, POINT)
    assert len(a) == 48 * 5
    assert a == b
    other = generate_trials(grid, dataclasses.replace(truth, seed=1), POINT)
    assert other != a


def test_generate_trials_uses_no_scalar_stream(monkeypatch):
    # every substream comes from lockstep_uniforms; a fallback to the
    # scalar stream would raise here
    def no_scalar_stream(self, seed):
        raise AssertionError("generate_trials built a scalar stream")

    monkeypatch.setattr(Xoshiro256StarStar, "__init__", no_scalar_stream)
    for experiment in Experiment:
        grid = build_grid(experiment)
        trials = generate_trials(grid, paper_scale_defaults(experiment, POINT), POINT)
        assert len(trials) == len(grid.variations) * grid.repetitions


def test_generate_matches_stream_oracle():
    # re-derive every trial from the documented per-condition stream:
    # one normal then one uniform per repetition
    grid = build_grid(Experiment.E1)
    truth = GroundTruth(
        kind=ModelKind.SHANNON,
        coefficients={"intercept": 0.5, "id": 0.35},
        noise_sd=0.2, error_rate=0.1, seed=7)
    trials = generate_trials(grid, truth, POINT)
    k = 0
    for ci, task in enumerate(grid.variations):
        stream = Xoshiro256StarStar(derive_stream_seed(7, ci))
        pred = predict_mt(truth, task)
        for _ in range(grid.repetitions):
            z = stream.normal()
            u = stream.random()
            trial = trials[k]
            k += 1
            if u < 0.1:
                assert trial.mt == 15.0 and not trial.success
                continue
            mt = max(pred + 0.2 * z, 0.05)
            if mt >= 15.0:
                assert trial.mt == 15.0 and not trial.success
            else:
                assert trial.mt == mt and trial.success
    assert k == len(trials)


def test_generate_noiseless_is_exact():
    grid = build_grid(Experiment.E3)
    truth = GroundTruth(
        kind=ModelKind.FINAL,
        coefficients={"intercept": 0.6, "id_t": 0.2, "id_r": 0.5})
    trials = generate_trials(grid, truth, MANIP)
    assert len(trials) == 48 * 5
    for trial, task in zip(trials, (t for t in grid.variations for _ in range(5))):
        assert trial.success
        assert trial.mt == predict_mt(truth, trial.task)
        assert trial.task.omega == task.omega


def test_generate_error_trials_hit_timeout():
    grid = build_grid(Experiment.E1)
    truth = GroundTruth(
        kind=ModelKind.FITTS,
        coefficients={"intercept": 1.0, "id": 0.1},
        error_rate=0.5, seed=3)
    trials = generate_trials(grid, truth, POINT)
    errors = [t for t in trials if not t.success]
    assert 0 < len(errors) < len(trials)
    assert all(t.mt == 15.0 for t in errors)
    assert all(t.mt < 15.0 for t in trials if t.success)


def test_generate_slow_model_times_out():
    grid = build_grid(Experiment.E1)
    truth = GroundTruth(
        kind=ModelKind.FITTS,
        coefficients={"intercept": 16.0, "id": 0.0})
    trials = generate_trials(grid, truth, POINT)
    assert all(t.mt == 15.0 and not t.success for t in trials)
    # the longer manipulation timeout leaves the same model under budget
    trials = generate_trials(grid, truth, MANIP)
    assert all(t.mt == 16.0 and t.success for t in trials)


def test_generate_clamps_tiny_times():
    grid = build_grid(Experiment.E1)
    truth = GroundTruth(
        kind=ModelKind.FITTS,
        coefficients={"intercept": 0.01, "id": 0.0})
    trials = generate_trials(grid, truth, POINT)
    assert all(t.mt == 0.05 and t.success for t in trials)


def test_generate_restamps_interaction():
    grid = build_grid(Experiment.E4, POINT)
    truth = GroundTruth(
        kind=ModelKind.FINAL,
        coefficients={"intercept": 0.6, "id_t": 0.2, "id_r": 0.5})
    trials = generate_trials(grid, truth, MANIP)
    assert all(t.task.interaction is MANIP for t in trials)


def test_truth_validation():
    with pytest.raises(InvalidTruth):
        GroundTruth(kind=ModelKind.FITTS, coefficients={"intercept": 0.4})
    with pytest.raises(InvalidTruth):
        GroundTruth(kind=ModelKind.FINAL,
                    coefficients={"intercept": 0.4, "id_t": 0.2})
    with pytest.raises(InvalidTruth):
        GroundTruth(kind=ModelKind.FITTS,
                    coefficients={"intercept": 0.4, "id": 0.3}, noise_sd=-0.1)
    with pytest.raises(InvalidTruth):
        GroundTruth(kind=ModelKind.FITTS,
                    coefficients={"intercept": 0.4, "id": 0.3}, error_rate=1.0)
    with pytest.raises(InvalidTruth):
        GroundTruth(kind=ModelKind.FITTS,
                    coefficients={"intercept": 0.4, "id": 0.3}, error_rate=-0.2)


@pytest.mark.parametrize("noise_sd", [math.nan, math.inf, -math.inf])
def test_truth_rejects_non_finite_noise(noise_sd):
    with pytest.raises(InvalidTruth, match="noise_sd must be nonnegative and finite"):
        GroundTruth(kind=ModelKind.FITTS,
                    coefficients={"intercept": 0.4, "id": 0.3}, noise_sd=noise_sd)


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 7, 1.5, 2.0, True])
def test_truth_rejects_seed_outside_64_bits(seed):
    # a seed is not reduced mod 2**64: -1 would alias 2**64 - 1, 2**64 alias 0;
    # nor truncated: 1.5 would alias 1, and a bool is not a seed
    with pytest.raises(InvalidTruth, match=r"seed must be an integer in \[0, 2\*\*64\)"):
        GroundTruth(kind=ModelKind.FITTS,
                    coefficients={"intercept": 0.4, "id": 0.3}, seed=seed)


def test_truth_accepts_seed_range_ends():
    for seed in (0, 2**64 - 1):
        GroundTruth(kind=ModelKind.FITTS,
                    coefficients={"intercept": 0.4, "id": 0.3}, seed=seed)


def test_generate_rejects_nonpositive_predictions():
    grid = build_grid(Experiment.E1)
    truth = GroundTruth(
        kind=ModelKind.FITTS,
        coefficients={"intercept": -1.0, "id": 0.0})
    with pytest.raises(InvalidTruth):
        generate_trials(grid, truth, POINT)


def test_predict_mt_value():
    truth = GroundTruth(
        kind=ModelKind.FITTS, coefficients={"intercept": 0.4, "id": 0.3})
    task = TaskSpec(F=3, W=5, A=12)
    # 0.4 + 0.3 * log2(24/5)
    assert predict_mt(truth, task) == pytest.approx(
        0.4 + 0.3 * math.log2(4.8), abs=1e-12)


# the benchmark's recorded sha256 of each default-seed log, read-only here
DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"
PUBLISHED_REPS = {"e1": 100, "e2": 100, "e3": 100, "e4": 75}  # 4 800 trials a cell


@pytest.mark.parametrize("interaction", ["pointing", "manipulation"])
@pytest.mark.parametrize("experiment", sorted(PUBLISHED_REPS))
def test_published_scale_log_matches_recorded_digest(tmp_path, experiment, interaction):
    reps = PUBLISHED_REPS[experiment]
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))[
        f"{experiment}-{interaction}-r{reps}-s0"]
    grid = dataclasses.replace(build_grid(experiment, interaction), repetitions=reps)
    truth = paper_scale_defaults(experiment, interaction)
    trials = generate_trials(grid, truth, interaction)
    assert len(trials) == 4800
    path = tmp_path / "log.csv"
    write_trials(path, trials, experiment)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == want
