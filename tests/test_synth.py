import ast
import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from fitts3d import (ConditionTable, GroundTruth, InteractionKind, InvalidTruth,
                     ModelKind, TaskSpec, Trial, Xoshiro256StarStar, build_grid,
                     compare_models, derive_stream_seed, generate_cell,
                     generate_trials, paper_scale_defaults, predict_mt,
                     read_trials, write_trials)
from fitts3d.synth import (GRID_LEVELS, GRID_REPETITIONS, PAPER_ERROR_RATE,
                           PAPER_MEAN_MT, Experiment)
from cells import CELLS, PUBLISHED_REPS

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
    for experiment, interaction in CELLS:
        truth = paper_scale_defaults(experiment, interaction)
        grid = build_grid(experiment, interaction)
        mean = math.fsum(
            predict_mt(truth, t) for t in grid.variations) / len(grid.variations)
        assert mean == pytest.approx(
            PAPER_MEAN_MT[(experiment, interaction)], abs=1e-9), (experiment, interaction)


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
        trials = generate_cell(experiment, POINT)
        assert len(trials) == len(trials.tasks) * GRID_REPETITIONS[experiment]


@pytest.mark.parametrize("interaction", [POINT, MANIP])
@pytest.mark.parametrize("experiment", list(Experiment))
def test_generate_matches_stream_oracle(experiment, interaction):
    # re-derive every trial from the documented per-condition stream:
    # one normal then one uniform per repetition
    grid = build_grid(experiment)
    truth = GroundTruth(
        kind=ModelKind.SHANNON,
        coefficients={"intercept": 0.5, "id": 0.35},
        noise_sd=0.2, error_rate=0.1, seed=7)
    log = generate_trials(grid, truth, interaction)
    timeout = interaction.timeout_s
    assert log.tasks == tuple(t._replace(interaction=interaction)
                              for t in grid.variations)
    k = 0
    for ci, task in enumerate(log.tasks):
        stream = Xoshiro256StarStar(derive_stream_seed(7, ci))
        pred = predict_mt(truth, task)
        for _ in range(grid.repetitions):
            z = stream.normal()
            u = stream.random()
            index, mt, success = log.task_index[k], log.mt[k], log.success[k]
            k += 1
            assert index == ci
            assert type(mt) is float and type(success) is bool
            if u < 0.1:
                assert mt == timeout and not success
                continue
            want = max(pred + 0.2 * z, 0.05)
            if want >= timeout:
                assert mt == timeout and not success
            else:
                assert mt == want and success
    assert k == len(log) == len(log.mt) == len(log.success)


def test_generate_noiseless_is_exact():
    grid = build_grid(Experiment.E3)
    truth = GroundTruth(
        kind=ModelKind.FINAL,
        coefficients={"intercept": 0.6, "id_t": 0.2, "id_r": 0.5})
    log = generate_trials(grid, truth, MANIP)
    assert len(log) == 48 * 5
    assert log.task_index == tuple(k for k in range(48) for _ in range(5))
    assert all(log.success)
    for k, mt in zip(log.task_index, log.mt):
        assert mt == predict_mt(truth, log.tasks[k])
    assert [t.omega for t in log.tasks] == [t.omega for t in grid.variations]


def test_generate_error_trials_hit_timeout():
    grid = build_grid(Experiment.E1)
    truth = GroundTruth(
        kind=ModelKind.FITTS,
        coefficients={"intercept": 1.0, "id": 0.1},
        error_rate=0.5, seed=3)
    log = generate_trials(grid, truth, POINT)
    errors = [mt for mt, success in zip(log.mt, log.success) if not success]
    assert 0 < len(errors) < len(log)
    assert all(mt == 15.0 for mt in errors)
    assert all(mt < 15.0 for mt, success in zip(log.mt, log.success) if success)


def test_generate_slow_model_times_out():
    grid = build_grid(Experiment.E1)
    truth = GroundTruth(
        kind=ModelKind.FITTS,
        coefficients={"intercept": 16.0, "id": 0.0})
    log = generate_trials(grid, truth, POINT)
    assert set(log.mt) == {15.0} and not any(log.success)
    # the longer manipulation timeout leaves the same model under budget
    log = generate_trials(grid, truth, MANIP)
    assert set(log.mt) == {16.0} and all(log.success)
    # an infinite prediction is over every budget
    truth = dataclasses.replace(truth, coefficients={"intercept": math.inf, "id": 0.0})
    log = generate_trials(grid, truth, MANIP)
    assert set(log.mt) == {20.0} and not any(log.success)


def test_generate_from_numpy_truth_holds_plain_values(tmp_path):
    # numpy scalars in the truth give the log, and the bytes, of the
    # equal float truth: Python floats and bools, written as such
    grid = build_grid(Experiment.E1)
    coefficients = {"intercept": 0.5, "id": 0.35}
    plain = GroundTruth(ModelKind.SHANNON, coefficients,
                        noise_sd=0.2, error_rate=0.1, seed=7)
    scalars = GroundTruth(ModelKind.SHANNON,
                          {k: np.float64(v) for k, v in coefficients.items()},
                          noise_sd=np.float64(0.2), error_rate=np.float64(0.1),
                          seed=7)
    log = generate_trials(grid, scalars, POINT)
    assert log == generate_trials(grid, plain, POINT)
    assert {type(mt) for mt in log.mt} == {float}
    assert {type(success) for success in log.success} == {bool}
    paths = tmp_path / "plain.csv", tmp_path / "scalars.csv"
    write_trials(paths[0], generate_trials(grid, plain, POINT), Experiment.E1)
    write_trials(paths[1], log, Experiment.E1)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_generate_clamps_tiny_times():
    grid = build_grid(Experiment.E1)
    truth = GroundTruth(
        kind=ModelKind.FITTS,
        coefficients={"intercept": 0.01, "id": 0.0})
    log = generate_trials(grid, truth, POINT)
    assert set(log.mt) == {0.05} and all(log.success)


def test_generate_restamps_interaction():
    grid = build_grid(Experiment.E4, POINT)
    truth = GroundTruth(
        kind=ModelKind.FINAL,
        coefficients={"intercept": 0.6, "id_t": 0.2, "id_r": 0.5})
    log = generate_trials(grid, truth, MANIP)
    assert all(t.interaction is MANIP for t in log.tasks)


def test_data_path_builds_no_trial(tmp_path, monkeypatch):
    # generate, write, read, group and compare a cell while every Trial
    # construction raises: the path carries columns only
    def no_trial(self, *args):
        raise AssertionError("a Trial was built")

    monkeypatch.setattr(Trial, "__init__", no_trial)
    path = tmp_path / "e4.csv"
    log = generate_cell(Experiment.E4, MANIP)
    write_trials(path, log, Experiment.E4)
    read = read_trials(path)
    assert read == log
    for aggregate in (True, False):
        rows = compare_models(ConditionTable(read, aggregate))
        assert all(row.fit is not None for row in rows)
    with pytest.raises(AssertionError, match="a Trial was built"):
        read.trials


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
    with pytest.raises(InvalidTruth, match=r"error_rate must lie in \[0, 1\)"):
        generate_cell("e1", POINT, error_rate=1.0)


@pytest.mark.parametrize("noise_sd", [math.nan, math.inf, -math.inf])
def test_truth_rejects_non_finite_noise(noise_sd):
    with pytest.raises(InvalidTruth, match="noise_sd must be nonnegative and finite"):
        GroundTruth(kind=ModelKind.FITTS,
                    coefficients={"intercept": 0.4, "id": 0.3}, noise_sd=noise_sd)
    with pytest.raises(InvalidTruth, match="noise_sd must be nonnegative and finite"):
        generate_cell("e1", POINT, noise_sd=noise_sd)


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 7, 1.5, 2.0, True])
def test_truth_rejects_seed_outside_64_bits(seed):
    # a seed is not reduced mod 2**64: -1 would alias 2**64 - 1, 2**64 alias 0;
    # nor truncated: 1.5 would alias 1, and a bool is not a seed
    with pytest.raises(InvalidTruth, match=r"seed must be an integer in \[0, 2\*\*64\)"):
        GroundTruth(kind=ModelKind.FITTS,
                    coefficients={"intercept": 0.4, "id": 0.3}, seed=seed)
    with pytest.raises(InvalidTruth, match=r"seed must be an integer in \[0, 2\*\*64\)"):
        generate_cell("e1", POINT, seed=seed)


def test_truth_accepts_seed_range_ends():
    for seed in (0, 2**64 - 1):
        GroundTruth(kind=ModelKind.FITTS,
                    coefficients={"intercept": 0.4, "id": 0.3}, seed=seed)


@pytest.mark.parametrize("intercept", [-1.0, 0.0, math.nan])
def test_generate_rejects_nonpositive_predictions(intercept):
    grid = build_grid(Experiment.E1)
    truth = GroundTruth(
        kind=ModelKind.FITTS,
        coefficients={"intercept": intercept, "id": 0.0})
    with pytest.raises(InvalidTruth, match="condition index 0"):
        generate_trials(grid, truth, POINT)


def test_predict_mt_value():
    truth = GroundTruth(
        kind=ModelKind.FITTS, coefficients={"intercept": 0.4, "id": 0.3})
    task = TaskSpec(F=3, W=5, A=12)
    # 0.4 + 0.3 * log2(24/5)
    assert predict_mt(truth, task) == pytest.approx(
        0.4 + 0.3 * math.log2(4.8), abs=1e-12)


@pytest.mark.parametrize("experiment,interaction", CELLS)
def test_generate_cell_is_the_grid_under_the_paper_truth(experiment, interaction):
    grid = build_grid(experiment, interaction)
    paper = paper_scale_defaults(experiment, interaction)
    # a value given replaces the paper's; one left out keeps it
    for given in ({}, {"seed": 5}, {"seed": 2**64 - 1}, {"seed": 5, "noise_sd": 0.3},
                  {"seed": 5, "error_rate": 0.1},
                  {"seed": 5, "noise_sd": 0.0, "error_rate": 0.5}):
        assert (generate_cell(experiment, interaction, **given) == generate_trials(
            grid, dataclasses.replace(paper, **given), interaction)), given


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# the benchmark's recorded sha256 of each default-seed log, read-only here
DIGESTS = PERFBENCH / "digests.json"


def test_published_reps_are_the_benchmarks():
    tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    tables = [ast.literal_eval(node.value) for node in tree.body
              if isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "PUBLISHED_REPS" for t in node.targets)]
    assert tables == [PUBLISHED_REPS]


@pytest.mark.parametrize("interaction", ["pointing", "manipulation"])
@pytest.mark.parametrize("experiment", sorted(PUBLISHED_REPS))
def test_published_scale_log_matches_recorded_digest(tmp_path, experiment, interaction):
    reps = PUBLISHED_REPS[experiment]
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))[
        f"{experiment}-{interaction}-r{reps}-s0"]
    grid = dataclasses.replace(build_grid(experiment, interaction), repetitions=reps)
    truth = paper_scale_defaults(experiment, interaction)
    log = generate_trials(grid, truth, interaction)
    assert len(log) == 4800
    path = tmp_path / "log.csv"
    write_trials(path, log, experiment)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == want
