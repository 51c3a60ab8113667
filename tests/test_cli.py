import json

import pytest

from fitts3d.cli import main
from fitts3d.trial_io import POSE_CSV_HEADER, TRIAL_CSV_HEADER
from fitts3d import read_trials


def _generate(tmp_path, capsys, name="log.csv", experiment="e4", seed="0",
              extra=()):
    path = tmp_path / name
    rc = main(["generate", "--experiment", experiment,
               "--interaction", "pointing", "--seed", seed,
               "--out", str(path), *extra])
    assert rc == 0
    return path, capsys.readouterr().out


def test_generate_writes_log(tmp_path, capsys):
    path, out = _generate(tmp_path, capsys)
    assert "wrote 256 trials (64 conditions x 4 repetitions)" in out
    assert str(path) in out
    log = read_trials(path)
    assert len(log.trials) == 256
    assert log.experiment == "e4"


def test_generate_is_deterministic(tmp_path, capsys):
    a, _ = _generate(tmp_path, capsys, "a.csv")
    b, _ = _generate(tmp_path, capsys, "b.csv")
    assert a.read_bytes() == b.read_bytes()
    c, _ = _generate(tmp_path, capsys, "c.csv", seed="1")
    assert c.read_bytes() != a.read_bytes()


def test_generate_noise_override(tmp_path, capsys):
    path, _ = _generate(tmp_path, capsys, extra=("--noise-sd", "0", "--error-rate", "0"))
    log = read_trials(path)
    assert all(t.success for t in log.trials)
    # noiseless trials repeat the per-condition prediction exactly
    mts = {}
    for t in log.trials:
        mts.setdefault(t.task, set()).add(t.mt)
    assert all(len(v) == 1 for v in mts.values())


def test_fit_table_output(tmp_path, capsys):
    path, _ = _generate(tmp_path, capsys)
    rc = main(["fit", str(path), "--models", "final,fitts"])
    assert rc == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].split() == ["model", "r2", "n", "fit"]
    assert sum(1 for l in lines if l.startswith(("final", "fitts"))) == 2
    assert "observations: 256 trials, aggregate=true" in out


def test_fit_json_output_parses(tmp_path, capsys):
    path, _ = _generate(tmp_path, capsys)
    rc = main(["fit", str(path), "--format", "json-like"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "fitts3d.report/1"
    assert len(doc["models"]) == 7
    assert doc["models"][0]["model"] == "final"


def test_fit_out_file(tmp_path, capsys):
    path, _ = _generate(tmp_path, capsys)
    out_path = tmp_path / "fit.txt"
    rc = main(["fit", str(path), "--out", str(out_path)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    assert "model" in out_path.read_text(encoding="utf-8")


def test_compare_lists_all_models(tmp_path, capsys):
    path, _ = _generate(tmp_path, capsys)
    rc = main(["compare", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    for name in ("fitts", "hoffmann", "welford", "shannon",
                 "murata-iwase", "cha-myung", "final"):
        assert name in out


def test_report_round_trip(tmp_path, capsys):
    path, _ = _generate(tmp_path, capsys)
    doc_path = tmp_path / "report.json"
    rc = main(["compare", str(path), "--format", "json-like",
               "--out", str(doc_path)])
    assert rc == 0
    rc = main(["report", str(doc_path)])
    assert rc == 0
    table = capsys.readouterr().out
    rc = main(["compare", str(path)])
    assert rc == 0
    assert capsys.readouterr().out == table


def test_report_rejects_non_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json", encoding="utf-8")
    rc = main(["report", str(bad)])
    assert rc == 1
    assert "not a JSON document" in capsys.readouterr().err


def test_report_rejects_deeply_nested_json(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    rc = main(["report", str(deep)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: not a JSON document: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("noise", ["nan", "inf"])
def test_generate_rejects_non_finite_noise(tmp_path, capsys, noise):
    path = tmp_path / "log.csv"
    rc = main(["generate", "--experiment", "e4", "--interaction", "pointing",
               "--noise-sd", noise, "--out", str(path)])
    assert rc == 1
    assert capsys.readouterr().err == \
        "error: noise_sd must be nonnegative and finite\n"
    assert not path.exists()


@pytest.mark.parametrize("doc,fragment", [
    ({"schema": "fitts3d.report/1", "models": [1]}, "models[0] must be an object"),
    ({"schema": "fitts3d.report/1",
      "models": [{"model": "fitts", "r2": None, "n": 3, "equation": "MT = 1",
                  "error": None}]}, "models[0].r2 must be a number"),
    ({"schema": "fitts3d.stepwise/1",
      "steps": [{"action": "enter", "variable": "A", "f_stat": "large",
                 "p_value": 0.01, "r2": 0.5}],
      "selected": ["A"]}, "steps[0].f_stat must be a number"),
    ({"schema": "fitts3d.stepwise/1",
      "steps": [{"variable": "A", "f_stat": 12.0, "p_value": 0.01, "r2": 0.5}],
      "selected": ["A"]}, 'steps[0].action must be "enter" or "remove"'),
])
@pytest.mark.parametrize("fmt", ["table", "json-like"])
def test_report_rejects_malformed_document(tmp_path, capsys, doc, fragment, fmt):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    rc = main(["report", str(path), "--format", fmt])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: malformed report document: {fragment}\n"


def test_report_renders_saved_stepwise_document(tmp_path, capsys):
    path, _ = _generate(tmp_path, capsys, experiment="e1")
    doc_path = tmp_path / "sw.json"
    assert main(["stepwise", str(path), "--format", "json-like",
                 "--out", str(doc_path)]) == 0
    assert main(["report", str(doc_path)]) == 0
    table = capsys.readouterr().out
    assert main(["stepwise", str(path)]) == 0
    assert capsys.readouterr().out == table


def test_stepwise_runs(tmp_path, capsys):
    path, _ = _generate(tmp_path, capsys, experiment="e1")
    rc = main(["stepwise", str(path), "--candidates", "F,W,A"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].split() == [
        "step", "action", "variable", "F", "p", "r2"]
    assert "selected: " in out and "final r2:" in out


def test_stepwise_json(tmp_path, capsys):
    path, _ = _generate(tmp_path, capsys, experiment="e1")
    rc = main(["stepwise", str(path), "--format", "json-like"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "fitts3d.stepwise/1"
    assert "A" in doc["selected"]


def test_classify_appends_flags(tmp_path, capsys):
    poses = tmp_path / "poses.csv"
    poses.write_text(
        POSE_CSV_HEADER + "\n"
        "0.0,0.0,0.0,0.0,0.0,0.0,1.0,0.0,0.0,0.0,0.0,0.0,5.0,2.5\n"
        "0.0,0.0,0.0,0.0,0.0,0.0,9.0,0.0,0.0,44.0,0.0,0.0,5.0,2.5\n"
        "0.0,0.0,0.0,0.0,0.0,0.0,1.0,0.0,0.0,89.0,0.0,0.0,5.0,2.5\n",
        encoding="utf-8")
    rc = main(["classify", str(poses)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == POSE_CSV_HEADER + ",trans_success,rot_success,combined_success"
    assert lines[1].endswith(",1,1,1")    # on target, aligned
    assert lines[2].endswith(",0,0,0")    # 9 cm off, 44 degrees off
    assert lines[3].endswith(",1,1,1")    # 89 deg = 1 deg under symmetry
    assert len(lines) == 4


def test_classify_out_file(tmp_path, capsys):
    poses = tmp_path / "poses.csv"
    poses.write_text(
        POSE_CSV_HEADER + "\n"
        "0.0,0.0,0.0,0.0,0.0,0.0,1.0,0.0,0.0,0.0,0.0,0.0,5.0,2.5\n",
        encoding="utf-8")
    out_path = tmp_path / "flags.csv"
    rc = main(["classify", str(poses), "--out", str(out_path)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    assert out_path.read_text(encoding="utf-8").endswith(",1,1,1\n")


def test_missing_input_is_exit_1(tmp_path, capsys):
    rc = main(["fit", str(tmp_path / "absent.csv")])
    assert rc == 1
    assert "no such file" in capsys.readouterr().err


def test_unknown_model_is_exit_2(tmp_path, capsys):
    path, _ = _generate(tmp_path, capsys)
    rc = main(["fit", str(path), "--models", "einstein"])
    assert rc == 2
    assert "unknown model" in capsys.readouterr().err


def test_duplicate_candidates_is_exit_2(tmp_path, capsys):
    path, _ = _generate(tmp_path, capsys, experiment="e1")
    rc = main(["stepwise", str(path), "--candidates", "A,A,W"])
    assert rc == 2
    assert "duplicate candidate" in capsys.readouterr().err


def test_bad_flag_value_raises_system_exit_2(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["generate", "--experiment", "e9",
              "--interaction", "pointing", "--out", str(tmp_path / "x.csv")])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["fit"])  # missing positional input
    assert err.value.code == 2


def test_bad_schema_is_exit_1(tmp_path, capsys):
    path = tmp_path / "wrong.csv"
    path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
    rc = main(["fit", str(path)])
    assert rc == 1
    assert "header" in capsys.readouterr().err


def _one_condition_log(tmp_path, successes=(1, 1)):
    """An e1 log whose trials all share one condition."""
    path = tmp_path / "one.csv"
    rows = [f"e1,pointing,3.0,5.0,12.0,90.0,0.0,0.0,0.0,{mt},{ok}"
            for mt, ok in zip((0.8534577155865163, 1.487059962784706), successes)]
    path.write_text("\n".join([TRIAL_CSV_HEADER, *rows]) + "\n", encoding="utf-8")
    return path


_GROUPING_ERROR = "InsufficientData: need at least two distinct conditions"


def test_compare_grouping_failure_gives_error_rows(tmp_path, capsys):
    path = _one_condition_log(tmp_path)
    assert main(["compare", str(path)]) == 0
    names = ("fitts", "hoffmann", "welford", "shannon", "murata-iwase",
             "cha-myung", "final")
    assert capsys.readouterr().out == "\n".join([
        "model         r2  n  fit",
        "------------  --  -  " + "-" * len(_GROUPING_ERROR),
        *(f"{name:<12}  -   -  {_GROUPING_ERROR}" for name in names),
        "",
        "observations: 2 trials, aggregate=true",
    ]) + "\n"


def test_fit_grouping_failure_gives_error_entries(tmp_path, capsys):
    path = _one_condition_log(tmp_path)
    assert main(["fit", str(path), "--models", "final,fitts",
                 "--aggregate", "false", "--format", "json-like"]) == 0
    doc = json.loads(capsys.readouterr().out)
    error_entry = {"r2": None, "n": None, "coefficients": None,
                   "equation": None, "dropped": [], "error": _GROUPING_ERROR,
                   "point_names": None, "points": None}
    assert doc == {"schema": "fitts3d.report/1", "n_trials": 2,
                   "aggregate": False,
                   "models": [{"model": "fitts", **error_entry},
                              {"model": "final", **error_entry}]}


def test_stepwise_grouping_failure_is_exit_1(tmp_path, capsys):
    path = _one_condition_log(tmp_path)
    assert main(["stepwise", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: need at least two distinct conditions\n"


def test_per_trial_log_without_successes(tmp_path, capsys):
    path = _one_condition_log(tmp_path, successes=(0, 0))
    assert main(["compare", str(path), "--aggregate", "false"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert all(l.endswith("  InsufficientData: no successful trials")
               for l in lines[2:9])
    assert main(["stepwise", str(path), "--aggregate", "false"]) == 1
    assert capsys.readouterr().err == "error: no successful trials\n"
