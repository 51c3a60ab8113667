import json
import operator
import warnings
from dataclasses import replace

import pytest

from fitts3d import report as report_module
from fitts3d.cli import main
from fitts3d.trial_io import POSE_CSV_HEADER, TRIAL_CSV_HEADER
from fitts3d import (Trial, build_grid, format_equation, generate_trials,
                     paper_scale_defaults, read_trials, render_document,
                     write_trials)


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


@pytest.mark.parametrize("verb", ["fit", "compare", "stepwise"])
def test_analysis_verbs_build_no_trial(tmp_path, capsys, monkeypatch, verb):
    # the verbs group the log's columns; no Trial object is built
    path, _ = _generate(tmp_path, capsys)

    def refuse(self):
        raise AssertionError("a Trial was built")

    monkeypatch.setattr(Trial, "__post_init__", refuse)
    for aggregate in ("true", "false"):
        assert main([verb, str(path), "--aggregate", aggregate]) == 0
    assert capsys.readouterr().err == ""
    with pytest.raises(AssertionError):
        read_trials(path).trials


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


# a JSON token that is not a finite number -> its test id
_NON_FINITE = {"NaN": "nan", "Infinity": "inf", "-Infinity": "-inf",
               "1e999": "1e999", "-1e999": "-1e999"}
# where a non-finite number is put -> the field a SchemaError names
_NON_FINITE_PLACES = {"r2": "models[0].r2", "coefficient": "models[0].coefficients",
                      "points": "models[0].points", "f_stat": "steps[0].f_stat"}


def _document_holding(place, value):
    """A well-formed report document with value at place."""
    if place == "f_stat":
        return {"schema": "fitts3d.stepwise/1",
                "steps": [{"action": "enter", "variable": "A", "f_stat": value,
                           "p_value": 0.01, "r2": 0.5}],
                "selected": ["A"], "contributions_percent": {"A": 50.0}, "r2": 0.5}
    coefficients = {"intercept": 0.4, "id": value if place == "coefficient" else 0.3}
    entry = {"model": "fitts", "r2": value if place == "r2" else 0.9, "n": 2,
             "coefficients": coefficients,
             "equation": format_equation(coefficients, ["id"]),
             "dropped": [], "error": None, "point_names": ["id", "mt"],
             "points": [[1.0, 0.7], [2.0, value if place == "points" else 1.0]]}
    return {"schema": "fitts3d.report/1", "n_trials": 2, "aggregate": True,
            "models": [entry]}


@pytest.mark.parametrize("token", list(_NON_FINITE), ids=list(_NON_FINITE.values()))
@pytest.mark.parametrize("place", list(_NON_FINITE_PLACES))
def test_report_rejects_non_finite_constants(tmp_path, capsys, place, token):
    """NaN and the infinities are not JSON; a literal such as 1e999 is,
    but it overflows to an infinity, which the document's checks reject."""
    value = json.loads(token)  # nan, inf or -inf
    text = json.dumps(_document_holding(place, value), indent=2)
    assert text.count(json.dumps(value)) == 1
    text = text.replace(json.dumps(value), token)
    if token in ("NaN", "Infinity", "-Infinity"):
        message = f"not a JSON document: {token} is not a JSON value"
    else:
        message = f"malformed report document: {_NON_FINITE_PLACES[place]} must be finite"
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    for fmt in ("table", "json-like"):
        assert main(["report", str(path), "--format", fmt]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


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
    ({"schema": "fitts3d.report/1",
      "models": [{"model": "fitts", "r2": 0.5, "n": 3,
                  "coefficients": {"intercept": 0.1, "id": 0.3},
                  "equation": "MT = 0.1000 + 0.2000*id"}]},
     "models[0].equation must match its coefficients"),
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


_STEP = {"action": "enter", "variable": "A", "f_stat": 12.0, "p_value": 0.01,
         "r2": 0.5}
# a key that takes a default when null -> the error for a value of another type
_DEFAULTED = {
    "dropped": "models[0].dropped must list names",
    "point_names": "models[0].point_names must list names",
    "points": "models[0].points must be a list of lists of numbers",
    "selected": "'selected' must list names",
    "contributions_percent": "'contributions_percent' must map names to numbers",
}


@pytest.mark.parametrize("key,value", [
    (key, value) for key in _DEFAULTED
    for value in (False, 0, "", [] if key == "contributions_percent" else {})])
@pytest.mark.parametrize("fmt", ["table", "json-like"])
def test_report_rejects_a_falsy_value_of_the_wrong_type(tmp_path, capsys, key,
                                                        value, fmt):
    # only null or a missing key takes the default
    if key in ("selected", "contributions_percent"):
        doc = {"schema": "fitts3d.stepwise/1", "steps": [_STEP], key: value}
    else:
        doc = {"schema": "fitts3d.report/1", "models": [
            {"model": "fitts", "r2": 0.5, "n": 3, "equation": "MT = 1.0000",
             key: value}]}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["report", str(path), "--format", fmt]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        f"error: malformed report document: {_DEFAULTED[key]}\n"


@pytest.mark.parametrize("doc", [
    {"schema": "fitts3d.report/1", "models": [
        {"model": "fitts", "r2": 10 ** 400, "n": 3, "equation": "MT = 1.0000"}]},
    {"schema": "fitts3d.report/1", "models": [
        {"model": "fitts", "r2": 0.5, "n": 3, "coefficients": {"intercept": 10 ** 400},
         "equation": "MT = 1.0000"}]},
    {"schema": "fitts3d.stepwise/1", "steps": [dict(_STEP, f_stat=10 ** 400)]},
    {"schema": "fitts3d.stepwise/1", "steps": [dict(_STEP, p_value=10 ** 400)]},
    {"schema": "fitts3d.stepwise/1", "steps": [dict(_STEP, r2=10 ** 400)]},
    {"schema": "fitts3d.stepwise/1", "steps": [_STEP], "selected": ["A"],
     "contributions_percent": {"A": 10 ** 400}},
    {"schema": "fitts3d.stepwise/1", "steps": [_STEP], "r2": 10 ** 400},
])
@pytest.mark.parametrize("fmt", ["table", "json-like"])
def test_report_rejects_integer_too_large_for_a_float(tmp_path, capsys, doc, fmt):
    # the table formats these numbers as floats, so JSON must refuse them too
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["report", str(path), "--format", fmt]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: int too large to convert to float\n"


def test_report_renders_saved_stepwise_document(tmp_path, capsys):
    path, _ = _generate(tmp_path, capsys, experiment="e1")
    doc_path = tmp_path / "sw.json"
    assert main(["stepwise", str(path), "--format", "json-like",
                 "--out", str(doc_path)]) == 0
    assert main(["report", str(doc_path)]) == 0
    table = capsys.readouterr().out
    assert main(["stepwise", str(path)]) == 0
    assert capsys.readouterr().out == table


def _assert_report_prints_render_document(path, capsys):
    """fitts3d report prints render_document of json.loads' document."""
    text = path.read_text(encoding="utf-8")
    for fmt in ("table", "json-like"):
        assert main(["report", str(path), "--format", fmt]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == render_document(json.loads(text), fmt)


def test_report_reads_a_published_scale_per_trial_document(tmp_path, capsys,
                                                           monkeypatch):
    # e4 pointing at the published 4 800 trials, every model fitted per trial
    grid = replace(build_grid("e4", "pointing"), repetitions=75)
    log = tmp_path / "log.csv"
    write_trials(log, generate_trials(grid, paper_scale_defaults("e4", "pointing"),
                                      "pointing"), "e4")
    path = tmp_path / "fit.json"
    assert main(["fit", str(log), "--aggregate", "false", "--format", "json-like",
                 "--out", str(path)]) == 0
    _assert_report_prints_render_document(path, capsys)
    # each read parses a number text once: every model shares the response
    # column's floats, and a second read shares none of them
    docs = []
    monkeypatch.setattr(report_module, "render_document",
                        lambda doc, fmt: docs.append(doc) or "")
    assert main(["report", str(path)]) == main(["report", str(path)]) == 0
    mt = [[[row[-1] for row in m["points"]] for m in doc["models"]] for doc in docs]
    assert len(mt[0]) == 7 and len(mt[0][0]) == docs[0]["models"][0]["n"] > 4000
    assert all(all(map(operator.is_, mt[0][0], other)) for other in mt[0][1:])
    assert not any(map(operator.is_, mt[0][0], mt[1][0]))


# number texts whose parse a memo of texts must keep apart or alike: both
# zeros, an exponent in capitals, an underflow to 0.0, 17 digits, a
# mantissa longer than a double holds, and ints beside equal floats
_NUMBER_TEXTS = """{
  "schema": "fitts3d.report/1", "n_trials": 6, "aggregate": false,
  "models": [{"model": "fitts", "r2": 0.30000000000000004, "n": 6,
    "coefficients": {"intercept": 1E+2, "id": -0.0},
    "equation": "MT = 100.0000 + 0.0000*id", "dropped": [], "error": null,
    "point_names": ["id", "mt"],
    "points": [[-0.0, 0.30000000000000004], [0.0, 1e-400], [-0.0, 0.0],
               [1E+2, 100.0], [100, 1],
               [3.14159265358979323846264338327950288419716939937510, 1.0]]}]
}
"""


def test_report_reads_each_number_text_as_json_does(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(_NUMBER_TEXTS, encoding="utf-8")
    _assert_report_prints_render_document(path, capsys)
    assert main(["report", str(path), "--format", "json-like"]) == 0
    points = json.loads(capsys.readouterr().out)["models"][0]["points"]
    assert json.dumps(points) == (
        "[[-0.0, 0.30000000000000004], [0.0, 0.0], [-0.0, 0.0], [100.0, 100.0], "
        "[100, 1], [3.141592653589793, 1.0]]")


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


def _log(tmp_path, *rows):
    path = tmp_path / "log.csv"
    path.write_text("\n".join([TRIAL_CSV_HEADER, *rows]) + "\n", encoding="utf-8")
    return path


def test_stepwise_skips_candidate_without_residual_df(tmp_path, capsys):
    # once A is in, W would fit three conditions exactly with no residual df
    path = _log(tmp_path, "e1,pointing,3.0,5.0,12.0,90.0,0.0,0.0,0.0,1.0,1",
                "e1,pointing,3.0,7.5,24.0,90.0,0.0,0.0,0.0,2.0,1",
                "e1,pointing,3.0,5.0,36.0,90.0,0.0,0.0,0.0,3.001,1")
    assert main(["stepwise", str(path), "--candidates", "A"]) == 0
    only_a = capsys.readouterr()
    assert "selected: A\n" in only_a.out
    assert main(["stepwise", str(path)]) == 0
    assert capsys.readouterr() == only_a


def test_stepwise_json_refuses_an_infinite_f(tmp_path, capsys):
    # an exactly linear log gives F = inf, which report would reject
    path = _log(tmp_path, "e3,pointing,3.0,5.0,0.0,0.0,0.0,0.0,0.0,1.0,1",
                "e3,pointing,3.0,5.0,2.0,0.0,0.0,0.0,0.0,3.0,1",
                "e3,pointing,3.0,5.0,4.0,0.0,0.0,0.0,0.0,5.0,1")
    out_path = tmp_path / "stepwise.json"
    rc = main(["stepwise", str(path), "--format", "json-like", "--out", str(out_path)])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (1, "")
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not out_path.exists()


def test_compare_gives_error_row_for_all_constant_predictors(tmp_path, capsys):
    # two conditions that differ only in phi leave fitts nothing to fit
    path = _log(tmp_path, "e2,pointing,5.0,5.0,12.0,0.0,15.0,0.0,0.0,1.0,1",
                "e2,pointing,5.0,5.0,12.0,90.0,15.0,0.0,0.0,1.5,1")
    assert main(["compare", str(path)]) == 0
    rows = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()[2:9]}
    assert rows["fitts"].split(None, 3)[3] == (
        "RankDeficient: all fitts predictors are constant on this data")


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


def test_classify_header_only_pose_file(tmp_path, capsys):
    poses = tmp_path / "poses.csv"
    poses.write_text(POSE_CSV_HEADER + "\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["classify", str(poses)])
    captured = capsys.readouterr()
    assert (rc, captured.err) == (0, "")
    assert captured.out == \
        POSE_CSV_HEADER + ",trans_success,rot_success,combined_success\n"


def test_missing_input_is_exit_1(tmp_path, capsys):
    rc = main(["fit", str(tmp_path / "absent.csv")])
    assert rc == 1
    assert "no such file" in capsys.readouterr().err


def test_unknown_model_is_exit_2(tmp_path, capsys):
    path, _ = _generate(tmp_path, capsys)
    rc = main(["fit", str(path), "--models", "einstein"])
    assert rc == 2
    assert "unknown model" in capsys.readouterr().err


@pytest.mark.parametrize("names", [(), ("A", "A"), ("F", "bogus")])
def test_condition_matrix_raises_the_cli_candidate_message(tmp_path, capsys, names):
    from fitts3d import ConditionTable, condition_matrix

    path, _ = _generate(tmp_path, capsys, experiment="e1")
    assert main(["stepwise", str(path), "--candidates", ",".join(names)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.endswith("\n")
    with pytest.raises(ValueError) as raised:
        condition_matrix(ConditionTable(read_trials(path)), names)
    assert str(raised.value) == err[len("usage error: "):-1]


def test_duplicate_candidates_is_exit_2(tmp_path, capsys):
    path, _ = _generate(tmp_path, capsys, experiment="e1")
    rc = main(["stepwise", str(path), "--candidates", "A,A,W"])
    assert rc == 2
    assert capsys.readouterr().err == "usage error: duplicate candidate names: A\n"


@pytest.mark.parametrize("verb,flag,value,fragment", [
    ("fit", "--models", ",", "no models given"),
    ("stepwise", "--candidates", ",", "no candidate variables given"),
    ("stepwise", "--candidates", "F,bogus", "unknown candidates: bogus"),
])
def test_empty_or_unknown_names_are_exit_2(tmp_path, capsys, verb, flag, value, fragment):
    path, _ = _generate(tmp_path, capsys, experiment="e1")
    assert main([verb, str(path), flag, value]) == 2
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
def test_generate_rejects_seed_outside_64_bits(tmp_path, capsys, seed):
    out_path = tmp_path / "log.csv"
    rc = main(["generate", "--experiment", "e1", "--interaction", "pointing",
               "--seed", seed, "--out", str(out_path)])
    captured = capsys.readouterr()
    assert (rc, captured.out, captured.err) == (
        1, "", "error: seed must be an integer in [0, 2**64)\n")
    assert not out_path.exists()


def test_generate_accepts_the_largest_64_bit_seed(tmp_path, capsys):
    # the CLI passes 2**64 - 1 through unchanged to the generator
    path, out = _generate(tmp_path, capsys, experiment="e4",
                          seed="18446744073709551615")
    assert out.startswith("wrote 256 trials")
    truth = replace(paper_scale_defaults("e4", "pointing"), seed=2**64 - 1)
    expected = tmp_path / "expected.csv"
    write_trials(expected, generate_trials(build_grid("e4", "pointing"), truth,
                                           "pointing"), "e4")
    assert path.read_bytes() == expected.read_bytes()


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


_GROUPING_ERROR = "error: need at least two distinct conditions\n"


def test_compare_grouping_failure_gives_error_rows(tmp_path, capsys):
    # a log that cannot be grouped has no model rows: compare fails as a whole
    path = _one_condition_log(tmp_path)
    assert main(["compare", str(path)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", _GROUPING_ERROR)


def test_fit_grouping_failure_gives_error_entries(tmp_path, capsys):
    # no document is written for a log that cannot be grouped
    path = _one_condition_log(tmp_path)
    out_path = tmp_path / "report.json"
    assert main(["fit", str(path), "--models", "final,fitts",
                 "--aggregate", "false", "--format", "json-like",
                 "--out", str(out_path)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", _GROUPING_ERROR)
    assert not out_path.exists()


def test_stepwise_grouping_failure_is_exit_1(tmp_path, capsys):
    path = _one_condition_log(tmp_path)
    assert main(["stepwise", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == _GROUPING_ERROR


def test_per_trial_log_without_successes(tmp_path, capsys):
    path = _one_condition_log(tmp_path, successes=(0, 0))
    for verb in ("compare", "stepwise"):
        assert main([verb, str(path), "--aggregate", "false"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: no successful trials\n")


_COND_A = "e1,pointing,3.0,5.0,12.0,90.0,0.0,0.0,0.0"
_COND_B = "e1,pointing,3.0,5.0,24.0,90.0,0.0,0.0,0.0"

# log name -> (rows after the header, --aggregate, error message); the
# last two cannot even be read
_UNGROUPABLE = {
    "header-only": ([], "true", "no trials"),
    "header-only-per-trial": ([], "false", "no trials"),
    "per-trial-without-success": (
        [f"{_COND_A},15.0,0", f"{_COND_B},15.0,0"], "false", "no successful trials"),
    "condition-without-success": (
        [f"{_COND_A},0.9,1", f"{_COND_B},15.0,0"], "true",
        "no successful trials for condition F_cm=3.0, W_cm=5.0, A_cm=24.0, "
        "phi_deg=90.0, theta_deg=0.0, alpha_deg=0.0, omega_deg=0.0, interaction=pointing"),
    "one-condition": (
        [f"{_COND_A},0.9,1", f"{_COND_A},1.4,1"], "true",
        "need at least two distinct conditions"),
    "one-condition-per-trial": (
        [f"{_COND_A},0.9,1", f"{_COND_A},1.4,1", f"{_COND_B},15.0,0"], "false",
        "need at least two distinct conditions"),
    "success-after-timeout": (
        [f"{_COND_A},20.0,1", f"{_COND_B},0.9,1"], "true",
        "line 2: successful trials cannot exceed the timeout"),
    "nan-time": (
        [f"{_COND_A},0.9,1", f"{_COND_B},1.4,1", f"{_COND_A},nan,1"], "false",
        "line 4, column 'mt_s': not finite: 'nan'"),
}


@pytest.mark.parametrize("fmt", ["table", "json-like"])
@pytest.mark.parametrize("verb", ["fit", "compare", "stepwise"])
@pytest.mark.parametrize("log", list(_UNGROUPABLE))
def test_ungroupable_log_ends_in_one_error_line(tmp_path, capsys, log, verb, fmt):
    rows, aggregate, message = _UNGROUPABLE[log]
    path = tmp_path / "log.csv"
    path.write_text("\n".join([TRIAL_CSV_HEADER, *rows]) + "\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # nothing but the error line on stderr
        rc = main([verb, str(path), "--aggregate", aggregate, "--format", fmt])
    captured = capsys.readouterr()
    assert (rc, captured.out, captured.err) == (1, "", f"error: {message}\n")


def test_compare_reports_overflowing_index_as_error_row(tmp_path, capsys):
    # 2A / W and A / W overflow to inf in the first condition; W + F does not
    path = tmp_path / "overflow.csv"
    rows = ["e1,pointing,3.0,1e-300,1e300,0.0,0.0,0.0,0.0,0.9,1",
            "e1,pointing,3.0,5.0,12.0,90.0,0.0,0.0,0.0,0.8,1",
            "e1,pointing,3.0,5.0,24.0,0.0,30.0,0.0,0.0,1.1,1"]
    path.write_text("\n".join([TRIAL_CSV_HEADER, *rows]) + "\n", encoding="utf-8")
    assert main(["compare", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    errors = {line.split()[0] for line in lines
              if line.endswith("-  DomainError: difficulty index is not finite")}
    assert errors == {"fitts", "welford", "shannon", "murata-iwase"}
