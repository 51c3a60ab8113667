import json

import numpy as np

import pytest

from fitts3d import (ConditionTable, GroundTruth, InteractionKind, ModelKind, SchemaError,
                     build_comparison_report, build_grid, condition_matrix,
                     format_equation, generate_trials, render_comparison,
                     render_document, render_stepwise, stepwise,
                     stepwise_document)
from fitts3d.report import REPORT_SCHEMA, STEPWISE_SCHEMA

POINT = InteractionKind.POINTING


def _trials(experiment="e4", seed=0, noise=0.05):
    grid = build_grid(experiment, POINT)
    truth = GroundTruth(
        kind=ModelKind.FINAL,
        coefficients={"intercept": 0.4, "id_t": 0.25, "id_r": 0.45},
        noise_sd=noise, seed=seed)
    return generate_trials(grid, truth, POINT)


def test_format_equation():
    assert format_equation({"intercept": 0.4, "id": 0.3}, ("id",)) == \
        "MT = 0.4000 + 0.3000*id"
    eq = format_equation(
        {"intercept": 1.25, "id_t": -0.5, "id_r": 0.125}, ("id_t", "id_r"))
    assert eq == "MT = 1.2500 - 0.5000*id_t + 0.1250*id_r"
    assert format_equation({"intercept": -0.1}, ()) == "MT = -0.1000"


def test_comparison_report_structure():
    report = build_comparison_report(_trials(), list(ModelKind))
    assert report["schema"] == REPORT_SCHEMA
    assert report["n_trials"] == 64 * 4
    assert report["aggregate"] is True
    models = report["models"]
    assert len(models) == len(ModelKind)
    assert models[0]["model"] == "final"  # the planted model wins
    assert models[0]["r2"] > 0.95
    r2s = [m["r2"] for m in models if m["error"] is None]
    assert r2s == sorted(r2s, reverse=True)
    top = models[0]
    assert top["point_names"] == ["id_t", "id_r", "mt"]
    assert len(top["points"]) == 64
    assert top["equation"].startswith("MT = ")


def test_comparison_report_without_points():
    report = build_comparison_report(_trials(), [ModelKind.FITTS],
                                     include_points=False)
    assert report["models"][0]["points"] is None
    assert report["models"][0]["point_names"] is None


def test_comparison_report_error_rows_sink():
    # translational A=0 rows break ratio-based indices inline
    from fitts3d import TaskSpec, Trial
    tasks = [TaskSpec(F=3, W=5, A=a) for a in (0.0, 12.0, 24.0, 36.0)]
    trials = [Trial(t, 0.4 + 0.3 * (i + 1), True)
              for i, t in enumerate(tasks)]
    report = build_comparison_report(
        trials, [ModelKind.FITTS, ModelKind.WELFORD])
    welford, fitts = report["models"]
    assert welford["model"] == "welford"
    assert welford["error"] is None
    assert fitts["model"] == "fitts"
    assert fitts["error"] is not None


def test_comparison_table_renders_all_rows():
    report = build_comparison_report(_trials(), list(ModelKind))
    text = render_comparison(report, "table")
    lines = text.splitlines()
    assert lines[0].split() == ["model", "r2", "n", "fit"]
    for kind in ModelKind:
        assert any(line.startswith(kind.value) for line in lines)
    assert "observations: 256 trials, aggregate=true" in text
    assert text.endswith("\n")


def test_comparison_json_round_trip():
    report = build_comparison_report(_trials(), list(ModelKind))
    text = render_comparison(report, "json-like")
    doc = json.loads(text)
    assert doc["schema"] == REPORT_SCHEMA
    assert doc == report
    # a reloaded document renders to the same table as the live report
    assert render_document(doc, "table") == render_comparison(report, "table")
    assert render_document(doc, "json-like") == text


def test_render_comparison_unknown_format():
    report = build_comparison_report(_trials(), [ModelKind.FITTS])
    with pytest.raises(ValueError, match="unknown format 'yaml'"):
        render_comparison(report, "yaml")


def test_render_stepwise_and_document_unknown_format():
    report = build_comparison_report(_trials(), [ModelKind.FITTS])
    sw = _stepwise_report()
    with pytest.raises(ValueError, match="unknown format 'yaml'"):
        render_stepwise(sw, "yaml")
    for doc in (report, stepwise_document(sw)):
        with pytest.raises(ValueError, match="unknown format 'yaml'"):
            render_document(doc, "yaml")


def _stepwise_report():
    trials = _trials(noise=0.02)
    X, y = condition_matrix(ConditionTable(trials), ("A", "W", "alpha", "omega"))
    return stepwise(X, y)


def test_stepwise_table_contents():
    sw = _stepwise_report()
    text = render_stepwise(sw, "table")
    assert text.splitlines()[0].split() == [
        "step", "action", "variable", "F", "p", "r2"]
    for step in sw.steps:
        assert step.name in text
    assert "selected: " in text
    assert f"final r2: {sw.r2:.4f}" in text
    if sw.contributions:
        assert "variance explained at entry:" in text


def test_stepwise_json_round_trip():
    sw = _stepwise_report()
    text = render_stepwise(sw, "json-like")
    doc = json.loads(text)
    assert doc["schema"] == STEPWISE_SCHEMA
    assert doc == stepwise_document(sw)
    assert doc["selected"] == list(sw.selected)
    assert render_document(doc, "table") == render_stepwise(sw, "table")
    assert render_document(doc, "json-like") == text


def test_stepwise_empty_selection_renders():
    rng = np.random.default_rng(2)
    from fitts3d import DesignMatrix
    X = rng.normal(size=(30, 2))
    y = rng.normal(size=30)
    sw = stepwise(DesignMatrix(("a", "b"), X), y)
    if not sw.selected:  # nothing correlates; the table must still print
        text = render_stepwise(sw, "table")
        assert "selected: (none)" in text


def test_render_document_unknown_schema():
    with pytest.raises(SchemaError):
        render_document({"schema": "fitts3d.report/99"}, "table")
    with pytest.raises(SchemaError):
        render_document(["not", "a", "dict"], "table")


def test_document_is_json_serializable():
    report = build_comparison_report(_trials(), list(ModelKind))
    # points are plain lists of floats, so the document survives JSON
    assert json.loads(json.dumps(report)) == report
    assert report["models"][0]["model"] == "final"
    sw_doc = stepwise_document(_stepwise_report())
    assert json.loads(json.dumps(sw_doc)) == sw_doc


_STEP = {"action": "enter", "variable": "A", "f_stat": 12.0,
         "p_value": 0.001, "r2": 0.5}
_ERROR_ROW = {"model": "welford", "error": "InsufficientData: too few rows"}
_FIT_ROW = {"model": "final", "r2": 0.9, "n": 2, "equation": "MT = 0.4000",
            "point_names": ["id_t", "mt"]}


@pytest.mark.parametrize("step,fragment", [
    ({k: v for k, v in _STEP.items() if k != "action"},
     'steps[0].action must be "enter" or "remove"'),
    ({k: v for k, v in _STEP.items() if k != "variable"},
     "steps[0].variable must be a string"),
    (dict(_STEP, action="add"), 'steps[0].action must be "enter" or "remove"'),
    (dict(_STEP, action=[1, 2]), 'steps[0].action must be "enter" or "remove"'),
    (dict(_STEP, variable={"a": 1}), "steps[0].variable must be a string"),
    (dict(_STEP, variable=None), "steps[0].variable must be a string"),
])
def test_stepwise_document_checks_action_and_variable(step, fragment):
    doc = {"schema": STEPWISE_SCHEMA, "steps": [step], "selected": ["A"]}
    for fmt in ("table", "json-like"):
        with pytest.raises(SchemaError) as err:
            render_document(doc, fmt)
        assert str(err.value) == f"malformed report document: {fragment}"


@pytest.mark.parametrize("row,fragment", [
    (dict(_ERROR_ROW, r2="ignored"), "models[0].r2 must be a number or null"),
    (dict(_ERROR_ROW, r2=True), "models[0].r2 must be a number or null"),
    (dict(_ERROR_ROW, n=1.5), "models[0].n must be an integer or null"),
    (dict(_ERROR_ROW, n="3"), "models[0].n must be an integer or null"),
    (dict(_FIT_ROW, points=[[1.0, "2"]]),
     "models[0].points must be a list of lists of numbers"),
    (dict(_FIT_ROW, points=[[1.0, 2.0], [None, 3.0]]),
     "models[0].points must be a list of lists of numbers"),
    (dict(_FIT_ROW, points=[[1.0, False]]),
     "models[0].points must be a list of lists of numbers"),
    (dict(_FIT_ROW, points=[[1.0, [2.0]]]),
     "models[0].points must be a list of lists of numbers"),
    (dict(_FIT_ROW, points=[1.0, 2.0]),
     "models[0].points must be a list of lists of numbers"),
])
def test_comparison_document_checks_error_rows_and_points(row, fragment):
    doc = {"schema": REPORT_SCHEMA, "models": [row]}
    for fmt in ("table", "json-like"):
        with pytest.raises(SchemaError) as err:
            render_document(doc, fmt)
        assert str(err.value) == f"malformed report document: {fragment}"


def test_valid_error_rows_and_points_still_render():
    doc = {"schema": REPORT_SCHEMA, "models": [
        dict(_FIT_ROW, points=[[1, 2.5], [2.0, 3]]),
        dict(_ERROR_ROW, r2=None, n=None),
        dict(_ERROR_ROW, model="fitts", r2=0.5, n=3)]}
    out = json.loads(render_document(doc, "json-like"))
    assert out["models"][0]["points"] == [[1, 2.5], [2.0, 3]]
    assert [(m["r2"], m["n"]) for m in out["models"][1:]] == [(None, None), (0.5, 3)]
    text = render_document(doc, "table")
    assert "welford  -" in text and "fitts    -" in text
