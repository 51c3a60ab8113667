import hashlib
import json
import math
import warnings
from dataclasses import replace
from itertools import zip_longest

import numpy as np

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fitts3d import (ConditionTable, Fitts3dError, GroundTruth, InteractionKind,
                     ModelKind, SchemaError, TaskSpec,
                     build_comparison_report, build_grid, condition_matrix,
                     format_equation, generate_trials,
                     render_comparison, render_document, render_stepwise,
                     stepwise, stepwise_document, write_trials)
from fitts3d import report as report_module
from fitts3d.cli import main
from fitts3d.metrics import MODEL_ORDER
from fitts3d.report import REPORT_SCHEMA, STEPWISE_SCHEMA
from fitts3d.synth import paper_scale_defaults
from report_oracle import document_with_points
from trial_rows import trial_log

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
    report = document_with_points(ConditionTable(_trials()), list(ModelKind))
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
    # the oracle's document, each entry's points null
    table = ConditionTable(_trials())
    full = document_with_points(table, list(ModelKind))
    assert build_comparison_report(table, list(ModelKind)) == dict(full, models=[
        dict(m, point_names=None, points=None) for m in full["models"]])


def test_comparison_report_error_rows_sink():
    # translational A=0 rows break ratio-based indices inline
    from fitts3d import TaskSpec
    tasks = [TaskSpec(F=3, W=5, A=a) for a in (0.0, 12.0, 24.0, 36.0)]
    log = trial_log((t, 0.4 + 0.3 * (i + 1), True) for i, t in enumerate(tasks))
    report = build_comparison_report(
        ConditionTable(log), [ModelKind.FITTS, ModelKind.WELFORD])
    welford, fitts = report["models"]
    assert welford["model"] == "welford"
    assert welford["error"] is None
    assert fitts["model"] == "fitts"
    assert fitts["error"] is not None


def test_comparison_table_renders_all_rows():
    report = build_comparison_report(ConditionTable(_trials()), list(ModelKind))
    text = render_comparison(report, "table")
    lines = text.splitlines()
    assert lines[0].split() == ["model", "r2", "n", "fit"]
    for kind in ModelKind:
        assert any(line.startswith(kind.value) for line in lines)
    assert "observations: 256 trials, aggregate=true" in text
    assert text.endswith("\n")


def test_comparison_json_round_trip():
    report = document_with_points(ConditionTable(_trials()), list(ModelKind))
    text = render_comparison(report, "json-like")
    doc = json.loads(text)
    assert doc["schema"] == REPORT_SCHEMA
    assert doc == report
    # a reloaded document renders to the same table as the live report
    assert render_document(doc, "table") == render_comparison(report, "table")
    assert render_document(doc, "json-like") == text


def test_render_comparison_unknown_format():
    report = build_comparison_report(ConditionTable(_trials()), [ModelKind.FITTS])
    with pytest.raises(ValueError, match="unknown format 'yaml'"):
        render_comparison(report, "yaml")


def test_render_stepwise_and_document_unknown_format():
    report = build_comparison_report(ConditionTable(_trials()), [ModelKind.FITTS])
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


def test_json_refuses_non_finite_numbers():
    # report rejects Infinity and NaN, so no verb may write them
    sw = _stepwise_report()
    infinite = replace(sw, steps=(replace(sw.steps[0], f_stat=math.inf),) + sw.steps[1:])
    assert " inf " in render_stepwise(infinite, "table")
    with pytest.raises(ValueError, match="not JSON compliant"):
        render_stepwise(infinite, "json-like")
    report = document_with_points(ConditionTable(_trials()), [ModelKind.FITTS])
    report["models"][0]["points"][0][0] = math.nan
    with pytest.raises(ValueError, match="not JSON compliant"):
        render_comparison(report, "json-like")


@pytest.mark.parametrize("doc", [
    {"models": [{"points": [[math.nan]]}, {"r2": math.inf}]},
    {"models": [{"r2": -math.inf, "points": [[math.nan]]}]},
    {"models": [{"points": [[1.0], [math.inf]]},
                {"coefficients": {"intercept": math.nan}}]},
    {"schema": REPORT_SCHEMA, "aggregate": -math.inf,
     "models": [{"points": [[math.nan, 1.0]]}]},
])
def test_json_error_names_the_oracles_value(doc):
    # non-finite values in points and elsewhere: the first in document
    # order is named, as json.dumps(doc, indent=2) names it
    with pytest.raises(ValueError) as oracle:
        _oracle(doc)
    with pytest.raises(ValueError) as rendered:
        render_comparison(doc, "json-like")
    assert str(rendered.value) == str(oracle.value)


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
    report = document_with_points(ConditionTable(_trials()), list(ModelKind))
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
    (dict(_FIT_ROW, coefficients={"intercept": 0.5}),
     "models[0].equation must match its coefficients"),
    (dict(_FIT_ROW, coefficients={"intercept": 0.4, "id_t": 0.25}),
     "models[0].equation must match its coefficients"),
    (dict(_FIT_ROW, coefficients={"id_t": 0.4}),
     "models[0].coefficients must hold an intercept"),
    (dict(_ERROR_ROW, coefficients={}, equation="MT = 0.4000"),
     "models[0].coefficients must hold an intercept"),
    ({"model": "welford", "error": "E: x", "equation": 5},
     "models[0].equation must be a string or null"),
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


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("doc,fragment", [
    (lambda v: {"schema": REPORT_SCHEMA, "models": [dict(_FIT_ROW, r2=v)]},
     "models[0].r2 must be finite"),
    (lambda v: {"schema": REPORT_SCHEMA, "models": [dict(_ERROR_ROW, r2=v)]},
     "models[0].r2 must be finite"),
    (lambda v: {"schema": REPORT_SCHEMA, "models": [
        dict(_ERROR_ROW, coefficients={"intercept": 0.5, "id": v})]},
     "models[0].coefficients must be finite"),
    (lambda v: {"schema": REPORT_SCHEMA, "models": [
        dict(_FIT_ROW, points=[[1e308, 1e308], [10 ** 400, v]])]},
     "models[0].points must be finite"),
    (lambda v: {"schema": STEPWISE_SCHEMA, "steps": [dict(_STEP, p_value=v)]},
     "steps[0].p_value must be finite"),
    (lambda v: {"schema": STEPWISE_SCHEMA, "contributions_percent": {"A": v}},
     "'contributions_percent' must be finite"),
    (lambda v: {"schema": STEPWISE_SCHEMA, "r2": v}, "'r2' must be finite"),
])
def test_document_checks_reject_non_finite_numbers(doc, fragment, value):
    for fmt in ("table", "json-like"):
        with pytest.raises(SchemaError) as err:
            render_document(doc(value), fmt)
        assert str(err.value) == f"malformed report document: {fragment}"


@pytest.mark.parametrize("points", [
    [[1e308, 1e308], [-1e308, 2.0]],  # finite, but their sum overflows
    [[10 ** 400, 1.0]],               # an int too large for a float
    [[10 ** 400, 10 ** 400]],
])
def test_finite_points_whose_sum_is_not_finite_still_render(points):
    doc = {"schema": REPORT_SCHEMA, "models": [dict(_FIT_ROW, points=points)]}
    assert json.loads(render_document(doc, "json-like"))["models"][0]["points"] == points


_MISSING = object()
_NO_FINAL_R2 = object()  # a missing stepwise r2's default: no line for it
_COMPARISON_DOC = {"schema": REPORT_SCHEMA, "n_trials": 2, "aggregate": False,
                   "models": [dict(_FIT_ROW, dropped=["id_r"],
                                   points=[[1.0, 0.7], [2.0, 1.0]])]}
_STEPWISE_DOC = {"schema": STEPWISE_SCHEMA, "steps": [_STEP], "selected": ["A"],
                 "contributions_percent": {"A": 50.0}, "r2": 0.5}


def _document_with(path, value):
    """A copy of a well-formed document with path ("key", "models[0].key"
    or "steps[0].key") set to value, or removed if value is _MISSING."""
    *outer, key = path.replace("[0]", "").split(".")
    stepwise = (outer or [key])[0] in ("steps", "selected",
                                       "contributions_percent", "r2")
    doc = json.loads(json.dumps(_STEPWISE_DOC if stepwise else _COMPARISON_DOC))
    holder = doc[outer[0]][0] if outer else doc
    if value is _MISSING:
        del holder[key]
    else:
        holder[key] = value
    return doc


@pytest.mark.parametrize("path,value,expected", [
    # null is the default only for the optional lists and maps
    ("models[0].dropped", None, []),
    ("models[0].point_names", None, _MISSING),
    ("models[0].points", None, _MISSING),
    ("selected", None, []),
    ("contributions_percent", None, {}),
    # any other null is malformed
    ("models", None, "'models' must be a list"),
    ("n_trials", None, "'n_trials' must be an integer"),
    ("aggregate", None, "'aggregate' must be true or false"),
    ("steps", None, "'steps' must be a list"),
    ("steps[0].f_stat", None, "steps[0].f_stat must be a number"),
    ("steps[0].p_value", None, "steps[0].p_value must be a number"),
    ("steps[0].r2", None, "steps[0].r2 must be a number"),
    ("r2", None, "'r2' must be a number"),
    # a missing key takes its default
    ("models[0].dropped", _MISSING, []),
    ("models[0].point_names", _MISSING, None),
    ("models[0].points", _MISSING, None),
    ("models", _MISSING, []),
    ("n_trials", _MISSING, 0),
    ("aggregate", _MISSING, True),
    ("steps", _MISSING, []),
    ("steps[0].f_stat", _MISSING, 0.0),
    ("steps[0].p_value", _MISSING, 1.0),
    ("steps[0].r2", _MISSING, 0.0),
    ("selected", _MISSING, []),
    ("contributions_percent", _MISSING, {}),
    ("r2", _MISSING, _NO_FINAL_R2),
])
def test_a_null_or_missing_key_is_its_default_or_malformed(path, value, expected):
    doc = _document_with(path, value)
    if isinstance(expected, str):
        for fmt in ("table", "json-like"):
            with pytest.raises(SchemaError) as err:
                render_document(doc, fmt)
            assert str(err.value) == f"malformed report document: {expected}"
        return
    text = render_document(doc, "table")
    if expected is _NO_FINAL_R2:
        assert text == render_document(_STEPWISE_DOC, "table").replace(
            "final r2: 0.5000\n", "")
        return
    # the default renders as the document that holds it; a comparison is
    # re-written with its defaults, a stepwise document as it was read
    default = _document_with(path, expected)
    assert text == render_document(default, "table")
    if doc["schema"] == REPORT_SCHEMA:
        assert render_document(doc, "json-like") == render_document(default,
                                                                    "json-like")
    else:
        assert json.loads(render_document(doc, "json-like")) == doc


def _oracle(doc) -> str:
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _assert_same_bytes(actual: bytes, expected: bytes) -> None:
    """actual == expected, checked by sha256 digest: a mismatch names the
    first differing line at once, where pytest would diff whole
    documents of megabytes."""
    if hashlib.sha256(actual).digest() == hashlib.sha256(expected).digest():
        return
    pairs = zip_longest(actual.splitlines(True), expected.splitlines(True))
    line, (got, want) = next((n, p) for n, p in enumerate(pairs, start=1)
                             if p[0] != p[1])
    pytest.fail(f"output differs at line {line}: {got!r} != {want!r}",
                pytrace=False)


@pytest.mark.parametrize("experiment,interaction,reps", [
    ("e1", InteractionKind.POINTING, 100),
    ("e4", InteractionKind.MANIPULATION, 75),  # zero-holding columns
])
def test_published_scale_fit_json_matches_the_oracle(tmp_path, capsys,
                                                     experiment, interaction, reps):
    # one published cell, 4 800 trials fitted per trial
    grid = replace(build_grid(experiment, interaction), repetitions=reps)
    truth = paper_scale_defaults(experiment, interaction)
    log = generate_trials(grid, truth, interaction)
    path = tmp_path / "cell.csv"
    write_trials(path, log, experiment)
    assert main(["fit", str(path), "--aggregate", "false",
                 "--format", "json-like"]) == 0
    # the generated log, not the one read back
    expected = document_with_points(ConditionTable(log, aggregate=False), MODEL_ORDER)
    assert expected["n_trials"] == 4800
    _assert_same_bytes(capsys.readouterr().out.encode("utf-8"),
                       _oracle(expected).encode("utf-8"))


_CELLS = [(e, i) for e in ("e1", "e2", "e3", "e4") for i in InteractionKind]
_MODEL_SPECS = {"all": MODEL_ORDER,
                "final,shannon": (ModelKind.FINAL, ModelKind.SHANNON),
                "shannon,shannon": (ModelKind.SHANNON,)}


def _small_cell(tmp_path, experiment, interaction, reps=2):
    grid = replace(build_grid(experiment, interaction), repetitions=reps)
    log = generate_trials(grid, paper_scale_defaults(experiment, interaction),
                          interaction)
    path = tmp_path / "cell.csv"
    write_trials(path, log, experiment)
    return log, path


@pytest.mark.parametrize("models", _MODEL_SPECS)
@pytest.mark.parametrize("aggregate", ["true", "false"])
@pytest.mark.parametrize("experiment,interaction", _CELLS)
def test_fit_json_from_the_table_matches_the_oracle(tmp_path, capsys, experiment,
                                                    interaction, aggregate, models):
    log, path = _small_cell(tmp_path, experiment, interaction)
    argv = ["fit", str(path), "--aggregate", aggregate, "--models", models,
            "--format", "json-like"]
    out_path = tmp_path / "fit.json"
    assert main(argv) == 0
    assert main(argv + ["--out", str(out_path)]) == 0
    expected = _oracle(document_with_points(
        ConditionTable(log, aggregate == "true"), _MODEL_SPECS[models])).encode("utf-8")
    _assert_same_bytes(capsys.readouterr().out.encode("utf-8"), expected)
    _assert_same_bytes(out_path.read_bytes(), expected)


def _table_json(table, kinds) -> str:
    return "".join(report_module._comparison_json(table, kinds))


# zeros of both signs in the angles, so that sin_phi and theta1 print
# "0.0" and "-0.0"; A = 0 makes the Fitts-form indices fail, leaving
# entries whose points are null
_HAND_CONDITIONS = st.builds(
    TaskSpec, F=st.sampled_from([2.0, 4.0]), W=st.sampled_from([2.0, 5.0]),
    A=st.sampled_from([0.0, 6.0, 12.0]),
    phi=st.sampled_from([0.0, -0.0, 90.0]),
    theta=st.sampled_from([0.0, -0.0, 45.0]),
    alpha=st.sampled_from([0.0, 45.0]), omega=st.sampled_from([0.0, 7.5]))


@st.composite
def _hand_logs(draw):
    # movement times up to ~1e308 in some logs, whose sums overflow: the
    # table or each model's fit then raises DomainError
    mts = st.floats(0.1, draw(st.sampled_from([10.0, 1e308])))
    rows = []
    for task in draw(st.lists(_HAND_CONDITIONS, min_size=2, max_size=5)):
        rows.append((task, draw(mts), True))
        for _ in range(draw(st.integers(0, 3))):  # error trials among them
            rows.append((task, draw(mts), draw(st.booleans())))
    return trial_log(draw(st.permutations(rows)))


@settings(max_examples=150, deadline=None)
@given(log=_hand_logs(), aggregate=st.booleans())
def test_fit_json_from_hand_made_logs_matches_the_oracle(log, aggregate):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow is an error row, not a warning
        try:
            table = ConditionTable(log, aggregate)
        except Fitts3dError:
            assume(False)
        text = _table_json(table, MODEL_ORDER)
    assert text == _oracle(document_with_points(table, MODEL_ORDER))


def test_fit_json_gives_error_rows_when_sums_of_squares_overflow():
    # finite times whose sums of squares overflow: every model's fit
    # refuses them, where r2 was NaN and the document could not be written
    tasks = [TaskSpec(F=2.0, W=2.0, A=6.0), TaskSpec(F=4.0, W=5.0, A=12.0, phi=90.0),
             TaskSpec(F=2.0, W=5.0, A=12.0, theta=45.0)]
    table = ConditionTable(trial_log(
        (task, mt, True) for task, mt in zip(tasks, (1e308, 1e300, 1.5e308))),
        aggregate=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        text = _table_json(table, MODEL_ORDER)
    assert text == _oracle(document_with_points(table, MODEL_ORDER))
    errors = {m["model"]: m["error"] for m in json.loads(text)["models"]}
    assert len(errors) == len(MODEL_ORDER)
    assert errors.pop("cha-myung").startswith("InsufficientData: ")  # 3 slopes
    assert set(errors.values()) == {
        "DomainError: sums of squares overflow: the response is too large"}


def test_fit_json_keeps_the_first_specs_zero_and_null_points():
    first = TaskSpec(F=2.0, W=2.0, A=0.0, phi=-0.0, theta=-0.0)
    same = replace(first, phi=0.0, theta=0.0)  # one condition with first
    rows = [(first, 1.0, True), (same, 1.5, False), (same, 1.25, True),
            (TaskSpec(F=2.0, W=5.0, A=6.0, phi=0.0, theta=0.0), 2.0, False),
            (TaskSpec(F=2.0, W=5.0, A=6.0, phi=0.0, theta=0.0), 2.0, True),
            (TaskSpec(F=4.0, W=2.0, A=12.0, phi=90.0, theta=45.0), 3.0, True),
            (TaskSpec(F=4.0, W=5.0, A=12.0, phi=90.0, theta=0.0), 2.5, True)]
    for aggregate in (True, False):
        table = ConditionTable(trial_log(rows), aggregate)
        text = _table_json(table, MODEL_ORDER)
        assert text == _oracle(document_with_points(table, MODEL_ORDER))
        doc = json.loads(text)
        murata, = (m for m in doc["models"] if m["model"] == "murata-iwase")
        sines = [repr(p[1]) for p in murata["points"]]
        assert sines[0] == "-0.0" and "0.0" in sines
        assert any(m["points"] is None for m in doc["models"])


def _zero_distance_cell(aggregate):
    """A table on which the Fitts, Hoffmann and Cha-Myung forms fail
    (A = 0) and the others fit."""
    tasks = [TaskSpec(F=3, W=5, A=a) for a in (0.0, 12.0, 24.0, 36.0)]
    return ConditionTable(trial_log(
        (t, 0.4 + 0.3 * i + 0.01 * r, True)
        for i, t in enumerate(tasks) for r in range(2)), aggregate)


@pytest.mark.parametrize("kind", MODEL_ORDER, ids=[k.value for k in MODEL_ORDER])
def test_fit_json_of_each_model_alone_matches_the_oracle(kind):
    # a one-entry document, fitted (one splice) or failed (none); its
    # text holds no placeholder, nor a NUL that would make one ambiguous
    for aggregate in (True, False):
        table = _zero_distance_cell(aggregate)
        text = _table_json(table, [kind])
        assert text == _oracle(document_with_points(table, [kind]))
        doc = json.loads(text)
        entry, = doc["models"]
        assert (entry["error"] is None) == (kind not in (
            ModelKind.FITTS, ModelKind.HOFFMANN, ModelKind.CHA_MYUNG))
        assert (entry["points"] is None) == (entry["error"] is not None)
        assert "\x00" not in json.dumps(build_comparison_report(table, [kind]),
                                        ensure_ascii=False)
        assert "\\u0000" not in text


@settings(max_examples=100, deadline=None)
@given(log=_hand_logs(), aggregate=st.booleans(),
       kinds=st.lists(st.sampled_from(MODEL_ORDER), min_size=1, unique=True))
def test_json_output_matches_the_oracle(log, aggregate, kinds):
    # the table writer's splice against json.dumps of the list-points
    # document, on any subset of the models in any order
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            table = ConditionTable(log, aggregate)
        except Fitts3dError:
            assume(False)
        text = _table_json(table, kinds)
    assert text == _oracle(document_with_points(table, kinds))


def _counting(monkeypatch, owner, name, calls):
    fn = getattr(owner, name)
    monkeypatch.setattr(owner, name,
                        lambda *args, **kwargs: calls.append((args, kwargs))
                        or fn(*args, **kwargs))


def test_cli_fit_json_writes_points_from_the_table(tmp_path, capsys, monkeypatch):
    # one report is built, and no document with list points is dumped
    # whole, on a per-trial log
    _, path = _small_cell(tmp_path, "e4", InteractionKind.MANIPULATION, reps=3)
    built, dumped = [], []
    _counting(monkeypatch, report_module, "build_comparison_report", built)
    _counting(monkeypatch, report_module.json, "dumps", dumped)
    assert main(["fit", str(path), "--aggregate", "false",
                 "--format", "json-like"]) == 0
    monkeypatch.undo()
    doc = json.loads(capsys.readouterr().out)
    assert all(m["points"] for m in doc["models"])
    assert len(built) == 1
    whole = [d for (d, *_), _ in dumped if isinstance(d, dict) and any(
        type(m.get("points")) is list for m in d.get("models", ()))]
    assert whole == []


@pytest.mark.parametrize("poison", ["r2", "coefficient"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_cli_fit_json_refuses_a_non_finite_value(tmp_path, capsys, monkeypatch,
                                                 poison, value):
    # the last fitted model's r2 or intercept, the only non-finite value:
    # the oracle names it, and no --out file is opened
    _, path = _small_cell(tmp_path, "e4", InteractionKind.MANIPULATION)
    build = report_module.build_comparison_report

    def build_then_poison(table, kinds):
        report = build(table, kinds)
        last = [m for m in report["models"] if m["error"] is None][-1]
        if poison == "r2":
            last["r2"] = value
        else:
            last["coefficients"]["intercept"] = value
        return report

    monkeypatch.setattr(report_module, "build_comparison_report", build_then_poison)
    out_path = tmp_path / "fit.json"
    rc = main(["fit", str(path), "--aggregate", "false", "--format", "json-like",
               "--out", str(out_path)])
    with pytest.raises(ValueError) as oracle:
        _oracle([value])
    assert (rc, capsys.readouterr()) == (1, ("", f"error: {oracle.value}\n"))
    assert not out_path.exists()
