"""Comparison (fitts3d.report/1) and stepwise (fitts3d.stepwise/1)
reports, held in memory as their JSON documents. Each schema has one
table renderer, which reads the document, so live and reloaded match."""

import json
from itertools import chain

import numpy as np

from .errors import Fitts3dError, SchemaError
from .metrics import ModelKind, declaration_index
from .regression import (ComparisonRow, ConditionTable, StepwiseReport,
                         compare_models)

REPORT_SCHEMA = "fitts3d.report/1"
STEPWISE_SCHEMA = "fitts3d.stepwise/1"

TABLE_FORMAT = "table"
JSON_FORMAT = "json-like"
FORMATS = (TABLE_FORMAT, JSON_FORMAT)


def format_equation(coefficients: dict, names) -> str:
    """Render fitted coefficients as a line equation with 4 decimals,
    e.g. "MT = 0.4000 + 0.3000*id"."""
    parts = [f"MT = {coefficients['intercept']:.4f}"]
    for name in names:
        b = coefficients[name]
        sign = "-" if b < 0 else "+"
        parts.append(f"{sign} {abs(b):.4f}*{name}")
    return " ".join(parts)


def _model_entry(model, r2=None, n=None, coefficients=None, equation=None,
                 dropped=(), error=None, point_names=None, points=None) -> dict:
    """One model's entry in a fitts3d.report/1 document, in key order."""
    return {"model": model, "r2": r2, "n": n, "coefficients": coefficients,
            "equation": equation, "dropped": list(dropped), "error": error,
            "point_names": point_names, "points": points}


def build_comparison_report(trials, kinds, aggregate: bool = True,
                            include_points: bool = True) -> dict:
    """Fit and rank the models into a fitts3d.report/1 document; optionally
    attach the per-condition (predictors, mean MT) points for plotting."""
    trials = list(trials)
    try:
        table = ConditionTable(trials, aggregate)
    except Fitts3dError as exc:
        # no model can be fitted: the grouping error goes on every row
        rows = [ComparisonRow(kind, error=f"{type(exc).__name__}: {exc}")
                for kind in sorted({ModelKind(k) for k in kinds},
                                   key=declaration_index)]
    else:
        rows = compare_models(table, kinds)
    models = []
    for cmp_row in rows:
        fit = cmp_row.fit
        if fit is None:
            models.append(_model_entry(cmp_row.kind.value, error=cmp_row.error))
            continue
        point_names = points = None
        if include_points:
            names, values = table.predictors(cmp_row.kind)
            cols = [names.index(n) for n in fit.predictor_names]
            point_names = list(fit.predictor_names) + ["mt"]
            points = np.column_stack([values[:, cols][table.rows], table.y]).tolist()
        models.append(_model_entry(
            cmp_row.kind.value, r2=fit.r2, n=fit.n,
            coefficients=dict(fit.coefficients),
            equation=format_equation(fit.coefficients, fit.predictor_names),
            dropped=fit.dropped, point_names=point_names, points=points))
    return {"schema": REPORT_SCHEMA, "n_trials": len(trials),
            "aggregate": aggregate, "models": models}


def stepwise_document(sw: StepwiseReport) -> dict:
    return {
        "schema": STEPWISE_SCHEMA,
        "steps": [
            {"action": s.action, "variable": s.name, "f_stat": s.f_stat,
             "p_value": s.p_value, "r2": s.r2}
            for s in sw.steps
        ],
        "selected": list(sw.selected),
        "contributions_percent": dict(sw.contributions),
        "r2": sw.r2,
    }


def _table(headers, body) -> list[str]:
    """Fixed-width header, rule and body lines; trailing blanks trimmed."""
    widths = [max(len(h), *(len(r[i]) for r in body)) if body else len(h)
              for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
             "  ".join("-" * w for w in widths)]
    for r in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return lines


def _comparison_table(doc: dict) -> str:
    """One row per model, ranked as fitted; reads a complete document."""
    body = []
    for m in doc["models"]:
        if m["error"] is not None:
            body.append((m["model"], "-", "-", m["error"]))
        else:
            fit = m["equation"]
            if m["dropped"]:
                fit += f"  [constant dropped: {', '.join(m['dropped'])}]"
            body.append((m["model"], f"{m['r2']:.4f}", str(m["n"]), fit))
    lines = _table(("model", "r2", "n", "fit"), body)
    lines.append("")
    lines.append(f"observations: {doc['n_trials']} trials, "
                 f"aggregate={'true' if doc['aggregate'] else 'false'}")
    return "\n".join(lines) + "\n"


# a saved stepwise step may omit its statistics
_STEP_DEFAULTS = {"f_stat": 0.0, "p_value": 1.0, "r2": 0.0}


def _stepwise_table(doc: dict) -> str:
    """Steps, selection, variance shares at entry and final r2 if any."""
    body = []
    for i, s in enumerate(doc.get("steps", []), start=1):
        s = {**_STEP_DEFAULTS, **s}
        body.append((str(i), s["action"], s["variable"],
                     f"{s['f_stat']:.4f}", f"{s['p_value']:.3g}",
                     f"{s['r2']:.4f}"))
    lines = _table(("step", "action", "variable", "F", "p", "r2"), body)
    lines.append("")
    selected = doc.get("selected") or []
    lines.append("selected: " + (", ".join(selected) if selected else "(none)"))
    contributions = doc.get("contributions_percent") or {}
    if contributions:
        lines.append("variance explained at entry: " + ", ".join(
            f"{k} {v:.1f}%" for k, v in contributions.items()))
    if doc.get("r2") is not None:
        lines.append(f"final r2: {doc['r2']:.4f}")
    return "\n".join(lines) + "\n"


def _render(doc: dict, fmt: str) -> str:
    """The one format switch: a document's table, or the document as JSON."""
    if fmt == TABLE_FORMAT:
        if doc["schema"] == REPORT_SCHEMA:
            return _comparison_table(doc)
        return _stepwise_table(doc)
    if fmt == JSON_FORMAT:
        return json.dumps(doc, indent=2) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def render_comparison(report: dict, fmt: str) -> str:
    return _render(report, fmt)


def render_stepwise(sw: StepwiseReport, fmt: str) -> str:
    return _render(stepwise_document(sw), fmt)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _all_of(values, types) -> bool:
    """Each value is a non-bool instance of types; checks each type once."""
    return all(t is not bool and issubclass(t, types)
               for t in set(map(type, values)))


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_str_list(v) -> bool:
    return isinstance(v, list) and all(isinstance(x, str) for x in v)


def _require(ok, what):
    if not ok:
        raise SchemaError(f"malformed report document: {what}")


def _comparison_from_document(doc: dict) -> dict:
    """The checked document, defaults filled in and unknown keys dropped."""
    models = doc.get("models", [])
    _require(isinstance(models, list), "'models' must be a list")
    n_trials = doc.get("n_trials", 0)
    _require(_is_int(n_trials), "'n_trials' must be an integer")
    aggregate = doc.get("aggregate", True)
    _require(isinstance(aggregate, bool), "'aggregate' must be true or false")
    entries = []
    for i, m in enumerate(models):
        where = f"models[{i}]"
        _require(isinstance(m, dict), f"{where} must be an object")
        _require(isinstance(m.get("model"), str), f"{where}.model must be a string")
        error = m.get("error")
        _require(error is None or isinstance(error, str),
                 f"{where}.error must be a string or null")
        if error is None:
            _require(_is_number(m.get("r2")), f"{where}.r2 must be a number")
            _require(_is_int(m.get("n")), f"{where}.n must be an integer")
            _require(isinstance(m.get("equation"), str),
                     f"{where}.equation must be a string")
        else:
            _require(m.get("r2") is None or _is_number(m["r2"]),
                     f"{where}.r2 must be a number or null")
            _require(m.get("n") is None or _is_int(m["n"]),
                     f"{where}.n must be an integer or null")
        coefficients = m.get("coefficients")
        _require(coefficients is None or (
            isinstance(coefficients, dict)
            and _all_of(coefficients.values(), (int, float))),
            f"{where}.coefficients must map names to numbers")
        dropped = m.get("dropped") or []
        _require(_is_str_list(dropped), f"{where}.dropped must list names")
        point_names = m.get("point_names") or None
        _require(point_names is None or _is_str_list(point_names),
                 f"{where}.point_names must list names")
        points = m.get("points") or None
        _require(points is None or (
            isinstance(points, list) and _all_of(points, list)
            and _all_of(chain.from_iterable(points), (int, float))),
            f"{where}.points must be a list of lists of numbers")
        entries.append(_model_entry(
            m["model"], m.get("r2"), m.get("n"), coefficients,
            m.get("equation"), dropped, error, point_names, points))
    return {"schema": REPORT_SCHEMA, "n_trials": n_trials,
            "aggregate": aggregate, "models": entries}


def _check_stepwise(doc: dict) -> None:
    steps = doc.get("steps", [])
    _require(isinstance(steps, list), "'steps' must be a list")
    for i, s in enumerate(steps):
        where = f"steps[{i}]"
        _require(isinstance(s, dict), f"{where} must be an object")
        _require(s.get("action") in ("enter", "remove"),
                 f"{where}.action must be \"enter\" or \"remove\"")
        _require(isinstance(s.get("variable"), str),
                 f"{where}.variable must be a string")
        for key, default in _STEP_DEFAULTS.items():
            _require(_is_number(s.get(key, default)),
                     f"{where}.{key} must be a number")
    _require(_is_str_list(doc.get("selected") or []),
             "'selected' must list names")
    contributions = doc.get("contributions_percent") or {}
    _require(isinstance(contributions, dict)
             and _all_of(contributions.values(), (int, float)),
             "'contributions_percent' must map names to numbers")
    _require("r2" not in doc or _is_number(doc["r2"]), "'r2' must be a number")


def render_document(doc: dict, fmt: str) -> str:
    """Re-render a previously saved JSON report document.

    Dispatches on the document's schema tag; raises SchemaError for
    unknown or malformed documents.
    """
    if not isinstance(doc, dict):
        raise SchemaError("report document must be a JSON object")
    schema = doc.get("schema")
    if schema == REPORT_SCHEMA:
        doc = _comparison_from_document(doc)
    elif schema == STEPWISE_SCHEMA:
        _check_stepwise(doc)
    else:
        raise SchemaError(f"unknown report schema: {schema!r}")
    return _render(doc, fmt)
