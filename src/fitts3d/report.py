"""Comparison and stepwise reports: structured text tables plus a
machine-readable JSON document with a versioned schema."""

import json
from dataclasses import dataclass

import numpy as np

from .errors import Fitts3dError, SchemaError
from .regression import ConditionTable, StepwiseReport, compare_models

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


@dataclass(frozen=True)
class ModelRow:
    """One model's line in a comparison report."""

    model: str
    r2: float | None = None
    n: int | None = None
    coefficients: dict | None = None
    equation: str | None = None
    dropped: tuple[str, ...] = ()
    error: str | None = None
    point_names: tuple[str, ...] | None = None
    points: tuple[tuple[float, ...], ...] | None = None


@dataclass(frozen=True)
class ComparisonReport:
    schema: str
    n_trials: int
    aggregate: bool
    rows: tuple[ModelRow, ...]


def build_comparison_report(trials, kinds, aggregate: bool = True,
                            include_points: bool = True) -> ComparisonReport:
    """Fit and rank the requested models; optionally attach the
    per-condition (predictors, mean MT) points behind each fit for
    external plotting."""
    trials = list(trials)
    try:
        data = ConditionTable(trials, aggregate)
    except Fitts3dError:
        data = trials  # compare_models reports the error on every row
    rows = []
    for cmp_row in compare_models(data, kinds, aggregate=aggregate):
        if cmp_row.fit is None:
            rows.append(ModelRow(model=cmp_row.kind.value, error=cmp_row.error))
            continue
        fit = cmp_row.fit
        point_names = None
        points = None
        if include_points:
            names, values = data.predictors(cmp_row.kind)
            cols = [names.index(n) for n in fit.predictor_names]
            point_names = fit.predictor_names + ("mt",)
            pts = np.column_stack([values[:, cols][data.rows], data.y])
            points = tuple(map(tuple, pts.tolist()))
        rows.append(ModelRow(
            model=cmp_row.kind.value, r2=fit.r2, n=fit.n,
            coefficients=dict(fit.coefficients),
            equation=format_equation(fit.coefficients, fit.predictor_names),
            dropped=fit.dropped, error=None,
            point_names=point_names, points=points))
    return ComparisonReport(schema=REPORT_SCHEMA, n_trials=len(trials),
                            aggregate=aggregate, rows=tuple(rows))


def _table(headers, body) -> list[str]:
    """Fixed-width header, rule and body lines; trailing blanks trimmed."""
    widths = [max(len(h), *(len(r[i]) for r in body)) if body else len(h)
              for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
             "  ".join("-" * w for w in widths)]
    for r in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return lines


def render_comparison_table(report: ComparisonReport) -> str:
    """Fixed-width text table, one row per model, ranked as fitted."""
    headers = ("model", "r2", "n", "fit")
    body = []
    for row in report.rows:
        if row.error is not None:
            body.append((row.model, "-", "-", row.error))
        else:
            fit = row.equation
            if row.dropped:
                fit += f"  [constant dropped: {', '.join(row.dropped)}]"
            body.append((row.model, f"{row.r2:.4f}", str(row.n), fit))
    lines = _table(headers, body)
    lines.append("")
    lines.append(f"observations: {report.n_trials} trials, "
                 f"aggregate={'true' if report.aggregate else 'false'}")
    return "\n".join(lines) + "\n"


def comparison_document(report: ComparisonReport) -> dict:
    return {
        "schema": report.schema,
        "n_trials": report.n_trials,
        "aggregate": report.aggregate,
        "models": [
            {
                "model": row.model,
                "r2": row.r2,
                "n": row.n,
                "coefficients": row.coefficients,
                "equation": row.equation,
                "dropped": list(row.dropped),
                "error": row.error,
                "point_names": list(row.point_names) if row.point_names else None,
                "points": [list(p) for p in row.points] if row.points else None,
            }
            for row in report.rows
        ],
    }


def render_comparison(report: ComparisonReport, fmt: str) -> str:
    if fmt == TABLE_FORMAT:
        return render_comparison_table(report)
    if fmt == JSON_FORMAT:
        return json.dumps(comparison_document(report), indent=2) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def _stepwise_text(steps, selected, contributions, r2) -> str:
    """Stepwise table from (action, variable, F, p, r2) steps, the
    selected names, (name, percent) contributions and the final r2
    (None to omit that line)."""
    body = [(str(i), str(action), str(name), f"{f_stat:.4f}", f"{p:.3g}",
             f"{step_r2:.4f}")
            for i, (action, name, f_stat, p, step_r2) in enumerate(steps, start=1)]
    lines = _table(("step", "action", "variable", "F", "p", "r2"), body)
    lines.append("")
    lines.append("selected: " + (", ".join(selected) if selected else "(none)"))
    if contributions:
        lines.append("variance explained at entry: "
                     + ", ".join(f"{k} {v:.1f}%" for k, v in contributions))
    if r2 is not None:
        lines.append(f"final r2: {r2:.4f}")
    return "\n".join(lines) + "\n"


def render_stepwise_table(sw: StepwiseReport) -> str:
    return _stepwise_text(
        [(s.action, s.name, s.f_stat, s.p_value, s.r2) for s in sw.steps],
        sw.selected, [(n, sw.contributions[n]) for n in sw.selected], sw.r2)


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


def render_stepwise(sw: StepwiseReport, fmt: str) -> str:
    if fmt == TABLE_FORMAT:
        return render_stepwise_table(sw)
    if fmt == JSON_FORMAT:
        return json.dumps(stepwise_document(sw), indent=2) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_str_list(v) -> bool:
    return isinstance(v, list) and all(isinstance(x, str) for x in v)


def _require(ok, what):
    if not ok:
        raise SchemaError(f"malformed report document: {what}")


def _comparison_from_document(doc: dict) -> ComparisonReport:
    models = doc.get("models", [])
    _require(isinstance(models, list), "'models' must be a list")
    n_trials = doc.get("n_trials", 0)
    _require(_is_int(n_trials), "'n_trials' must be an integer")
    aggregate = doc.get("aggregate", True)
    _require(isinstance(aggregate, bool), "'aggregate' must be true or false")
    rows = []
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
        coefficients = m.get("coefficients")
        _require(coefficients is None or (
            isinstance(coefficients, dict)
            and all(_is_number(v) for v in coefficients.values())),
            f"{where}.coefficients must map names to numbers")
        dropped = m.get("dropped") or []
        _require(_is_str_list(dropped), f"{where}.dropped must list names")
        point_names = m.get("point_names") or None
        _require(point_names is None or _is_str_list(point_names),
                 f"{where}.point_names must list names")
        points = m.get("points") or None
        _require(points is None or (isinstance(points, list) and all(
            isinstance(p, list) for p in points)),
            f"{where}.points must be a list of lists")
        rows.append(ModelRow(
            model=m["model"], r2=m.get("r2"), n=m.get("n"),
            coefficients=coefficients, equation=m.get("equation"),
            dropped=tuple(dropped), error=error,
            point_names=tuple(point_names) if point_names else None,
            points=tuple(tuple(p) for p in points) if points else None))
    return ComparisonReport(schema=REPORT_SCHEMA, n_trials=n_trials,
                            aggregate=aggregate, rows=tuple(rows))


def _stepwise_from_document(doc: dict):
    """(steps, selected, contributions, r2) of a stepwise document, in
    the argument order of _stepwise_text."""
    raw_steps = doc.get("steps", [])
    _require(isinstance(raw_steps, list), "'steps' must be a list")
    steps = []
    for i, s in enumerate(raw_steps):
        where = f"steps[{i}]"
        _require(isinstance(s, dict), f"{where} must be an object")
        step = (s.get("action"), s.get("variable"), s.get("f_stat", 0.0),
                s.get("p_value", 1.0), s.get("r2", 0.0))
        for key, v in zip(("f_stat", "p_value", "r2"), step[2:]):
            _require(_is_number(v), f"{where}.{key} must be a number")
        steps.append(step)
    selected = doc.get("selected") or []
    _require(_is_str_list(selected), "'selected' must list names")
    contributions = doc.get("contributions_percent") or {}
    _require(isinstance(contributions, dict)
             and all(_is_number(v) for v in contributions.values()),
             "'contributions_percent' must map names to numbers")
    r2 = doc.get("r2")
    _require("r2" not in doc or _is_number(r2), "'r2' must be a number")
    return steps, selected, list(contributions.items()), r2


def render_document(doc: dict, fmt: str) -> str:
    """Re-render a previously saved JSON report document.

    Dispatches on the document's schema tag; raises SchemaError for
    unknown or malformed documents.
    """
    if not isinstance(doc, dict):
        raise SchemaError("report document must be a JSON object")
    schema = doc.get("schema")
    if schema == REPORT_SCHEMA:
        report = _comparison_from_document(doc)
        if fmt == JSON_FORMAT:
            return json.dumps(comparison_document(report), indent=2) + "\n"
        return render_comparison_table(report)
    if schema == STEPWISE_SCHEMA:
        parts = _stepwise_from_document(doc)
        if fmt == JSON_FORMAT:
            return json.dumps(doc, indent=2) + "\n"
        return _stepwise_text(*parts)
    raise SchemaError(f"unknown report schema: {schema!r}")
