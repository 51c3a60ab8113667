"""Comparison (fitts3d.report/1) and stepwise (fitts3d.stepwise/1)
reports, held in memory as their JSON documents; a comparison is fitted
to a ConditionTable, so only a log that could be grouped has one. Each
schema has one table renderer, which reads the document, so live and
reloaded match.

JSON output is byte-identical to json.dumps(doc, indent=2), and a
document held in memory, as build_comparison_report returns it (its
points null) or report reads it, is written by json.dumps(doc,
indent=2, allow_nan=False) itself. Every dump passes allow_nan=False,
so a document holding an infinity or NaN raises ValueError, naming the
first in document order, instead of becoming JSON that report rejects.

The ConditionTable is the one holder of a fit's points in memory, and
fit --format json-like the one writer of them: each condition's
predictor texts are formatted once per model and the response texts
once for all models, with float.__repr__, the encoder's own form; they
are spliced in at a placeholder for each model's points in an indent=2
dump of the rest, and the document's parts are streamed to the output,
not joined.

A saved document's null means the default only for the optional lists
and maps (dropped, point_names, points, selected,
contributions_percent); a null models, steps, n_trials, aggregate, step
f_stat, p_value or r2, or stepwise r2 is malformed. A missing key takes
its default, and a missing stepwise r2 prints no final r2 line.

Only the code that fits or reads a ConditionTable imports regression or
numpy; rendering and checking a saved document load neither."""

import json
import math
from itertools import chain

from .constants import JSON_FORMAT, TABLE_FORMAT
from .errors import SchemaError

REPORT_SCHEMA = "fitts3d.report/1"
STEPWISE_SCHEMA = "fitts3d.stepwise/1"


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


def build_comparison_report(table: "ConditionTable", kinds) -> dict:
    """Fit and rank the models on a ConditionTable into a fitts3d.report/1
    document. Its entries' points are null: the table holds them, and
    fit --format json-like writes them from it."""
    from .regression import compare_models

    models = []
    for cmp_row in compare_models(table, kinds):
        fit = cmp_row.fit
        if fit is None:
            models.append(_model_entry(cmp_row.kind.value, error=cmp_row.error))
            continue
        models.append(_model_entry(
            cmp_row.kind.value, r2=fit.r2, n=fit.n,
            coefficients=dict(fit.coefficients),
            equation=format_equation(fit.coefficients, fit.predictor_names),
            dropped=fit.dropped))
    return {"schema": REPORT_SCHEMA, "n_trials": table.n_trials,
            "aggregate": table.aggregate, "models": models}


def stepwise_document(sw: "StepwiseReport") -> dict:
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


# a model's points sit at depth 3 (document > models > model); these are
# their indent=2 separators and brackets
_ITEM_SEP = ",\n" + 10 * " "
_ROW_BREAK_INDENTED = "\n" + 8 * " " + "],\n" + 8 * " " + "[\n" + 10 * " "
_POINTS_OPEN = "[\n" + 8 * " " + "[\n" + 10 * " "
_POINTS_CLOSE = "\n" + 8 * " " + "]\n" + 6 * " " + "]"
_PLACEHOLDER = "\x00fitts3d.points.{}\x00"


def _comparison_json(table: "ConditionTable", kinds) -> list[str]:
    """The fitts3d.report/1 document of the models fitted to table, each
    fitted model given its points, as json.dumps(doc, indent=2,
    allow_nan=False) + "\n" would write it with points as lists, in parts.

    A placeholder string stands in for each fitted model's points in an
    indent=2 dump of the rest, and the points' text is spliced in at it.
    A model's predictor texts are formatted once per condition and the
    response texts once for all models; a row's text is its condition's
    and its response's. The report is built here from the table, so:
    - a fitted model's predictors and response are finite, as
      DesignMatrix and ols_fit raise ValueError otherwise, and their
      float.__repr__ is the encoder's text;
    - no text of the report holds a NUL (it is model names, equations,
      dropped names and Fitts3dError messages), so each placeholder
      occurs once in the dump, at its model's points;
    - a non-finite r2 or coefficient makes the dump of the rest raise
      the oracle's own ValueError: it is the first such value in
      document order, as the points that follow it are finite."""
    report = build_comparison_report(table, kinds)
    models, spliced = [], {}  # a placeholder's JSON text -> (model, names)
    for i, m in enumerate(report["models"]):
        if m["error"] is None:
            names = [n for n in m["coefficients"] if n != "intercept"]
            token = _PLACEHOLDER.format(i)
            spliced[json.dumps(token)] = (m["model"], names)
            m = dict(m, point_names=names + ["mt"], points=token)
        models.append(m)
    rest = json.dumps(dict(report, models=models), indent=2, allow_nan=False)
    rows = table.rows.tolist()
    # each response's text and what follows it: a row break, or the close
    mt = list(map(float.__repr__, table.y.tolist()))
    tails = [t + _ROW_BREAK_INDENTED for t in mt[:-1]] + [mt[-1] + _POINTS_CLOSE]
    parts = []
    for token, (model, names) in spliced.items():
        all_names, values = table.predictors(model)
        lead = [_ITEM_SEP.join(map(float.__repr__, r)) + _ITEM_SEP
                for r in values[:, [all_names.index(n) for n in names]].tolist()]
        head, _, rest = rest.partition(token)
        parts += (head, _POINTS_OPEN + "".join(chain.from_iterable(
            zip(map(lead.__getitem__, rows), tails))))
    return parts + [rest, "\n"]


def _render(doc: dict, fmt: str) -> str:
    """The one format switch: a document's table, or the document as JSON."""
    if fmt == TABLE_FORMAT:
        if doc["schema"] == REPORT_SCHEMA:
            return _comparison_table(doc)
        return _stepwise_table(doc)
    if fmt == JSON_FORMAT:
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def render_comparison(report: dict, fmt: str) -> str:
    return _render(report, fmt)


def render_stepwise(sw: "StepwiseReport", fmt: str) -> str:
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


def _is_finite(v) -> bool:
    """Neither an infinity nor NaN; an int is always finite."""
    return not isinstance(v, float) or math.isfinite(v)


def _all_finite(numbers) -> bool:
    """_is_finite for each of numbers, a collection of ints and floats.
    An inf or nan makes their sum inf or nan, so a finite sum clears them
    all; they are looked at one by one only when it is not finite (finite
    floats can overflow it) or an int is too large for a float."""
    try:
        if math.isfinite(sum(numbers)):
            return True
    except OverflowError:
        pass
    return all(map(_is_finite, numbers))


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
            _require(math.isfinite(m["r2"]), f"{where}.r2 must be finite")
        else:
            _require(m.get("r2") is None or _is_number(m["r2"]),
                     f"{where}.r2 must be a number or null")
            _require(m.get("n") is None or _is_int(m["n"]),
                     f"{where}.n must be an integer or null")
            _require(m.get("equation") is None or isinstance(m["equation"], str),
                     f"{where}.equation must be a string or null")
            _require(_is_finite(m.get("r2")), f"{where}.r2 must be finite")
        coefficients = m.get("coefficients")
        _require(coefficients is None or (
            isinstance(coefficients, dict)
            and _all_of(coefficients.values(), (int, float))),
            f"{where}.coefficients must map names to numbers")
        _require(coefficients is None or _all_finite(coefficients.values()),
                 f"{where}.coefficients must be finite")
        equation = m.get("equation")
        if coefficients is not None and equation is not None:
            _require("intercept" in coefficients,
                     f"{where}.coefficients must hold an intercept")
            slopes = [k for k in coefficients if k != "intercept"]
            _require(format_equation(coefficients, slopes) == equation,
                     f"{where}.equation must match its coefficients")
        # only null or a missing key takes the default; [] points are null
        dropped = m.get("dropped")
        _require(dropped is None or _is_str_list(dropped),
                 f"{where}.dropped must list names")
        point_names = m.get("point_names")
        _require(point_names is None or _is_str_list(point_names),
                 f"{where}.point_names must list names")
        points = m.get("points")
        what = f"{where}.points must be a list of lists of numbers"
        _require(points is None or (
            isinstance(points, list) and _all_of(points, list)), what)
        values = list(chain.from_iterable(points or ()))  # read by both checks
        _require(_all_of(values, (int, float)), what)
        _require(_all_finite(values), f"{where}.points must be finite")
        entries.append(_model_entry(
            m["model"], m.get("r2"), m.get("n"), coefficients, equation,
            dropped or (), error, point_names or None, points or None))
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
            value = s.get(key, default)
            _require(_is_number(value), f"{where}.{key} must be a number")
            _require(math.isfinite(value), f"{where}.{key} must be finite")
    # only null or a missing key takes the default
    selected = doc.get("selected")
    _require(selected is None or _is_str_list(selected),
             "'selected' must list names")
    contributions = doc.get("contributions_percent")
    _require(contributions is None or (
        isinstance(contributions, dict)
        and _all_of(contributions.values(), (int, float))),
        "'contributions_percent' must map names to numbers")
    _require(all(map(math.isfinite, (contributions or {}).values())),
             "'contributions_percent' must be finite")
    _require("r2" not in doc or _is_number(doc["r2"]), "'r2' must be a number")
    _require("r2" not in doc or math.isfinite(doc["r2"]), "'r2' must be finite")


def render_document(doc: dict, fmt: str) -> str:
    """Re-render a previously saved JSON report document.

    Dispatches on the document's schema tag; raises SchemaError for
    unknown or malformed documents, and OverflowError in either format
    when a number the table formats is an int too large for a float.
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
