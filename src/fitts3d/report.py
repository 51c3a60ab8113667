"""Comparison (fitts3d.report/1) and stepwise (fitts3d.stepwise/1)
reports, held in memory as their JSON documents; a comparison is fitted
to a ConditionTable, so only a log that could be grouped has one. Each
schema has one table renderer, which reads the document, so live and
reloaded match.

JSON output is byte-identical to json.dumps(doc, indent=2,
allow_nan=False). Every dump passes allow_nan=False, so a document
holding an infinity or NaN raises ValueError, naming the first in
document order, instead of becoming JSON that report rejects.

The ConditionTable is the one holder of a fit's points in memory, and
fit --format json-like their one writer from it: each condition's
predictor texts are formatted once per model and the response texts
once for all models, with float.__repr__, the encoder's own form. A
comparison's points, written from the table or re-rendered from a saved
document, are spliced in at a placeholder for each model's points in an
indent=2 dump of the rest (_spliced), as the pure-Python encoder would
be slow on their numbers; fit streams the parts to the output, not
joined.

A saved document's null means the default only for the optional lists
and maps (dropped, point_names, points, selected,
contributions_percent); a null models, steps, n_trials, aggregate, step
f_stat, p_value or r2, or stepwise r2 is malformed. A missing key takes
its default, and a missing stepwise r2 prints no final r2 line.

Only the code that fits or reads a ConditionTable imports regression;
rendering and checking a saved document do not."""

import json
import math
from functools import partial
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
_ROW_SEP = ",\n" + 8 * " "
_ROW_OPEN = "[\n" + 10 * " "
_ROW_CLOSE = "\n" + 8 * " " + "]"
_ROW_BREAK = _ROW_CLOSE + _ROW_SEP + _ROW_OPEN
_POINTS_OPEN = "[\n" + 8 * " "
_POINTS_CLOSE = "\n" + 6 * " " + "]"
_PLACEHOLDER = "\x00fitts3d.points.{}\x00"


def _points_json(rows) -> str:
    """A model's points as an indent=2 dump writes them, from the text of
    each row's numbers joined by _ITEM_SEP; an empty row's text is "".
    Without empty rows, the text is _rows_json of the rows joined by
    _ROW_BREAK."""
    if all(rows):
        return _rows_json(_ROW_BREAK.join(rows))
    return _POINTS_OPEN + _ROW_SEP.join(
        _ROW_OPEN + r + _ROW_CLOSE if r else "[]" for r in rows) + _POINTS_CLOSE


def _rows_json(body) -> str:
    """Points whose rows, none empty, are joined by _ROW_BREAK in body."""
    return _POINTS_OPEN + _ROW_OPEN + body + _ROW_CLOSE + _POINTS_CLOSE


def _spliced(doc: dict, points: dict):
    """json.dumps(doc, indent=2, allow_nan=False) + "\n" in parts, where
    points maps the index of a model in doc["models"] to the text of its
    points (_points_json), written in place of that model's "points".

    A placeholder string stands in for each of those points in an indent=2
    dump of the rest, and the text is spliced in at it. So the dump of the
    rest raises the oracle's own ValueError for a non-finite number
    outside those points. Returns None when a placeholder's text does not
    occur exactly once in that dump (a string of doc equal to it)."""
    tokens = {i: _PLACEHOLDER.format(i) for i in points}
    models = [dict(m, points=tokens[i]) if i in tokens else m
              for i, m in enumerate(doc["models"])]
    rest = json.dumps(dict(doc, models=models), indent=2, allow_nan=False)
    texts = {i: json.dumps(token) for i, token in tokens.items()}
    if any(rest.count(text) != 1 for text in texts.values()):
        return None
    parts = []
    for i, text in texts.items():
        head, _, rest = rest.partition(text)
        parts += (head, points[i])
    return parts + [rest, "\n"]


def _comparison_json(table: "ConditionTable", kinds) -> list[str]:
    """The fitts3d.report/1 document of the models fitted to table, each
    fitted model given its points, as json.dumps(doc, indent=2,
    allow_nan=False) + "\n" would write it with points as lists, in parts
    (_spliced).

    A model's predictor texts are formatted once per condition and the
    response texts, each with the row break after it, once for all
    models; a row's text is its condition's and its response's, joined
    as _points_json joins rows. The report is built here from the table,
    so:
    - a fitted model's predictors and response are finite, as
      predictors_for and ConditionTable raise DomainError otherwise, and
      their float.__repr__ is the encoder's text;
    - no text of the report holds a NUL (it is model names, equations,
      dropped names and Fitts3dError messages), so each placeholder
      occurs once in the dump, and _spliced returns parts."""
    report = build_comparison_report(table, kinds)
    mt = list(map(float.__repr__, table.y))
    tails = [t + _ROW_BREAK for t in mt[:-1]] + mt[-1:]
    models, points = [], {}
    for i, m in enumerate(report["models"]):
        if m["error"] is None:
            names = [n for n in m["coefficients"] if n != "intercept"]
            all_names, values = table.predictors(m["model"])
            cols = [all_names.index(n) for n in names]
            lead = [_ITEM_SEP.join([float.__repr__(row[c]) for c in cols]) + _ITEM_SEP
                    for row in values]
            points[i] = _rows_json("".join(chain.from_iterable(
                zip(map(lead.__getitem__, table.rows), tails))))
            m = dict(m, point_names=names + ["mt"])
        models.append(m)
    return _spliced(dict(report, models=models), points)


def _saved_points(doc: dict) -> dict:
    """{index of a model: the text of its points (_points_json)} for each
    model of a fitts3d.report/1 document whose points are a nonempty list
    of lists of finite numbers (not bools), in the encoder's texts:
    float.__repr__ and int.__repr__.

    Each distinct number object is formatted once: a document the report
    verb read holds one float per distinct number text (cli._FloatMemo),
    and repeats each response and predictor text across its models."""
    found, models = {}, doc.get("models")
    for i, m in enumerate(models if isinstance(models, list) else ()):
        points = m.get("points") if isinstance(m, dict) else None
        if not (isinstance(points, list) and points and _all_of(points, list)):
            continue
        values = list(chain.from_iterable(points))
        if _all_of(values, (int, float)) and _all_finite(values):
            found[i] = points, values
    if not found:
        return {}
    distinct = dict(zip(map(id, chain.from_iterable(v for _, v in found.values())),
                        chain.from_iterable(v for _, v in found.values())))
    text = float.__repr__ if _all_of(distinct.values(), float) else _number_text
    texts = dict(zip(distinct, map(text, distinct.values()))).__getitem__
    return {i: _points_json(list(map(_ITEM_SEP.join, map(
        partial(map, texts), map(partial(map, id), points)))))
        for i, (points, _) in found.items()}


def _number_text(v) -> str:
    return float.__repr__(v) if isinstance(v, float) else int.__repr__(v)


def _render(doc: dict, fmt: str) -> str:
    """The one format switch: a document's table, or the document as JSON,
    a comparison's points spliced in (_spliced)."""
    if fmt == TABLE_FORMAT:
        if doc["schema"] == REPORT_SCHEMA:
            return _comparison_table(doc)
        return _stepwise_table(doc)
    if fmt == JSON_FORMAT:
        comparison = isinstance(doc, dict) and doc.get("schema") == REPORT_SCHEMA
        points = _saved_points(doc) if comparison else {}
        parts = _spliced(doc, points) if points else None
        if parts is None:
            return json.dumps(doc, indent=2, allow_nan=False) + "\n"
        return "".join(parts)
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
