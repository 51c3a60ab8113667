"""The list-points comparison document, kept as the oracle for fitts3d's
fit writer.

document_with_points builds the fitts3d.report/1 document with each
fitted model's points held as lists, as build_comparison_report did
with include_points=True before the ConditionTable became the one
holder of points and `fit --format json-like` the one writer of them.
json.dumps(document_with_points(table, kinds), indent=2,
allow_nan=False) + "\\n" must equal that writer's output byte for byte,
or raise the same ValueError.
"""

from fitts3d.regression import compare_models
from fitts3d.report import REPORT_SCHEMA, _model_entry, format_equation


def document_with_points(table, kinds) -> dict:
    """Fit and rank the models on a ConditionTable into a fitts3d.report/1
    document, attaching each model's points, its predictors and the
    response per observation, for plotting."""
    models = []
    for cmp_row in compare_models(table, kinds):
        fit = cmp_row.fit
        if fit is None:
            models.append(_model_entry(cmp_row.kind.value, error=cmp_row.error))
            continue
        point_names = list(fit.predictor_names) + ["mt"]
        points = _points(table, cmp_row.kind, fit.predictor_names)
        models.append(_model_entry(
            cmp_row.kind.value, r2=fit.r2, n=fit.n,
            coefficients=dict(fit.coefficients),
            equation=format_equation(fit.coefficients, fit.predictor_names),
            dropped=fit.dropped, point_names=point_names, points=points))
    return {"schema": REPORT_SCHEMA, "n_trials": table.n_trials,
            "aggregate": table.aggregate, "models": models}


def _points(table, model, names) -> list:
    """A model's points as lists: its named predictors and the response,
    one row per observation of the table."""
    all_names, values = table.predictors(model)
    cols = [all_names.index(n) for n in names]
    return [[values[c][j] for j in cols] + [mt] for c, mt in zip(table.rows, table.y)]
