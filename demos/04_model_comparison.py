"""
Ranking the seven models on combined-task data
==============================================

Fit every candidate model to one synthetic block per experiment and
print the r-squared ranking. On translation-only data the classic
one-index models do fine; once rotation enters the task they fall
behind the two-index model.

If matplotlib is installed, also scatter the winning model's predicted
difficulty against the per-condition mean movement times.
"""

import os
import tempfile

from fitts3d import (ConditionTable, InteractionKind, ModelKind,
                     build_comparison_report, build_grid, generate_trials,
                     paper_scale_defaults, render_comparison)

interaction = InteractionKind.POINTING

for experiment in ("e1", "e3", "e4"):
    grid = build_grid(experiment, interaction)
    truth = paper_scale_defaults(experiment, interaction)
    log = generate_trials(grid, truth, interaction)
    table = ConditionTable(log, aggregate=True)  # per-condition means
    report = build_comparison_report(table, list(ModelKind))
    print(f"== {experiment} ==")
    print(render_comparison(report, "table"))

    if experiment == "e4":
        top = report["models"][0]
        # project the fitted plane onto one axis for a quick look; the
        # table holds each condition's predictors and the mean times
        coef = top["coefficients"]
        kept = [n for n in coef if n != "intercept"]  # the fit's columns
        names, values = table.predictors(ModelKind(top["model"]))
        cols = [names.index(n) for n in kept]
        xs = [coef["intercept"] + sum(coef[n] * row[j] for n, j in zip(kept, cols))
              for row in values[table.rows].tolist()]
        ys = table.y.tolist()
        try:
            import matplotlib
            matplotlib.use("Agg")
            import matplotlib.pyplot as plt
        except ImportError:
            print("matplotlib not installed, skipping the plot")
            continue
        fig, ax = plt.subplots(figsize=(5, 4))
        ax.scatter(xs, ys, s=14)
        lo, hi = min(xs), max(xs)
        ax.plot([lo, hi], [lo, hi], lw=1)
        ax.set_xlabel("predicted MT (s)")
        ax.set_ylabel("observed mean MT (s)")
        ax.set_title(f"{top['model']} on {experiment}, r2 = {top['r2']:.3f}")
        fig.tight_layout()
        out = os.path.join(tempfile.gettempdir(), "e4_fit_scatter.png")
        fig.savefig(out, dpi=110)
        print("saved", out)
