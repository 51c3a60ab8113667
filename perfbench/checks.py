"""Correctness checks that do not trust the code under test.

The final-model check re-derives the regression from the CSV bytes with
the csv module and numpy.linalg.lstsq, so a wrong coefficient from
fitts3d cannot be hidden by the same mistake in the checker.
"""

import csv
import hashlib
import json
import math
import os

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "digests.json")
DEFAULT_SEED = 0
REL_TOL = 1e-9


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def sha256_text(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_key(experiment, interaction, repetitions, seed):
    return f"{experiment}-{interaction}-r{repetitions}-s{seed}"


def load_digests():
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _final_predictors(F, W, A, alpha, omega):
    # ID_t = log2(2A / (F + W) + 1); ID_r = log2(2 alpha / omega^2 + 1),
    # and 0 for a condition with no rotation requirement
    idt = math.log2(2.0 * A / (F + W) + 1.0)
    idr = 0.0 if alpha == 0 and omega == 0 else math.log2(2.0 * alpha / (omega * omega) + 1.0)
    return idt, idr


def final_rows(csv_path, aggregate):
    """(predictor matrix with columns id_t, id_r; response) for the final
    model, built from the raw CSV: per-condition means of successful
    trials, or one row per successful trial."""
    import numpy as np
    groups = {}
    with open(csv_path, newline="", encoding="utf-8") as fh:
        for rec in csv.DictReader(fh):
            if rec["success"] != "1":
                continue
            key = tuple(float(rec[c]) for c in ("F_cm", "W_cm", "A_cm", "phi_deg",
                                                "theta_deg", "alpha_deg", "omega_deg"))
            groups.setdefault((rec["interaction"],) + key, []).append(float(rec["mt_s"]))
    X, y = [], []
    for key, mts in groups.items():
        F, W, A, _phi, _theta, alpha, omega = key[1:]
        row = _final_predictors(F, W, A, alpha, omega)
        if aggregate:
            X.append(row)
            y.append(math.fsum(mts) / len(mts))
        else:
            X.extend([row] * len(mts))
            y.extend(mts)
    return np.array(X, dtype=float), np.array(y, dtype=float)


def check_final_fit(doc, csv_path, aggregate):
    """Problems (empty when correct) comparing the "final" row of a
    comparison document with an independent least-squares fit."""
    import numpy as np
    rows = [m for m in doc.get("models", []) if m.get("model") == "final"]
    if len(rows) != 1 or not rows[0].get("coefficients"):
        return ["fit document has no fitted final model"]
    coefs = rows[0]["coefficients"]
    X, y = final_rows(csv_path, aggregate)
    names = ["id_t", "id_r"]
    keep = []
    for j, name in enumerate(names):
        col = X[:, j]
        if float(col.max() - col.min()) > 1e-12 * max(1.0, float(np.abs(col).max())):
            keep.append(j)
    expected_names = ["intercept"] + [names[j] for j in keep]
    if sorted(coefs) != sorted(expected_names):
        return [f"final model columns {sorted(coefs)} != {sorted(expected_names)}"]
    M = np.column_stack([np.ones(len(y)), X[:, keep]])
    beta = np.linalg.lstsq(M, y, rcond=None)[0]
    problems = []
    for name, b in zip(expected_names, beta):
        got = coefs[name]
        if abs(got - b) > REL_TOL * abs(b):
            problems.append(f"final {name}: {got!r} vs lstsq {float(b)!r}")
    if rows[0].get("n") != len(y):
        problems.append(f"final n: {rows[0].get('n')} vs {len(y)} rows")
    return problems
