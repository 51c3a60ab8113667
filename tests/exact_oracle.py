"""Least squares solved exactly, as the oracle for fitts3d's float fits.

Every float is a dyadic rational, so the least-squares answer for a
float design and response is a rational number that fractions.Fraction
holds exactly. exact_fit forms the normal equations of the
intercept-augmented design, summing the response over identical design
rows first (a per-trial design repeats each condition's row), and
solves them by Gauss-Jordan elimination. Nothing is rounded, so its
answer is the true one that an error bound for ols_fit is measured
against.
"""

from fractions import Fraction


def exact_fit(X, y):
    """(coefficients, r2, ss_res, ss_tot) of y = a + X b by exact least
    squares.

    X is a DesignMatrix and y one float per row of it (any sequence of
    floats). coefficients maps
    "intercept" and each of X.names to a Fraction; r2 is a Fraction, 0
    for a constant y as ModelFit reports it, ss_res the residual sum of
    squares and ss_tot the total sum of squares about y's mean, each a
    Fraction. Raises ZeroDivisionError when the design is exactly
    singular.
    """
    groups = {}  # design row -> [rows, sum of their y]
    for row, v in zip(X.values, y):
        group = groups.setdefault(row, [0, Fraction(0)])
        group[0] += 1
        group[1] += Fraction(v)
    p = len(X.names) + 1
    gram = [[Fraction(0)] * p for _ in range(p)]
    moments = [Fraction(0)] * p
    for row, (count, total) in groups.items():
        x = [Fraction(1)] + [Fraction(v) for v in row]
        for i in range(p):
            moments[i] += x[i] * total
            for j in range(i, p):
                gram[i][j] += count * x[i] * x[j]
    for i in range(p):
        for j in range(i):
            gram[i][j] = gram[j][i]
    beta = _gauss_jordan(gram, moments)
    ys = [Fraction(v) for v in y]
    total, squares = sum(ys), sum(v * v for v in ys)
    ss_tot = squares - total * total / len(ys)
    # at the solution the residuals are orthogonal to the design
    ss_res = squares - sum(b * m for b, m in zip(beta, moments))
    r2 = 1 - ss_res / ss_tot if ss_tot else Fraction(0)
    return dict(zip(("intercept",) + X.names, beta)), r2, ss_res, ss_tot


def _gauss_jordan(a, b):
    """The solution of a x = b, with a square and nonsingular."""
    rows = [list(r) + [v] for r, v in zip(a, b)]
    for k in range(len(rows)):
        # any nonzero pivot will do: the arithmetic is exact
        pivot = next((i for i in range(k, len(rows)) if rows[i][k]), k)
        rows[k], rows[pivot] = rows[pivot], rows[k]
        inverse = 1 / rows[k][k]
        rows[k] = [v * inverse for v in rows[k]]
        for i, row in enumerate(rows):
            if i != k and row[k]:
                factor = row[k]
                rows[i] = [v - factor * w for v, w in zip(row, rows[k])]
    return [row[-1] for row in rows]
