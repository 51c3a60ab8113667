"""Regularized incomplete beta function and the F distribution tail.

The continued fraction follows the classic modified Lentz scheme. The
F tail is evaluated directly as an incomplete beta so that tiny
p-values are not lost to cancellation in 1 - cdf.
"""

import math

from .errors import ConvergenceError, DomainError

_MAX_ITER = 500
_EPS = 1e-15
_TINY = 1e-300


def log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _beta_cf(a: float, b: float, x: float) -> float:
    # modified Lentz evaluation of the continued fraction for I_x(a, b)
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        # the even and then the odd half-step of term m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < _TINY:
                d = _TINY
            c = 1.0 + aa / c
            if abs(c) < _TINY:
                c = _TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise ConvergenceError(
        f"incomplete beta continued fraction did not converge (a={a}, b={b}, x={x})")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]. Cancellation in log_beta's
    lgamma sum makes the error grow with a + b: against scipy over x in
    {0.1, 0.5, 0.9, 2, 5} and df1 in {1, 2, 7}, f_sf and f_cdf are off by
    at most 1.0e-13 at df2 = 250, 1.4e-12 at 4 700 (a per-trial stepwise
    on 4 800 trials), 6.4e-12 at 1e4, 6.1e-10 at 1e6, 3.3e-9 at 1e7."""
    if a <= 0 or b <= 0:
        raise DomainError("incomplete beta needs a > 0 and b > 0")
    if not 0.0 <= x <= 1.0:
        raise DomainError("incomplete beta needs x in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(a * math.log(x) + b * math.log1p(-x) - log_beta(a, b))
    # the continued fraction converges fast only below the mean; use the
    # symmetry I_x(a, b) = 1 - I_{1-x}(b, a) on the other side
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def f_cdf(x: float, df1: float, df2: float) -> float:
    """P(F <= x) for an F-distributed variable with df1 and df2 degrees
    of freedom (error: see regularized_incomplete_beta)."""
    if df1 <= 0 or df2 <= 0:
        raise DomainError("F distribution needs positive degrees of freedom")
    if x <= 0:
        return 0.0
    if math.isinf(x):
        return 1.0
    t = df1 * x / (df1 * x + df2)
    return regularized_incomplete_beta(df1 / 2.0, df2 / 2.0, t)


def f_sf(x: float, df1: float, df2: float) -> float:
    """P(F > x), computed directly so small tails are not lost to
    cancellation in 1 - cdf (error: see regularized_incomplete_beta)."""
    if df1 <= 0 or df2 <= 0:
        raise DomainError("F distribution needs positive degrees of freedom")
    if x <= 0:
        return 1.0
    if math.isinf(x):
        return 0.0
    t = df2 / (df2 + df1 * x)
    return regularized_incomplete_beta(df2 / 2.0, df1 / 2.0, t)
