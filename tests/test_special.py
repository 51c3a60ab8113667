import math
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import integrate

from fitts3d import (ConvergenceError, DomainError, f_cdf, f_sf,
                     regularized_incomplete_beta)
from fitts3d import special
from fitts3d.special import _EPS, _MAX_ITER, _TINY


def _f_density(x, d1, d2):
    lg = (math.lgamma((d1 + d2) / 2) - math.lgamma(d1 / 2) - math.lgamma(d2 / 2)
          + (d1 / 2) * math.log(d1 / d2))
    return math.exp(lg) * x ** (d1 / 2 - 1) * (1 + d1 * x / d2) ** (-(d1 + d2) / 2)


def test_beta_domain():
    with pytest.raises(DomainError):
        regularized_incomplete_beta(0, 1, 0.5)
    with pytest.raises(DomainError):
        regularized_incomplete_beta(1, 1, 1.5)
    assert regularized_incomplete_beta(2, 3, 0.0) == 0.0
    assert regularized_incomplete_beta(2, 3, 1.0) == 1.0


def test_beta_uniform_case():
    # I_x(1, 1) is the identity
    for x in (0.1, 0.25, 0.5, 0.9):
        assert regularized_incomplete_beta(1, 1, x) == pytest.approx(x, abs=1e-12)


def test_beta_symmetry():
    for a, b, x in ((2, 5, 0.3), (0.5, 0.5, 0.2), (7, 1.5, 0.8)):
        lhs = regularized_incomplete_beta(a, b, x)
        rhs = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_f_cdf_spot_value():
    # published percentile: P(F <= 1) with df (1, 10)
    assert f_cdf(1.0, 1, 10) == pytest.approx(0.6591, abs=5e-5)


def test_f_cdf_against_quadrature():
    for d1 in (1, 2, 5, 10):
        for d2 in (1, 4, 10, 30):
            for x in (0.5, 1.0, 3.0):
                ref, _ = integrate.quad(_f_density, 0, x, args=(d1, d2), limit=200)
                assert f_cdf(x, d1, d2) == pytest.approx(ref, abs=1e-10)


def test_f_sf_complements_cdf():
    for d1, d2, x in ((1, 10, 1.0), (3, 12, 2.5), (2, 2, 0.7)):
        assert f_sf(x, d1, d2) + f_cdf(x, d1, d2) == pytest.approx(1.0, abs=1e-12)


def test_f_tail_monotone_in_x():
    prev = 1.0
    for x in (0.1, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0):
        p = f_sf(x, 3, 14)
        assert p < prev
        prev = p


def test_f_edges():
    assert f_cdf(0.0, 2, 5) == 0.0
    assert f_sf(0.0, 2, 5) == 1.0
    assert f_cdf(math.inf, 2, 5) == 1.0
    assert f_sf(math.inf, 2, 5) == 0.0
    with pytest.raises(DomainError):
        f_cdf(1.0, 0, 5)
    with pytest.raises(DomainError, match="positive degrees of freedom"):
        f_sf(1.0, 0, 5)


def test_f_deep_tail_precision():
    # direct sf keeps precision where 1 - cdf would round to zero
    from scipy import stats
    p = f_sf(1e6, 1, 1)
    assert 0 < p < 1e-2
    assert p == pytest.approx(float(stats.f.sf(1e6, 1, 1)), rel=1e-10)


# The error bounds the regularized_incomplete_beta docstring states, by
# df2, with 25 % headroom; they grow with df2 through log_beta.
DOCUMENTED_F_ERROR = {250: 1.0e-13, 4700: 1.4e-12, 1e4: 6.4e-12,
                      1e6: 6.1e-10, 1e7: 3.3e-9}


@pytest.mark.parametrize("df2", DOCUMENTED_F_ERROR)
def test_f_tail_error_within_documented_bound(df2):
    from scipy import stats
    bound = 1.25 * DOCUMENTED_F_ERROR[df2]
    for df1 in (1, 2, 7):
        for x in (0.1, 0.5, 0.9, 2.0, 5.0):
            assert abs(f_sf(x, df1, df2) - stats.f.sf(x, df1, df2)) <= bound, (df1, x)
            assert abs(f_cdf(x, df1, df2) - stats.f.cdf(x, df1, df2)) <= bound, (df1, x)


def _unrolled_beta_cf(a: float, b: float, x: float) -> float:
    # the continued fraction with its even and odd half-steps written out,
    # kept verbatim as the oracle for special._beta_cf
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
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
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


def _beta_outcome(a, b, x):
    """I_x(a, b) as its exact bits, or the error it raises."""
    try:
        return regularized_incomplete_beta(a, b, x).hex()
    except ConvergenceError as exc:
        return type(exc), str(exc)


_SHAPE = st.one_of(st.floats(0.5, 5e6),
                   st.sampled_from([0.5, 1.0, 2.5, 2350.0, 5e6]))


@given(a=_SHAPE, b=_SHAPE, x=st.floats(0.0, 1.0))
@example(a=5e6, b=5e6, x=0.5)  # does not converge
@example(a=0.5, b=0.5, x=0.2)
def test_beta_cf_equals_the_unrolled_oracle(a, b, x):
    # x itself, and both sides of the switch to the symmetric fraction
    switch = (a + 1.0) / (a + b + 2.0)
    for x in (x, switch, math.nextafter(switch, 0.0), math.nextafter(switch, 1.0)):
        got = _beta_outcome(a, b, x)
        with mock.patch.object(special, "_beta_cf", _unrolled_beta_cf):
            assert _beta_outcome(a, b, x) == got, (a, b, x)


def test_f_tail_reports_a_fraction_that_does_not_converge():
    # a = b = 5e6 at x = 0.5 needs more than _MAX_ITER terms
    with pytest.raises(ConvergenceError, match=r"did not converge \(a=5000000\.0, "
                       r"b=5000000\.0, x=0\.5\)"):
        f_sf(1.0, 1e7, 1e7)
