import math

import pytest
from scipy import integrate

from fitts3d import DomainError, f_cdf, f_sf, regularized_incomplete_beta


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
