import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aglkit.errors import DegenerateFit, DomainError
from aglkit.probit import (
    clamp_rate,
    fit_line,
    normal_cdf,
    probit,
)

# --- high-precision CDF oracle: Taylor series in the center, Mills-ratio
# --- continued fraction in the tails, in 50-digit arithmetic.

import mpmath

mpmath.mp.dps = 50


def _oracle_cdf(z):
    z = mpmath.mpf(z)
    pdf = mpmath.exp(-z * z / 2) / mpmath.sqrt(2 * mpmath.pi)
    if abs(z) <= 2:
        # Phi(z) = 1/2 + pdf(z) * sum z^(2n+1) / (1*3*...*(2n+1))
        term = z
        total = z
        n = 0
        while abs(term) > mpmath.mpf(10) ** -45:
            n += 1
            term *= z * z / (2 * n + 1)
            total += term
        return mpmath.mpf(1) / 2 + pdf * total
    # tail: Q(z) = pdf(z) / (z + 1/(z + 2/(z + 3/(...)))) for z > 0
    x = abs(z)
    cf = mpmath.mpf(0)
    for k in range(200, 0, -1):
        cf = k / (x + cf)
    q = pdf / (x + cf)
    return q if z < 0 else 1 - q


def _oracle_probit(p, lo=-8.0, hi=8.0):
    p = mpmath.mpf(p)
    a, b = mpmath.mpf(lo), mpmath.mpf(hi)
    for _ in range(120):
        mid = (a + b) / 2
        if _oracle_cdf(mid) < p:
            a = mid
        else:
            b = mid
    return float((a + b) / 2)


def test_probit_half_is_zero():
    assert probit(0.5) == 0.0


@pytest.mark.parametrize("p", [0.1, 0.25, 0.4])
def test_probit_antisymmetry(p):
    assert probit(1 - p) == pytest.approx(-probit(p), abs=1e-12)


def test_probit_against_bisection_oracle():
    for p in [1e-8, 1e-6, 1e-4, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.975,
              0.99, 0.9999, 1 - 1e-6, 1 - 1e-8]:
        assert probit(p) == pytest.approx(_oracle_probit(p), abs=1e-9)


def test_normal_cdf_center_and_symmetry():
    assert normal_cdf(0.0) == 0.5
    for z in [-3.7, -1.2, -0.5, 0.3, 1.0, 2.5, 4.0]:
        assert normal_cdf(z) + normal_cdf(-z) == pytest.approx(1.0, abs=1e-12)


def test_round_trip_grid():
    grid = np.linspace(1e-8, 1 - 1e-8, 10_000)
    worst = max(abs(normal_cdf(probit(p)) - p) for p in grid)
    assert worst < 1e-9


def test_probit_nan_rejected():
    with pytest.raises(DomainError):
        probit(float("nan"))
    with pytest.raises(DomainError):
        probit(0.0)
    with pytest.raises(DomainError):
        probit(1.5)


@pytest.mark.parametrize("bad", [float("nan"), -0.25, 1.5])
def test_array_with_one_bad_element_rejected(bad):
    rates = np.array([0.2, 0.5, bad, 0.9])
    with pytest.raises(DomainError):
        probit(rates)
    with pytest.raises(DomainError):
        clamp_rate(rates)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1 - 1e-6),
       st.floats(min_value=1e-6, max_value=1 - 1e-6))
def test_probit_strictly_increasing(p, q):
    lo, hi = min(p, q), max(p, q)
    if hi - lo < 1e-9:
        return
    assert probit(lo) < probit(hi)


def test_clamp_rate():
    assert clamp_rate(1.0) == 0.9999
    assert clamp_rate(0.5) == 0.5
    assert clamp_rate(0.0) == 1e-4
    with pytest.raises(DomainError):
        clamp_rate(-0.1)
    with pytest.raises(DomainError):
        clamp_rate(1.1)


def test_fit_line_collinear():
    xs = np.linspace(-2, 2, 9)
    fit = fit_line(xs, 0.7 * xs - 0.3)
    assert fit.slope == pytest.approx(0.7, abs=1e-12)
    assert fit.bias == pytest.approx(-0.3, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.n_points == 9


def test_fit_line_degenerate():
    with pytest.raises(DegenerateFit):
        fit_line([1.0], [2.0])
    with pytest.raises(DegenerateFit):
        fit_line([1.0, 1.0, 1.0], [0.0, 1.0, 2.0])


def test_fit_line_constant_y():
    fit = fit_line([0.0, 1.0, 2.0], [0.5, 0.5, 0.5])
    assert fit.slope == 0.0
    assert not fit.r_squared_defined


@pytest.mark.parametrize("value", [0.1, 0.7, 1 / 3, -2.2])
def test_fit_line_constant_at_inexact_values(value):
    """A rounded mean sits a few ulps off a constant that is not an exact
    binary fraction; zero variance must still be seen."""
    const = np.full(7, value)
    spread = np.linspace(-1.0, 1.0, 7)
    with pytest.raises(DegenerateFit):
        fit_line(const, spread)
    assert not fit_line(spread, const).r_squared_defined


def _normal_equations_oracle(xs, ys):
    """Closed-form 2x2 OLS solve, by Cramer's rule."""
    n = len(xs)
    sx = sum(xs)
    sy = sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    det = n * sxx - sx * sx
    slope = (n * sxy - sx * sy) / det
    bias = (sxx * sy - sx * sxy) / det
    return slope, bias


def test_fit_line_matches_normal_equations(rng):
    for _ in range(20):
        xs = rng.normal(size=20)
        ys = 0.8 * xs + 0.1 + 0.3 * rng.normal(size=20)
        fit = fit_line(xs, ys)
        slope, bias = _normal_equations_oracle(xs, ys)
        assert fit.slope == pytest.approx(slope, abs=1e-10)
        assert fit.bias == pytest.approx(bias, abs=1e-10)


def test_fit_line_affine_equivariance(rng):
    xs = rng.normal(size=25)
    ys = 0.5 * xs - 0.2 + 0.1 * rng.normal(size=25)
    base = fit_line(xs, ys)
    c, d = 1.7, -0.9
    mapped = fit_line(xs, c * ys + d)
    assert mapped.slope == pytest.approx(c * base.slope, abs=1e-9)
    assert mapped.bias == pytest.approx(c * base.bias + d, abs=1e-9)
    assert mapped.r_squared == pytest.approx(base.r_squared, abs=1e-9)


def test_r_squared_invariant_under_positive_affine_maps(rng):
    xs = rng.normal(size=30)
    ys = -0.4 * xs + 0.6 * rng.normal(size=30)
    base = fit_line(xs, ys).r_squared
    assert fit_line(2.5 * xs + 3.0, ys).r_squared == pytest.approx(base, abs=1e-9)
    assert fit_line(xs, 0.3 * ys - 7.0).r_squared == pytest.approx(base, abs=1e-9)


def test_r_squared_matches_definition(rng):
    xs = rng.normal(size=15)
    ys = 0.9 * xs + 0.4 * rng.normal(size=15)
    fit = fit_line(xs, ys)
    total_ss = float(np.sum((ys - ys.mean()) ** 2))
    assert fit.r_squared == pytest.approx(1.0 - fit.residual_ss / total_ss, abs=1e-9)
