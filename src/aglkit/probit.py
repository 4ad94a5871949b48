"""Probit transform and probit-space least-squares line fitting.

``probit`` is the inverse standard normal CDF
(``statistics.NormalDist().inv_cdf``) and ``normal_cdf`` its forward CDF
(``0.5 * math.erfc(-z / sqrt(2))``); both, like ``clamp_rate``, work
elementwise on scalars and arrays and return float64. They are stdlib
functions so that ``aglkit estimate``, ``validate`` and ``synth`` never
import scipy; only the closed forms in ``aglkit.closed_form`` use
``scipy.special``.
``fit_line`` fits an OLS line to arrays of probit x and y values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import DegenerateFit, DomainError, LengthMismatch

CLAMP_EPS = 1e-4

_SQRT_HALF = math.sqrt(0.5)
_erfc = np.frompyfunc(math.erfc, 1, 1)
_inv_cdf = np.frompyfunc(NormalDist().inv_cdf, 1, 1)


def _float64(values):
    """A frompyfunc result as float64: an array, or a numpy scalar for 0-d input."""
    return np.asarray(values, dtype=np.float64)[()]


def normal_cdf(z):
    """Standard normal CDF Phi(z), elementwise; 0 and 1 at -inf and inf, NaN at NaN."""
    return 0.5 * _float64(_erfc(np.asarray(z, dtype=np.float64) * -_SQRT_HALF))


def probit(p):
    """Inverse standard normal CDF Phi^-1(p), elementwise for p in (0, 1)."""
    p = np.asarray(p, dtype=np.float64)
    inside = (p > 0.0) & (p < 1.0)  # false for NaN
    if not inside.all():
        raise DomainError(f"probit input {p[~inside].flat[0]} outside (0, 1)")
    return _float64(_inv_cdf(p))


def clamp_rate(p, eps: float = CLAMP_EPS):
    """Clamp rates into [eps, 1-eps] so their probits stay finite."""
    p = np.asarray(p, dtype=np.float64)
    inside = (p >= 0.0) & (p <= 1.0)  # false for NaN
    if not inside.all():
        raise DomainError(f"rate {p[~inside].flat[0]} outside [0, 1]")
    return np.clip(p, eps, 1.0 - eps)


@dataclass(frozen=True)
class LineFit:
    slope: float
    bias: float
    r_squared: float
    n_points: int
    residual_ss: float
    r_squared_defined: bool = True

    def predict(self, x: float) -> float:
        return self.slope * x + self.bias


def fit_line(xs, ys) -> LineFit:
    """Ordinary least squares y = slope*x + bias over paired probit values.

    xs and ys must be 1-D and of one length (LengthMismatch). r_squared is
    the squared Pearson correlation of (x, y); it is flagged undefined (and
    reported as 0) when y has no variance. Zero variance is decided on the
    values themselves, because a rounded mean leaves tiny nonzero deviations
    around a constant vector.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.ndim != 1 or xs.shape != ys.shape:
        raise LengthMismatch(f"xs and ys need one 1-D shape, got {xs.shape} and {ys.shape}")
    n = len(xs)
    if n < 2:
        raise DegenerateFit(f"need at least 2 points, got {n}")
    mx, my = math.fsum(xs) / n, math.fsum(ys) / n
    dx, dy = xs - mx, ys - my
    sxx = math.fsum(dx * dx)
    syy = math.fsum(dy * dy)
    sxy = math.fsum(dx * dy)
    if sxx <= 0.0 or np.ptp(xs) == 0.0:
        raise DegenerateFit("x values have zero variance")
    slope = sxy / sxx
    bias = my - slope * mx
    residuals = ys - slope * xs - bias
    defined = syy > 0.0 and np.ptp(ys) > 0.0
    r_squared = min(1.0, max(0.0, (sxy * sxy) / (sxx * syy))) if defined else 0.0
    return LineFit(slope=slope, bias=bias, r_squared=r_squared, n_points=n,
                   residual_ss=math.fsum(residuals * residuals),
                   r_squared_defined=bool(defined))
