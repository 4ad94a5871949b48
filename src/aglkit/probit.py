"""Probit transform and probit-space least-squares line fitting.

``probit`` is the inverse standard normal CDF (``scipy.special.ndtri``)
and ``normal_cdf`` its forward CDF (``scipy.special.ndtr``); both, like
``clamp_rate``, work elementwise on scalars and arrays. ``fit_line`` fits
an OLS line to arrays of probit x and y values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import DegenerateFit, DomainError

CLAMP_EPS = 1e-4

normal_cdf = ndtr  # standard normal CDF Phi(z), elementwise


def probit(p):
    """Inverse standard normal CDF Phi^-1(p), elementwise for p in (0, 1)."""
    p = np.asarray(p, dtype=np.float64)
    inside = (p > 0.0) & (p < 1.0)  # false for NaN
    if not inside.all():
        raise DomainError(f"probit input {p[~inside].flat[0]} outside (0, 1)")
    return ndtri(p)


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

    r_squared is the squared Pearson correlation of (x, y); it is flagged
    undefined (and reported as 0) when y has no variance. Zero variance is
    decided on the values themselves, because a rounded mean leaves tiny
    nonzero deviations around a constant vector.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
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
