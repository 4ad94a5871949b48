"""ALine-S and ALine-D: OOD performance estimation from agreement.

Both methods fit an OLS line to probit-transformed (ID, OOD) agreements
of the upper-triangle model pairs (i < j). ALine-S applies the fitted
slope/bias to each model's probit ID performance. ALine-D solves a
least-squares system whose row for pair (i, j) constrains the average of
the two models' probit OOD performances by their OOD agreement plus a
slope-corrected ID term. With every pair present the normal matrix is
A^T A = ((n-2) I + 1 1^T) / 4, so the system is solved in closed form by
Sherman-Morrison, without building A. An input's ``id_probit``, ``pairs``
and agreement ``line`` are computed on first use, once for both estimators
and the report's fits and scatter: build a new ``AlineInput`` rather than
edit one that has been read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InsufficientModels, LengthMismatch
from .probit import CLAMP_EPS, LineFit, clamp_rate, fit_line, normal_cdf, probit

METHOD_ALINE_S = "aline_s"
METHOD_ALINE_D = "aline_d"


@dataclass
class AlineInput:
    """ID performance (n,) and the symmetric (n, n) ID and OOD agreement matrices."""
    id_perf: np.ndarray
    agr_id: np.ndarray
    agr_ood: np.ndarray
    clamp_eps: float = CLAMP_EPS

    def __post_init__(self):
        self.id_perf, self.agr_id, self.agr_ood = (
            np.asarray(a, dtype=np.float64) for a in (self.id_perf, self.agr_id, self.agr_ood))
        n = len(self.id_perf)
        if n < 2:
            raise InsufficientModels(f"need at least 2 models, got {n}")
        if self.agr_id.shape != (n, n) or self.agr_ood.shape != (n, n):
            raise LengthMismatch(f"agreement matrices {self.agr_id.shape}, "
                                 f"{self.agr_ood.shape} not aligned with {n} models")

    @property
    def n(self):
        return len(self.id_perf)

    @cached_property
    def id_probit(self):
        """The clamped probits of id_perf."""
        return probit(clamp_rate(self.id_perf, self.clamp_eps))

    @cached_property
    def pairs(self):
        """(i, j, x, y): each pair i < j in row-major order and the clamped
        probits of its ID (x) and OOD (y) agreement."""
        i, j = np.triu_indices(self.n, k=1)
        x, y = (probit(clamp_rate(a[i, j], self.clamp_eps)) for a in (self.agr_id, self.agr_ood))
        return i, j, x, y

    @cached_property
    def line(self) -> LineFit:
        """OLS fit over the upper-triangle probit agreement pairs."""
        return fit_line(*self.pairs[2:])


def gate(fit: LineFit, threshold: float) -> bool:
    """True iff the agreement line's R^2 strictly exceeds the threshold."""
    return fit.r_squared > threshold


def agreement_line(inp: AlineInput) -> LineFit:
    """The input's agreement ``line``, fitted on first use."""
    return inp.line


def aline_s(inp: AlineInput) -> tuple[np.ndarray, LineFit]:
    """The (n,) estimates and the agreement line they come from."""
    fit = agreement_line(inp)
    return normal_cdf(fit.slope * inp.id_probit + fit.bias), fit


def aline_d(inp: AlineInput) -> tuple[np.ndarray, LineFit]:
    """The (n,) estimates and the agreement line they come from."""
    n = inp.n
    if n < 3:
        raise InsufficientModels(f"ALine-D needs at least 3 models, got {n}")
    fit = agreement_line(inp)
    id_probit, (i, j, x, y) = inp.id_probit, inp.pairs
    rhs = y + fit.slope * ((id_probit[i] + id_probit[j]) / 2.0 - x)
    # (A^T rhs)_m is half the sum of rhs over the pairs that contain model m.
    atb = 0.5 * (np.bincount(i, rhs, minlength=n) + np.bincount(j, rhs, minlength=n))
    sol = 4.0 / (n - 2) * (atb - atb.sum() / (2 * n - 2))
    return normal_cdf(sol), fit
