"""Output check: recompute what report.json must say from the generated arrays.

The recomputation uses numpy and ``scipy.special`` only, never aglkit,
so a change inside aglkit cannot move the reference along with the output.
"""

from __future__ import annotations

import json

import numpy as np
from scipy.special import ndtr, ndtri

CLAMP_EPS = 1e-4  # aglkit's default --clamp-eps, which the benchmark uses
PERF_TOL = 1e-12  # performance is a mean of the same per-example values
FIT_TOL = 1e-9  # slope, bias and R^2 differ only by summation order and probit error
ESTIMATE_TOL = 1e-9  # ALine estimates: the same, plus the least-squares solver's rounding


def span_f1(a, b):
    """Token-interval F1 of span arrays ``a`` and ``b`` of shape (..., 2)."""
    a_len = a[..., 1] - a[..., 0] + 1
    b_len = b[..., 1] - b[..., 0] + 1
    overlap = np.clip(np.minimum(a[..., 1], b[..., 1]) - np.maximum(a[..., 0], b[..., 0]) + 1,
                      0, None)
    return 2.0 * overlap / (a_len + b_len)


def _score(metric, a, b):
    if metric == "accuracy":
        return (a == b).mean(axis=-1)
    return span_f1(a, b).mean(axis=-1)


def performance(arrays, split):
    """Per-model performance on one split, shape (n_models,)."""
    pred = arrays[f"{split}_pred"]
    return _score(arrays["metric"], pred, arrays[f"{split}_gold"][None])


def pair_agreement(arrays, split):
    """Upper-triangle pairwise agreement on one split, in (i, j) row order."""
    pred = arrays[f"{split}_pred"]
    i, j = np.triu_indices(len(pred), k=1)
    return _score(arrays["metric"], pred[i], pred[j])


def _probit(v):
    return ndtri(np.clip(v, CLAMP_EPS, 1.0 - CLAMP_EPS))


def agreement_line(x, y):
    """OLS slope, bias and R^2 of probit OOD agreement ``y`` on probit ID agreement ``x``."""
    dx, dy = x - x.mean(), y - y.mean()
    sxx, syy, sxy = dx @ dx, dy @ dy, dx @ dy
    slope = sxy / sxx
    return {"slope": slope, "bias": y.mean() - slope * x.mean(),
            "r_squared": min(1.0, sxy * sxy / (sxx * syy))}


def aline_d(id_probit, x, y, slope):
    """ALine-D's least-squares solution in closed form.

    Row (i, j) of the system asks (z_i + z_j)/2 = y_ij + slope*((p_i + p_j)/2 - x_ij).
    With every pair present, A^T A = ((n-2)I + 11^T)/4, so by Sherman-Morrison
    z = 4/(n-2) * (A^T b - sum(A^T b)/(2n-2)).
    """
    n = len(id_probit)
    i, j = np.triu_indices(n, k=1)
    rhs = y + slope * ((id_probit[i] + id_probit[j]) / 2.0 - x)
    atb = 0.5 * (np.bincount(i, rhs, n) + np.bincount(j, rhs, n))
    return ndtr(4.0 / (n - 2) * (atb - atb.sum() / (2 * n - 2)))


class Reference:
    """What every report of one workload's inputs must contain."""

    def __init__(self, arrays):
        self.id_perf = performance(arrays, "id")
        self.ood_perf = performance(arrays, "ood")
        x = _probit(pair_agreement(arrays, "id"))
        y = _probit(pair_agreement(arrays, "ood"))
        self.fit = agreement_line(x, y)
        id_probit = _probit(self.id_perf)
        self.estimates = {
            "aline_s": ndtr(self.fit["slope"] * id_probit + self.fit["bias"]),
            "aline_d": aline_d(id_probit, x, y, self.fit["slope"]),
        }

    def problems(self, report_bytes):
        """Reasons the report is wrong; empty when it passes."""
        try:
            report = json.loads(report_bytes)
            rows = report["per_model"]
            got = {"ID performance": [row["id_perf"] for row in rows],
                   "OOD performance": [row["true_ood_perf"] for row in rows]}
            got.update({m: [row["estimates"][m] for row in rows] for m in self.estimates})
            fit = report["fits"]["agreement_fit"] or {}
            errors = report["method_errors"]
        except (ValueError, KeyError, TypeError) as exc:
            return [f"report.json unreadable: {exc!r}"]
        want = {"ID performance": (self.id_perf, PERF_TOL),
                "OOD performance": (self.ood_perf, PERF_TOL)}
        want.update({m: (v, ESTIMATE_TOL) for m, v in self.estimates.items()})
        out = [f"method_errors: {errors}"] if errors else []
        for name, (ref, tol) in want.items():
            values = np.asarray(got[name], dtype=np.float64)
            if values.shape != ref.shape or not np.allclose(values, ref, rtol=0, atol=tol):
                out.append(f"{name} differs from the recomputation")
        for key, ref in self.fit.items():
            value = fit.get(key)
            if not isinstance(value, float) or abs(value - ref) > FIT_TOL:
                out.append(f"agreement_fit.{key} {value!r} != {ref!r}")
        return out

    def mape_pct(self, report_bytes):
        """MAPE of each ALine method's estimates against the generated OOD performance."""
        rows = json.loads(report_bytes)["per_model"]
        out = {}
        for method in self.estimates:
            est = np.array([row["estimates"][method] for row in rows])
            out[method] = float(100.0 * np.mean(np.abs(est - self.ood_perf) / self.ood_perf))
        return out
