"""Confidence and agreement baselines: AC, ATC, DOC-Feat, naive agreement.

Temperature scaling multiplies logits by beta = exp(t); t minimises the
mean cross-entropy (CE) on the ID split inside ``TEMP_BOX``. With
d = logits - rowmax, taken once per fit, the CE is convex in beta with
exact derivatives mean(E_p[d] - d_gold) and mean(Var_p[d]). The fit
returns a box edge when the derivative there points out of the box (so a
CE that underflows to a flat tail goes to the upper edge); otherwise
safeguarded Newton steps in t alternate with bisection until a step moves
t by less than ``TEMP_TOL``. Each softmax head that a log's ``heads()``
lists is fitted on its own: the one head of a classification log, or the
start and end heads of a QA log (-inf padded matrices). A report fits the
temperatures of each ID log once and shares them with AC, ATC and DOC-Feat
(``confidence_scores``). The fit and the confidences read each row's max at
its argmax and take its sum as one BLAS matrix-vector product: on rows a few
classes wide, numpy's ``max`` and ``sum`` over axis 1 cost several times the
softmax's own arithmetic.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EmptyLog, InsufficientModels

METHOD_AC = "ac"
METHOD_ATC = "atc"
METHOD_DOC_FEAT = "doc_feat"
METHOD_NAIVE_AGREEMENT = "naive_agreement"

TEMP_BOX = (-5.0, 5.0)
TEMP_TOL = 1e-6


def _mean_ce(logits: np.ndarray, golds: np.ndarray, t: float) -> float:
    """The objective: mean CE of softmax(exp(t) * logits) against ``golds``."""
    scaled = logits * math.exp(t)
    shifted = scaled - scaled.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    return float(np.mean(lse - shifted[np.arange(len(golds)), golds]))


def _row_max(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=1)``, value for value (NaN too): the entry at each row's argmax."""
    return x[np.arange(len(x)), x.argmax(axis=1)]


def _row_sum(x: np.ndarray) -> np.ndarray:
    """``x.sum(axis=1)`` up to summation order: one BLAS matrix-vector product."""
    return x @ np.ones(x.shape[1], x.dtype)


def _fit_coordinate(logits: np.ndarray, golds: np.ndarray) -> float:
    """The t in ``TEMP_BOX`` minimising ``_mean_ce``; -inf entries are padding."""
    if logits.dtype.kind != "f":  # int logits, as the loader reads them: d must not wrap
        logits = logits.astype(np.float64)
    d = logits - _row_max(logits)[:, None]
    d_fin = np.where(np.isfinite(d), d, 0.0)  # d * e^(beta d) is NaN on the padding
    mean_gold = float(np.mean(d_fin[np.arange(len(golds)), golds]))

    def slope(t):
        """dCE/dbeta at beta = e^t, and its derivative in t."""
        beta = math.exp(t)
        w = np.exp(beta * d)
        z = _row_sum(w)
        wd = w * d_fin
        m1 = _row_sum(wd) / z
        m2 = _row_sum(wd * d_fin) / z
        return float(np.mean(m1)) - mean_gold, beta * float(np.mean(m2 - m1 * m1))

    lo, hi = TEMP_BOX
    # dCE/dbeta rises with t, so its sign at an edge says whether the minimum is inside
    if slope(hi)[0] <= 0.0:
        return hi
    if slope(lo)[0] >= 0.0:
        return lo
    t = 0.5 * (lo + hi)
    step = older = hi - lo  # the last two moves of t
    while step >= TEMP_TOL:
        g, dg = slope(t)
        if g < 0.0:
            lo = t
        else:
            hi = t
        newton = t - g / dg if dg > 0.0 else math.nan  # NaN fails every comparison
        # Newton must stay in the bracket and at least halve the move before last
        if not (lo < newton < hi and abs(newton - t) <= 0.5 * older):
            t, step, older = 0.5 * (lo + hi), 0.5 * (hi - lo), step  # bisect
        else:
            t, step, older = newton, abs(newton - t), step
    return t


def fit_temperature(id_log) -> tuple[float, ...]:
    """One log-temperature per softmax head; logits are multiplied by exp(t).
    The QA pair CE separates into one CE per head."""
    heads = id_log.heads()
    if len(id_log) == 0:
        raise EmptyLog("cannot calibrate an empty log")
    return tuple(_fit_coordinate(logits, gold) for logits, gold in heads)


def _max_prob(logits: np.ndarray, t: float) -> np.ndarray:
    """Row-wise largest softmax probability of exp(t) * logits."""
    scaled = logits * math.exp(t)
    return 1.0 / _row_sum(np.exp(scaled - _row_max(scaled)[:, None]))


def confidence(log, temperature: tuple[float, ...] | None = None) -> np.ndarray:
    """Per-example product of the heads' max probabilities: the max probability
    (classification) or, since it factorizes, the max pair probability (QA)."""
    heads = log.heads()
    ts = (0.0,) * len(heads) if temperature is None else temperature
    return math.prod(_max_prob(logits, t) for (logits, _), t in zip(heads, ts, strict=True))


def atc_threshold(id_perf: float, id_conf: np.ndarray) -> float:
    """Threshold whose ID coverage reproduces the ID performance; repeating examples keeps it."""
    conf = np.sort(id_conf)
    n = len(conf)
    # the slack keeps accuracy's near-integer products from dropping a place
    k = math.floor(n * (1 - id_perf) + 1e-9 * n)
    if k >= n:
        return math.inf
    return float(conf[k])


def _ac(id_perf, id_conf, ood_conf) -> float:
    return float(np.mean(ood_conf))


def _atc(id_perf, id_conf, ood_conf) -> float:
    return float(np.mean(ood_conf >= atc_threshold(id_perf, id_conf)))


def _doc_feat(id_perf, id_conf, ood_conf) -> float:
    est = id_perf - (float(np.mean(id_conf)) - float(np.mean(ood_conf)))
    return min(1.0, max(0.0, est))


_SCORE_METHODS = {METHOD_AC: _ac, METHOD_ATC: _atc, METHOD_DOC_FEAT: _doc_feat}


def naive_agreement_estimate(agr_ood: np.ndarray) -> np.ndarray:
    """Each model's mean OOD agreement with its peers, from the (n, n) matrix."""
    n = len(agr_ood)
    if n < 2:
        raise InsufficientModels(f"need at least 2 models, got {n}")
    return (agr_ood.sum(axis=1) - np.diag(agr_ood)) / (n - 1)


def confidence_scores(id_log, ood_log):
    """``(raw, scaled)``: the (ID, OOD) confidences of one model, as logged and
    scaled by the temperatures fitted once on its ID log."""
    raw = (confidence(id_log), confidence(ood_log))
    temp = fit_temperature(id_log)
    return raw, (confidence(id_log, temp), confidence(ood_log, temp))


def with_and_without_temperature(method: str, id_perf: float, scores) -> tuple[float, float]:
    """One confidence baseline's ``(raw, temp_scaled)`` estimates from a model's
    ``confidence_scores``. ATC and DOC-Feat calibrate to ``id_perf``, the ID
    performance in the report's metric, so they estimate that metric."""
    fn = _SCORE_METHODS[method]
    return tuple(fn(id_perf, *pair) for pair in scores)
