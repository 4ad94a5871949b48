"""Confidence and agreement baselines: AC, ATC, DOC-Feat, naive agreement.

Temperature scaling multiplies logits by beta = exp(t); t minimises the
mean cross-entropy (CE) on the ID split inside ``TEMP_BOX``. With
d = logits - rowmax, taken once per fit, the CE is convex in beta with
exact derivatives mean(E_p[d] - d_gold) and mean(Var_p[d]). The fit
returns a box edge when the derivative there points out of the box (so a
CE that underflows to a flat tail goes to the upper edge); otherwise
safeguarded Newton steps in t alternate with bisection until the bracket
is narrower than ``TEMP_TOL``. Each softmax head of a log is fitted on
its own: the one head of a classification log, or the start and end heads
of a QA log (-inf padded matrices). A report fits the temperatures of each
ID log once and shares them with AC, ATC and DOC-Feat
(``confidence_scores``).
"""

from __future__ import annotations

import math

import numpy as np

from .datamodel import ClassificationLog, SpanLog
from .errors import EmptyLog, InsufficientModels, MissingLogits

METHOD_AC = "ac"
METHOD_ATC = "atc"
METHOD_DOC_FEAT = "doc_feat"
METHOD_NAIVE_AGREEMENT = "naive_agreement"

TEMP_BOX = (-5.0, 5.0)
TEMP_TOL = 1e-6


def _heads(log):
    """``(logits, gold)`` of each softmax head: one for classification, the
    start and end heads for QA."""
    if isinstance(log, SpanLog):
        return (log.start_logits, log.gold[:, 0]), (log.end_logits, log.gold[:, 1])
    if not isinstance(log, ClassificationLog):
        raise MissingLogits(f"unsupported log type {type(log)!r}")
    if log.logits is None:
        raise MissingLogits(f"log {log.model_id!r} carries no logits")
    return ((log.logits, log.gold),)


def _mean_ce(logits: np.ndarray, golds: np.ndarray, t: float) -> float:
    """The objective: mean CE of softmax(exp(t) * logits) against ``golds``."""
    scaled = logits * math.exp(t)
    shifted = scaled - scaled.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    return float(np.mean(lse - shifted[np.arange(len(golds)), golds]))


def _fit_coordinate(logits: np.ndarray, golds: np.ndarray) -> float:
    """The t in ``TEMP_BOX`` minimising ``_mean_ce``; -inf entries are padding."""
    d = logits - logits.max(axis=1, keepdims=True)
    d_fin = np.where(np.isfinite(d), d, 0.0)  # d * e^(beta d) is NaN on the padding
    mean_gold = float(np.mean(d_fin[np.arange(len(golds)), golds]))

    def slope(t):
        """dCE/dbeta at beta = e^t, and its derivative in t."""
        beta = math.exp(t)
        w = np.exp(beta * d)
        z = w.sum(axis=1)
        wd = w * d_fin
        m1 = wd.sum(axis=1) / z
        m2 = (wd * d_fin).sum(axis=1) / z
        return float(np.mean(m1)) - mean_gold, beta * float(np.mean(m2 - m1 * m1))

    lo, hi = TEMP_BOX
    # dCE/dbeta rises with t, so its sign at an edge says whether the minimum is inside
    if slope(hi)[0] <= 0.0:
        return hi
    if slope(lo)[0] >= 0.0:
        return lo
    t = 0.5 * (lo + hi)
    step = older = hi - lo  # the last two moves of t
    while True:
        g, dg = slope(t)
        if g == 0.0:
            return t
        if g < 0.0:
            lo = t
        else:
            hi = t
        newton = t - g / dg if dg > 0.0 else math.nan  # NaN fails every comparison
        if hi - lo < TEMP_TOL:
            return newton if lo < newton < hi else 0.5 * (lo + hi)
        # Newton must stay in the bracket and at least halve the move before last
        if not (lo < newton < hi and abs(newton - t) <= 0.5 * older):
            t, step, older = 0.5 * (lo + hi), 0.5 * (hi - lo), step  # bisect
        elif abs(newton - t) < 0.5 * TEMP_TOL:
            # Newton nears the root from one side: step just past it to close
            # the other end of the bracket, and bisect next if that fails
            t, step, older = newton - math.copysign(0.5 * TEMP_TOL, g), 0.0, 0.0
        else:
            t, step, older = newton, abs(newton - t), step


def fit_temperature(id_log) -> tuple[float, ...]:
    """One log-temperature per softmax head; logits are multiplied by exp(t).
    The QA pair CE separates into one CE per head."""
    heads = _heads(id_log)
    if len(id_log) == 0:
        raise EmptyLog("cannot calibrate an empty log")
    return tuple(_fit_coordinate(logits, gold) for logits, gold in heads)


def _max_prob(logits: np.ndarray, t: float) -> np.ndarray:
    """Row-wise largest softmax probability of exp(t) * logits."""
    scaled = logits * math.exp(t)
    return 1.0 / np.exp(scaled - scaled.max(axis=1, keepdims=True)).sum(axis=1)


def confidence(log, temperature: tuple[float, ...] | None = None) -> np.ndarray:
    """Per-example product of the heads' max probabilities: the max probability
    (classification) or, since it factorizes, the max pair probability (QA)."""
    heads = _heads(log)
    ts = (0.0,) * len(heads) if temperature is None else temperature
    return math.prod(_max_prob(logits, t) for (logits, _), t in zip(heads, ts, strict=True))


def atc_threshold(id_perf: float, id_conf: np.ndarray) -> float:
    """Threshold whose ID coverage reproduces the ID performance."""
    conf = np.sort(id_conf)
    n = len(conf)
    n_errors = n - int(round(id_perf * n))
    if n_errors >= n:
        return math.inf
    return float(conf[n_errors])


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
