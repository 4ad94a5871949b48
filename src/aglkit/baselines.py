"""Confidence and agreement baselines: AC, ATC, DOC-Feat, naive agreement.

Temperature scaling multiplies logits by beta = exp(t); t minimises the
mean cross-entropy (CE) on the ID split inside ``TEMP_BOX``. With
d = logits - rowmax, taken once per fit, the CE is convex in beta with
exact derivatives mean(E_p[d] - d_gold) and mean(Var_p[d]). The fit
returns a box edge when the derivative there points out of the box (so a
CE that underflows to a flat tail goes to the upper edge); otherwise
safeguarded Newton steps in t alternate with bisection until the bracket
is narrower than ``TEMP_TOL``. QA start and end coordinates are fitted
separately on the log's -inf padded logit matrices. A report fits one
temperature per ID log and shares it with AC, ATC and DOC-Feat
(``confidence_scores``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datamodel import METRIC_ACCURACY, METRIC_EXACT_MATCH, ClassificationLog, SpanLog
from .errors import EmptyLog, InsufficientModels, MissingLogits
from .metrics import AgreementMatrix, performance

METHOD_AC = "ac"
METHOD_ATC = "atc"
METHOD_DOC_FEAT = "doc_feat"
METHOD_NAIVE_AGREEMENT = "naive_agreement"

TEMP_BOX = (-5.0, 5.0)
TEMP_TOL = 1e-6


@dataclass(frozen=True)
class Temperature:
    """Log-scale temperature; logits are multiplied by exp(t)."""
    t: float
    t_end: float | None = None  # set for QA (t is then the start temperature)

    @property
    def is_qa(self):
        return self.t_end is not None


@dataclass
class BaselineComparison:
    """Raw and temperature-scaled variants of one confidence estimate."""
    method: str
    raw: float
    temp_scaled: float
    selected: float | None = None
    used_temperature: bool = False


@dataclass(frozen=True)
class ConfidenceScores:
    """One model's ID accuracy and (ID, OOD) confidences, raw and scaled by
    the temperature fitted on its ID log."""
    id_accuracy: float
    raw: tuple[np.ndarray, np.ndarray]
    scaled: tuple[np.ndarray, np.ndarray]


def _require_logits(log):
    if isinstance(log, ClassificationLog):
        if log.logits is None:
            raise MissingLogits(f"log {log.model_id!r} carries no logits")
    elif not isinstance(log, SpanLog):
        raise MissingLogits(f"unsupported log type {type(log)!r}")


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


def fit_temperature_classification(log: ClassificationLog) -> Temperature:
    _require_logits(log)
    if len(log) == 0:
        raise EmptyLog("cannot calibrate an empty log")
    return Temperature(t=_fit_coordinate(log.logits, log.gold))


def fit_temperature_qa(log: SpanLog) -> Temperature:
    """Joint start/end calibration; the pair CE separates per coordinate."""
    if len(log) == 0:
        raise EmptyLog("cannot calibrate an empty log")
    start, end = log.padded_logits
    gold_start = np.array([ex.gold_start for ex in log.examples], dtype=np.int64)
    gold_end = np.array([ex.gold_end for ex in log.examples], dtype=np.int64)
    return Temperature(t=_fit_coordinate(start, gold_start),
                       t_end=_fit_coordinate(end, gold_end))


def _max_prob(logits: np.ndarray, t: float) -> np.ndarray:
    """Row-wise largest softmax probability of exp(t) * logits."""
    scaled = logits * math.exp(t)
    return 1.0 / np.exp(scaled - scaled.max(axis=1, keepdims=True)).sum(axis=1)


def confidence(log, temperature: Temperature | None = None) -> np.ndarray:
    """Per-example max probability (classification) or max pair probability (QA)."""
    _require_logits(log)
    t = temperature.t if temperature is not None else 0.0
    if isinstance(log, ClassificationLog):
        return _max_prob(log.logits, t)
    t_end = temperature.t_end if (temperature is not None and temperature.is_qa) else t
    start, end = log.padded_logits
    # max over all (i, j) pairs of p_start[i] * p_end[j] factorizes
    return _max_prob(start, t) * _max_prob(end, t_end)


def _id_accuracy(log) -> float:
    # Baselines estimate the exact-match rate for QA logs.
    return performance(log, METRIC_ACCURACY if isinstance(log, ClassificationLog)
                       else METRIC_EXACT_MATCH)


def _atc_threshold(id_accuracy: float, id_conf: np.ndarray) -> float:
    conf = np.sort(id_conf)
    n = len(conf)
    n_errors = n - int(round(id_accuracy * n))
    if n_errors >= n:
        return math.inf
    return float(conf[n_errors])


def _ac(id_accuracy, id_conf, ood_conf) -> float:
    return float(np.mean(ood_conf))


def _atc(id_accuracy, id_conf, ood_conf) -> float:
    return float(np.mean(ood_conf >= _atc_threshold(id_accuracy, id_conf)))


def _doc_feat(id_accuracy, id_conf, ood_conf) -> float:
    est = id_accuracy - (float(np.mean(id_conf)) - float(np.mean(ood_conf)))
    return min(1.0, max(0.0, est))


_SCORE_METHODS = {METHOD_AC: _ac, METHOD_ATC: _atc, METHOD_DOC_FEAT: _doc_feat}


def ac_estimate(ood_log, temperature: Temperature | None = None) -> float:
    """Average confidence on the OOD split."""
    return _ac(None, None, confidence(ood_log, temperature))


def atc_threshold(id_log, temperature: Temperature | None = None) -> float:
    """Threshold whose ID coverage reproduces the ID accuracy."""
    return _atc_threshold(_id_accuracy(id_log), confidence(id_log, temperature))


def atc_estimate(id_log, ood_log, temperature: Temperature | None = None) -> float:
    """Fraction of OOD examples whose confidence clears the ID-fit threshold."""
    return _atc(_id_accuracy(id_log), confidence(id_log, temperature),
                confidence(ood_log, temperature))


def doc_feat_estimate(id_log, ood_log, temperature: Temperature | None = None) -> float:
    """ID accuracy shifted by the drop in mean confidence, clamped to [0, 1]."""
    return _doc_feat(_id_accuracy(id_log), confidence(id_log, temperature),
                     confidence(ood_log, temperature))


def naive_agreement_estimate(agr_ood: AgreementMatrix) -> np.ndarray:
    """Each model's mean OOD agreement with its peers."""
    n = agr_ood.n
    if n < 2:
        raise InsufficientModels(f"need at least 2 models, got {n}")
    out = np.empty(n)
    for i in range(n):
        out[i] = (agr_ood.values[i].sum() - agr_ood.values[i, i]) / (n - 1)
    return out


def fit_temperature(id_log) -> Temperature:
    if isinstance(id_log, ClassificationLog):
        return fit_temperature_classification(id_log)
    return fit_temperature_qa(id_log)


def confidence_scores(id_log, ood_log) -> ConfidenceScores:
    """Fit the ID log's temperature once; score both splits raw and scaled."""
    raw = (confidence(id_log), confidence(ood_log))
    temp = fit_temperature(id_log)
    return ConfidenceScores(id_accuracy=_id_accuracy(id_log), raw=raw,
                            scaled=(confidence(id_log, temp), confidence(ood_log, temp)))


def with_and_without_temperature(method: str, id_log, ood_log,
                                 ood_truth: float | None = None,
                                 scores: ConfidenceScores | None = None) -> BaselineComparison:
    """Run one confidence baseline raw and temperature-scaled.

    ``scores`` are the pair's ``confidence_scores`` when the caller already
    has them (they are computed otherwise). With an OOD truth value
    (evaluation mode) the closer variant is selected, preferring the raw
    one on ties; otherwise both variants are reported unselected.
    """
    if scores is None:
        scores = confidence_scores(id_log, ood_log)
    fn = _SCORE_METHODS[method]
    raw = fn(scores.id_accuracy, *scores.raw)
    scaled = fn(scores.id_accuracy, *scores.scaled)
    cmp = BaselineComparison(method=method, raw=raw, temp_scaled=scaled)
    if ood_truth is not None:
        if abs(scaled - ood_truth) < abs(raw - ood_truth):
            cmp.selected = scaled
            cmp.used_temperature = True
        else:
            cmp.selected = raw
            cmp.used_temperature = False
    return cmp
