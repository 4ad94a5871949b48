"""Confidence and agreement baselines: AC, ATC, DOC-Feat, naive agreement.

Temperature scaling multiplies logits by exp(t); t is found by a grid
pre-scan plus golden-section refinement of the mean cross-entropy on the
ID split. The QA objective over start/end index pairs separates into two
independent 1-D problems, solved with the same routine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datamodel import ClassificationLog, SpanLog
from .errors import EmptyLog, InsufficientModels, MissingLogits
from .metrics import AgreementMatrix, accuracy

METHOD_AC = "ac"
METHOD_ATC = "atc"
METHOD_DOC_FEAT = "doc_feat"
METHOD_NAIVE_AGREEMENT = "naive_agreement"

TEMP_BOX = (-5.0, 5.0)
TEMP_TOL = 1e-6
_GRID_POINTS = 201
_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


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


def _require_logits(log):
    if isinstance(log, ClassificationLog):
        if log.logits is None:
            raise MissingLogits(f"log {log.model_id!r} carries no logits")
    elif not isinstance(log, SpanLog):
        raise MissingLogits(f"unsupported log type {type(log)!r}")


def _log_softmax(row: np.ndarray) -> np.ndarray:
    shifted = row - np.max(row)
    return shifted - math.log(np.sum(np.exp(shifted)))


def _mean_ce(logits: np.ndarray, golds: np.ndarray, t: float) -> float:
    scaled = logits * math.exp(t)
    shifted = scaled - scaled.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    return float(np.mean(lse - shifted[np.arange(len(golds)), golds]))


def _minimize_scalar(objective, lo=TEMP_BOX[0], hi=TEMP_BOX[1], tol=TEMP_TOL) -> float:
    """Grid pre-scan then golden-section refinement inside the best cell."""
    grid = np.linspace(lo, hi, _GRID_POINTS)
    vals = np.array([objective(t) for t in grid])
    # ties broken toward larger t: an objective that is strictly decreasing
    # in exact arithmetic can underflow to a flat zero tail in floats
    best = int(len(vals) - 1 - np.argmin(vals[::-1]))
    a = grid[max(0, best - 1)]
    b = grid[min(_GRID_POINTS - 1, best + 1)]
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = objective(c), objective(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = objective(d)
    return (a + b) / 2.0


def fit_temperature_classification(log: ClassificationLog) -> Temperature:
    _require_logits(log)
    if len(log) == 0:
        raise EmptyLog("cannot calibrate an empty log")
    t = _minimize_scalar(lambda t: _mean_ce(log.logits, log.gold, t))
    return Temperature(t=t)


def _padded_coordinate(log: SpanLog, which: str):
    """Stack variable-length logit vectors into a -inf padded matrix.

    Padding survives positive scaling and contributes exp(-inf) = 0 to
    the softmax normalizer, so _mean_ce works unchanged.
    """
    width = max(ex.n_tokens for ex in log.examples)
    mat = np.full((len(log.examples), width), -np.inf)
    gold = np.empty(len(log.examples), dtype=np.int64)
    for i, ex in enumerate(log.examples):
        if which == "start":
            mat[i, :ex.n_tokens] = ex.start_logits
            gold[i] = ex.gold_start
        else:
            mat[i, :ex.n_tokens] = ex.end_logits
            gold[i] = ex.gold_end
    return mat, gold


def fit_temperature_qa(log: SpanLog) -> Temperature:
    """Joint start/end calibration; the pair CE separates per coordinate."""
    if len(log) == 0:
        raise EmptyLog("cannot calibrate an empty log")
    s_mat, s_gold = _padded_coordinate(log, "start")
    e_mat, e_gold = _padded_coordinate(log, "end")
    t_s = _minimize_scalar(lambda t: _mean_ce(s_mat, s_gold, t))
    t_e = _minimize_scalar(lambda t: _mean_ce(e_mat, e_gold, t))
    return Temperature(t=t_s, t_end=t_e)


def confidence(log, temperature: Temperature | None = None) -> np.ndarray:
    """Per-example max probability (classification) or max pair probability (QA)."""
    _require_logits(log)
    if isinstance(log, ClassificationLog):
        t = temperature.t if temperature is not None else 0.0
        scaled = log.logits * math.exp(t)
        shifted = scaled - scaled.max(axis=1, keepdims=True)
        probs = np.exp(shifted)
        probs /= probs.sum(axis=1, keepdims=True)
        return probs.max(axis=1)
    t_s = temperature.t if temperature is not None else 0.0
    t_e = temperature.t_end if (temperature is not None and temperature.is_qa) else t_s
    out = np.empty(len(log.examples))
    for idx, ex in enumerate(log.examples):
        # max over all (i, j) pairs of p_start[i] * p_end[j] factorizes
        p_s = np.exp(_log_softmax(ex.start_logits * math.exp(t_s)))
        p_e = np.exp(_log_softmax(ex.end_logits * math.exp(t_e)))
        out[idx] = float(p_s.max() * p_e.max())
    return out


def _qa_exact_correct(log: SpanLog) -> np.ndarray:
    return np.array([1.0 if (ex.pred_start == ex.gold_start and ex.pred_end == ex.gold_end)
                     else 0.0 for ex in log.examples])


def _id_accuracy(log) -> float:
    # Baselines estimate the exact-match rate for QA logs.
    if isinstance(log, ClassificationLog):
        return accuracy(log)
    return float(np.mean(_qa_exact_correct(log)))


def ac_estimate(ood_log, temperature: Temperature | None = None) -> float:
    """Average confidence on the OOD split."""
    return float(np.mean(confidence(ood_log, temperature)))


def atc_threshold(id_log, temperature: Temperature | None = None) -> float:
    """Threshold whose ID coverage reproduces the ID accuracy."""
    conf = np.sort(confidence(id_log, temperature))
    n = len(conf)
    n_errors = n - int(round(_id_accuracy(id_log) * n))
    if n_errors >= n:
        return math.inf
    return float(conf[n_errors])


def atc_estimate(id_log, ood_log, temperature: Temperature | None = None) -> float:
    """Fraction of OOD examples whose confidence clears the ID-fit threshold."""
    tau = atc_threshold(id_log, temperature)
    ood_conf = confidence(ood_log, temperature)
    return float(np.mean(ood_conf >= tau))


def doc_feat_estimate(id_log, ood_log, temperature: Temperature | None = None) -> float:
    """ID accuracy shifted by the drop in mean confidence, clamped to [0, 1]."""
    mean_id = float(np.mean(confidence(id_log, temperature)))
    mean_ood = float(np.mean(confidence(ood_log, temperature)))
    est = _id_accuracy(id_log) - (mean_id - mean_ood)
    return min(1.0, max(0.0, est))


def naive_agreement_estimate(agr_ood: AgreementMatrix) -> np.ndarray:
    """Each model's mean OOD agreement with its peers."""
    n = agr_ood.n
    if n < 2:
        raise InsufficientModels(f"need at least 2 models, got {n}")
    out = np.empty(n)
    for i in range(n):
        out[i] = (agr_ood.values[i].sum() - agr_ood.values[i, i]) / (n - 1)
    return out


_SCALAR_METHODS = {
    METHOD_AC: lambda id_log, ood_log, temp: ac_estimate(ood_log, temp),
    METHOD_ATC: lambda id_log, ood_log, temp: atc_estimate(id_log, ood_log, temp),
    METHOD_DOC_FEAT: lambda id_log, ood_log, temp: doc_feat_estimate(id_log, ood_log, temp),
}


def fit_temperature(id_log) -> Temperature:
    if isinstance(id_log, ClassificationLog):
        return fit_temperature_classification(id_log)
    return fit_temperature_qa(id_log)


def with_and_without_temperature(method: str, id_log, ood_log,
                                 ood_truth: float | None = None) -> BaselineComparison:
    """Run one confidence baseline raw and temperature-scaled.

    With an OOD truth value (evaluation mode) the closer variant is
    selected, preferring the raw one on ties; otherwise both variants are
    reported unselected.
    """
    fn = _SCALAR_METHODS[method]
    raw = fn(id_log, ood_log, None)
    temp = fit_temperature(id_log)
    scaled = fn(id_log, ood_log, temp)
    cmp = BaselineComparison(method=method, raw=raw, temp_scaled=scaled)
    if ood_truth is not None:
        if abs(scaled - ood_truth) < abs(raw - ood_truth):
            cmp.selected = scaled
            cmp.used_temperature = True
        else:
            cmp.selected = raw
            cmp.used_temperature = False
    return cmp
