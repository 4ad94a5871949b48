"""Per-model performance and pairwise agreement metrics.

Agreement applies the same per-example metric with the second model's
prediction in the gold slot; all three metrics are symmetric, so the
orientation does not matter. Under accuracy, integer labels in [0, 8) are
counted as bit rows, one AND and one popcount per pair, in exact integers.
"""

from __future__ import annotations

import numpy as np

from .datamodel import METRIC_ACCURACY, METRIC_EXACT_MATCH, _check_metric
from .errors import EmptyLog, InsufficientModels, ShapeMismatch


def _scores(metric: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-example metric between predictions ``a`` and ``b`` (broadcast):
    class indices for accuracy, [start, end] pairs on the last axis for the
    span metrics. Span F1 is token-interval F1; an inverted span is empty,
    and two empty spans agree."""
    if metric == METRIC_ACCURACY:
        return a == b
    if metric == METRIC_EXACT_MATCH:
        return (a == b).all(axis=-1)
    def width(lo, hi):  # hi - lo + 1 as a float, or 0: in uint64, hi >= lo cannot wrap
        if lo.dtype.kind == "f":  # a fraction counts as it is, and NaN stays NaN
            return np.maximum(hi.astype(np.float64) - lo + 1, 0)
        return np.where(hi >= lo, (hi.astype(np.uint64) - lo.astype(np.uint64)) + 1.0, 0.0)
    overlap = width(np.maximum(a[..., 0], b[..., 0]), np.minimum(a[..., 1], b[..., 1]))
    total = width(a[..., 0], a[..., 1]) + width(b[..., 0], b[..., 1])
    return np.divide(2.0 * overlap, total, out=np.ones_like(total), where=total != 0)


def performance(log, metric: str) -> float:
    """Metric of a log against its own gold labels."""
    _check_metric(log, metric)
    if len(log) == 0:
        raise EmptyLog(f"log {log.model_id!r} has no examples")
    return float(np.mean(_scores(metric, log.predicted, log.gold)))


def agreement(a, b, metric: str) -> float:
    """Mean per-example metric between two models' predictions."""
    return float(agreement_matrix([a, b], metric)[0, 1])


def agreement_matrix(logs, metric: str) -> np.ndarray:
    """The symmetric (n, n) pairwise agreements of an aligned ensemble of
    n >= 2 logs, in log order, with ones on the diagonal. Predictions stack
    in their own dtype: ``load_log`` already holds class labels narrow."""
    logs = list(logs)
    n = len(logs)
    if n < 2:
        raise InsufficientModels(f"need at least 2 models, got {n}")
    first = logs[0]
    _check_metric(first, metric)
    if len(first) == 0:
        raise EmptyLog("cannot compute agreement on empty logs")
    for log in logs[1:]:
        if log.task != first.task:
            raise ShapeMismatch(log.model_id, f"task {log.task!r} != {first.task!r}")
        if len(log) != len(first):
            raise ShapeMismatch(log.model_id, f"length {len(log)} != {len(first)}")
    preds = np.stack([log.predicted for log in logs])
    # below 8 classes a packed example takes at most 8 bits, no wider than an int8 label
    if (metric == METRIC_ACCURACY and preds.dtype.kind in "iu"
            and preds.min() >= 0 and preds.max() < 8):
        words = _class_bits(preds)
        row = lambda i: np.bitwise_count(words[i] & words[i + 1:]).sum(axis=1) / preds.shape[1]
    else:
        row = lambda i: np.mean(_scores(metric, preds[i], preds[i + 1:]), axis=1)
    values = np.ones((n, n), dtype=np.float64)
    for i in range(n - 1):  # one row of pairs at a time keeps memory at n x examples
        values[i, i + 1:] = values[i + 1:, i] = row(i)
    return values


def _class_bits(preds: np.ndarray) -> np.ndarray:
    """Each row of labels in [0, 8) as uint64 words holding one bit per example and
    class, classes side by side, zero-padded: two rows share a set bit exactly where
    they agree. One class is packed at a time, so the transient is one bool stack."""
    width = (preds.shape[1] + 7) // 8
    k = int(preds.max()) + 1
    packed = np.zeros((len(preds), (k * width + 7) // 8 * 8), dtype=np.uint8)
    for c in range(k):
        packed[:, c * width:(c + 1) * width] = np.packbits(preds == c, axis=1)
    return packed.view(np.uint64)
