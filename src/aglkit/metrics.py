"""Per-model performance and pairwise agreement metrics.

Agreement applies the same per-example metric with the second model's
prediction in the gold slot; all three metrics are symmetric, so the
orientation does not matter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datamodel import (
    METRIC_ACCURACY,
    METRIC_EXACT_MATCH,
    METRIC_F1,
    METRICS_BY_TASK,
    ClassificationLog,
    SpanLog,
)
from .errors import EmptyLog, InsufficientModels, MetricTaskMismatch, ShapeMismatch


@dataclass
class AgreementMatrix:
    """Symmetric pairwise agreement for one split under one metric."""
    model_ids: list[str]
    values: np.ndarray
    metric: str
    split_id: str

    @property
    def n(self):
        return len(self.model_ids)

    def pair(self, i: int, j: int) -> float:
        return float(self.values[i, j])


def _check_metric(log, metric):
    if metric not in METRICS_BY_TASK[log.task]:
        raise MetricTaskMismatch(metric, log.task)


def _scores(metric: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-example metric between predictions ``a`` and ``b`` (broadcast):
    class indices for accuracy, [start, end] pairs on the last axis for the
    span metrics. Span F1 is token-interval F1; an inverted span is empty,
    and two empty spans agree."""
    if metric == METRIC_ACCURACY:
        return a == b
    if metric == METRIC_EXACT_MATCH:
        return (a == b).all(axis=-1)
    len_a = np.maximum(a[..., 1] - a[..., 0] + 1, 0)
    len_b = np.maximum(b[..., 1] - b[..., 0] + 1, 0)
    overlap = np.maximum(np.minimum(a[..., 1], b[..., 1])
                         - np.maximum(a[..., 0], b[..., 0]) + 1, 0)
    total = len_a + len_b
    return np.where(total == 0, 1.0, 2.0 * overlap / np.maximum(total, 1))


def performance(log, metric: str) -> float:
    """Metric of a log against its own gold labels."""
    _check_metric(log, metric)
    if len(log) == 0:
        raise EmptyLog(f"log {log.model_id!r} has no examples")
    return float(np.mean(_scores(metric, log.predicted, log.gold)))


def accuracy(log: ClassificationLog) -> float:
    return performance(log, METRIC_ACCURACY)


def exact_match(log: SpanLog) -> float:
    return performance(log, METRIC_EXACT_MATCH)


def span_f1(log: SpanLog) -> float:
    """Macro-averaged token-interval F1 of predicted vs gold spans."""
    return performance(log, METRIC_F1)


def _check_compatible(a, b, metric):
    if a.task != b.task:
        raise ShapeMismatch(b.model_id, f"task {b.task!r} != {a.task!r}")
    if len(a) != len(b):
        raise ShapeMismatch(b.model_id, f"length {len(b)} != {len(a)}")
    _check_metric(a, metric)
    if len(a) == 0:
        raise EmptyLog("cannot compute agreement on empty logs")


def agreement(a, b, metric: str) -> float:
    """Mean per-example metric between two models' predictions."""
    _check_compatible(a, b, metric)
    return float(np.mean(_scores(metric, a.predicted, b.predicted)))


def agreement_matrix(logs, metric: str) -> AgreementMatrix:
    """All pairwise agreements of an aligned ensemble of n >= 2 logs."""
    logs = list(logs)
    n = len(logs)
    if n < 2:
        raise InsufficientModels(f"need at least 2 models, got {n}")
    for log in logs[1:]:
        _check_compatible(logs[0], log, metric)
    preds = np.stack([log.predicted for log in logs])
    values = np.ones((n, n), dtype=np.float64)
    for i in range(n - 1):  # one row of pairs at a time keeps memory at n x examples
        values[i, i + 1:] = values[i + 1:, i] = np.mean(
            _scores(metric, preds[i], preds[i + 1:]), axis=1)
    return AgreementMatrix(model_ids=[log.model_id for log in logs],
                           values=values, metric=metric,
                           split_id=logs[0].split_id)
