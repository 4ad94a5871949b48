import os

import numpy as np
import pytest

from aglkit.datamodel import ClassificationLog, SpanExample, SpanLog

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def readme_table(first_header):
    """Body rows of the README.md table whose first header cell is ``first_header``,
    each a list of its cells with backticks stripped."""
    with open(README) as fh:
        lines = fh.read().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(f"| {first_header} |"))
    rows = []
    for line in lines[start + 2:]:  # past the header and its |---| rule
        if not line.startswith("|"):
            break
        rows.append([cell.strip().replace("`", "") for cell in line.strip("|").split("|")])
    return rows


def make_classification_log(predicted, gold, n_classes=None, logits=None,
                            model_id="m0", split_id="id"):
    predicted = np.asarray(predicted, dtype=np.int64)
    gold = np.asarray(gold, dtype=np.int64)
    if n_classes is None:
        n_classes = int(max(predicted.max(initial=0), gold.max(initial=0))) + 1
        n_classes = max(n_classes, 2)
    return ClassificationLog(model_id=model_id, split_id=split_id,
                             n_classes=n_classes, gold=gold,
                             predicted=predicted,
                             logits=None if logits is None else np.asarray(logits, dtype=np.float64))


def make_span_log(spans, gold_spans, n_tokens=12, model_id="m0", split_id="id",
                  rng=None):
    """Span log with logits consistent with the given predicted spans."""
    examples = []
    for (ps, pe), (gs, ge) in zip(spans, gold_spans):
        start = np.zeros(n_tokens)
        end = np.zeros(n_tokens)
        if rng is not None:
            start += 0.1 * rng.standard_normal(n_tokens)
            end += 0.1 * rng.standard_normal(n_tokens)
        start[ps] = 5.0
        end[pe] = 5.0
        examples.append(SpanExample(n_tokens=n_tokens, start_logits=start,
                                    end_logits=end, gold_start=gs, gold_end=ge,
                                    pred_start=ps, pred_end=pe))
    return SpanLog(model_id=model_id, split_id=split_id, examples=examples)


def random_classification_logs(n_models, n_examples, n_classes, seed,
                               split_id="id", with_logits=False):
    rng = np.random.default_rng(seed)
    gold = rng.integers(0, n_classes, n_examples)
    logs = []
    for m in range(n_models):
        if with_logits:
            logits = rng.normal(size=(n_examples, n_classes))
            predicted = logits.argmax(axis=1)
        else:
            logits = None
            predicted = rng.integers(0, n_classes, n_examples)
        logs.append(make_classification_log(predicted, gold, n_classes,
                                            logits=logits, model_id=f"m{m}",
                                            split_id=split_id))
    return logs


def calibrated_span_log(n_examples, n_tokens, spread, seed,
                        model_id="cal", split_id="id"):
    """QA log whose gold span indices are drawn from the model's own softmax."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    examples = []
    for _ in range(n_examples):
        s = spread * rng.standard_normal(n_tokens)
        e = spread * rng.standard_normal(n_tokens)
        ps_dist = np.exp(s - s.max())
        ps_dist /= ps_dist.sum()
        pe_dist = np.exp(e - e.max())
        pe_dist /= pe_dist.sum()
        examples.append(SpanExample(
            n_tokens=n_tokens, start_logits=s, end_logits=e,
            gold_start=int(rng.choice(n_tokens, p=ps_dist)),
            gold_end=int(rng.choice(n_tokens, p=pe_dist)),
            pred_start=int(s.argmax()), pred_end=int(e.argmax())))
    return SpanLog(model_id=model_id, split_id=split_id, examples=examples)


def calibrated_classification_log(n_examples: int, n_classes: int,
                                  logit_spread: float, seed: int,
                                  model_id: str = "calibrated",
                                  split_id: str = "synth_id") -> ClassificationLog:
    """A perfectly calibrated log: gold is drawn from the model's own softmax.

    The expected cross-entropy of these logits is minimized at
    temperature 0, which makes them the ground truth for
    temperature-recovery tests.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    logits = logit_spread * rng.standard_normal((n_examples, n_classes))
    shifted = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(shifted)
    probs /= probs.sum(axis=1, keepdims=True)
    cdf = np.cumsum(probs, axis=1)
    draws = rng.random(n_examples)
    gold = (draws[:, None] > cdf).sum(axis=1)
    predicted = logits.argmax(axis=1)
    return ClassificationLog(model_id=model_id, split_id=split_id,
                             n_classes=n_classes, gold=gold.astype(np.int64),
                             predicted=predicted.astype(np.int64), logits=logits)


def gaussian_elimination(A, b):
    """Solution of the square system A x = b by row reduction with partial pivoting,
    written independently of numpy's and aglkit's solvers."""
    A = [list(map(float, row)) for row in A]
    b = list(map(float, b))
    n = len(b)
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(A[r][col]))
        A[col], A[pivot] = A[pivot], A[col]
        b[col], b[pivot] = b[pivot], b[col]
        for r in range(col + 1, n):
            f = A[r][col] / A[col][col]
            for c in range(col, n):
                A[r][c] -= f * A[col][c]
            b[r] -= f * b[col]
    x = [0.0] * n
    for r in range(n - 1, -1, -1):
        x[r] = (b[r] - sum(A[r][c] * x[c] for c in range(r + 1, n))) / A[r][r]
    return x


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
