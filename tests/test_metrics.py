import itertools

import numpy as np
import pytest

from aglkit.datamodel import METRIC_ACCURACY, METRIC_EXACT_MATCH, METRIC_F1
from aglkit.errors import EmptyLog, InsufficientModels, MetricTaskMismatch, ShapeMismatch
from aglkit.metrics import (
    _scores,
    accuracy,
    agreement,
    agreement_matrix,
    exact_match,
    performance,
    span_f1,
)

from conftest import make_classification_log, make_span_log


def test_accuracy_trivial():
    log = make_classification_log([0, 1, 2, 0], [0, 1, 0, 1], n_classes=3)
    assert accuracy(log) == 0.5
    assert accuracy(make_classification_log([1, 1], [1, 1])) == 1.0
    assert accuracy(make_classification_log([0, 0], [1, 1])) == 0.0


def test_empty_log_rejected():
    log = make_classification_log([], [], n_classes=2)
    with pytest.raises(EmptyLog):
        accuracy(log)
    with pytest.raises(EmptyLog):
        agreement(log, log, METRIC_ACCURACY)


def test_exact_match_trivial(rng):
    log = make_span_log([(0, 1), (2, 3), (1, 1)], [(0, 1), (2, 2), (1, 1)],
                        rng=rng)
    assert exact_match(log) == pytest.approx(2.0 / 3.0)


def test_span_f1_cases(rng):
    # identical spans
    assert span_f1(make_span_log([(2, 4)], [(2, 4)], rng=rng)) == 1.0
    # disjoint spans
    assert span_f1(make_span_log([(0, 1)], [(3, 4)], rng=rng)) == 0.0
    # partial overlap: pred {1..3}, gold {2..5} -> overlap 2, F1 = 2*2/(3+4)
    assert span_f1(make_span_log([(1, 3)], [(2, 5)], n_tokens=8, rng=rng)) \
        == pytest.approx(4.0 / 7.0)
    # containment: pred {2..2} inside gold {1..4} -> F1 = 2*1/(1+4)
    assert span_f1(make_span_log([(2, 2)], [(1, 4)], n_tokens=6, rng=rng)) \
        == pytest.approx(2.0 / 5.0)


def _f1_loop_oracle(a, b):
    """Token-set F1 via explicit set construction."""
    scores = []
    for (a_start, a_end), (b_start, b_end) in zip(a.predicted.tolist(), b.predicted.tolist()):
        sa = set(range(a_start, a_end + 1))
        sb = set(range(b_start, b_end + 1))
        if not sa and not sb:
            scores.append(1.0)  # two empty (inverted) spans agree vacuously
            continue
        inter = len(sa & sb)
        if inter == 0:
            scores.append(0.0)
            continue
        prec = inter / len(sa)
        rec = inter / len(sb)
        scores.append(2 * prec * rec / (prec + rec))
    return sum(scores) / len(scores)


def test_agreement_matches_brute_force_classification(rng):
    for _ in range(100):
        n = int(rng.integers(5, 50))
        k = int(rng.integers(2, 5))
        a = make_classification_log(rng.integers(0, k, n), rng.integers(0, k, n), k)
        b = make_classification_log(rng.integers(0, k, n), rng.integers(0, k, n), k,
                                    model_id="m1")
        expected = sum(int(x == y) for x, y in zip(a.predicted, b.predicted)) / n
        assert agreement(a, b, METRIC_ACCURACY) == expected


def _random_span_log(rng, n, n_tokens, model_id="m0"):
    spans, gold = [], []
    for _ in range(n):
        s = int(rng.integers(0, n_tokens))
        e = int(rng.integers(0, n_tokens))
        gs = int(rng.integers(0, n_tokens))
        ge = int(rng.integers(gs, n_tokens))
        spans.append((s, e))
        gold.append((gs, ge))
    return make_span_log(spans, gold, n_tokens=n_tokens, model_id=model_id, rng=rng)


def test_span_agreement_matches_loop_oracles(rng):
    for _ in range(100):
        n = int(rng.integers(3, 20))
        a = _random_span_log(rng, n, 9)
        b = _random_span_log(rng, n, 9, model_id="m1")
        em = sum(int(pa == pb) for pa, pb in zip(a.predicted.tolist(), b.predicted.tolist())) / n
        assert agreement(a, b, METRIC_EXACT_MATCH) == em
        assert agreement(a, b, METRIC_F1) == pytest.approx(_f1_loop_oracle(a, b),
                                                           abs=1e-12)


def test_agreement_symmetric(rng):
    a = _random_span_log(rng, 30, 7)
    b = _random_span_log(rng, 30, 7, model_id="m1")
    for metric in (METRIC_EXACT_MATCH, METRIC_F1):
        assert agreement(a, b, metric) == agreement(b, a, metric)


def test_agreement_with_gold_log_equals_performance(rng):
    """A model's agreement with an oracle predicting gold is its performance."""
    n, k = 50, 3
    gold = rng.integers(0, k, n)
    model = make_classification_log(rng.integers(0, k, n), gold, k)
    oracle = make_classification_log(gold, gold, k, model_id="gold")
    assert agreement(model, oracle, METRIC_ACCURACY) == accuracy(model)

    qa = _random_span_log(rng, 25, 8)
    gold_spans = [tuple(span) for span in qa.gold.tolist()]
    qa_oracle = make_span_log(gold_spans, gold_spans, n_tokens=8, model_id="gold",
                              rng=rng)
    assert agreement(qa, qa_oracle, METRIC_EXACT_MATCH) == exact_match(qa)
    assert agreement(qa, qa_oracle, METRIC_F1) == pytest.approx(span_f1(qa), abs=1e-12)


def test_self_agreement_is_one(rng):
    a = _random_span_log(rng, 20, 6)
    assert agreement(a, a, METRIC_EXACT_MATCH) == 1.0
    assert agreement(a, a, METRIC_F1) == 1.0


def test_agreement_incompatibility_errors(rng):
    a = make_classification_log([0, 1], [0, 1])
    b = make_classification_log([0, 1, 0], [0, 1, 1])
    with pytest.raises(ShapeMismatch):
        agreement(a, b, METRIC_ACCURACY)
    qa = _random_span_log(rng, 2, 5)
    with pytest.raises(ShapeMismatch):
        agreement(a, qa, METRIC_ACCURACY)
    with pytest.raises(MetricTaskMismatch):
        agreement(a, make_classification_log([0, 1], [1, 1], model_id="m1"),
                  METRIC_F1)


def test_performance_dispatch(rng):
    log = make_classification_log([0, 1, 1], [0, 1, 0], n_classes=2)
    assert performance(log, METRIC_ACCURACY) == accuracy(log)
    qa = _random_span_log(rng, 10, 6)
    assert performance(qa, METRIC_EXACT_MATCH) == exact_match(qa)
    assert performance(qa, METRIC_F1) == span_f1(qa)
    with pytest.raises(MetricTaskMismatch):
        performance(log, "bogus")


def test_agreement_matrix_matches_pairwise_calls(rng):
    k, n = 3, 40
    logs = [make_classification_log(rng.integers(0, k, n), rng.integers(0, k, n),
                                    k, model_id=f"m{i}") for i in range(4)]
    mat = agreement_matrix(logs, METRIC_ACCURACY)
    assert mat.shape == (4, 4)
    for i in range(4):
        assert mat[i, i] == 1.0
        for j in range(4):
            if i != j:
                assert mat[i, j] == agreement(logs[i], logs[j], METRIC_ACCURACY)
                assert mat[i, j] == mat[j, i]


def test_agreement_matrix_needs_two_models(rng):
    log = make_classification_log([0, 1], [0, 1])
    with pytest.raises(InsufficientModels):
        agreement_matrix([log], METRIC_ACCURACY)


def _interval_f1(a_start, a_end, b_start, b_end) -> float:
    """The scalar token-interval F1 the metrics used before they took arrays."""
    a_len = max(0, a_end - a_start + 1)
    b_len = max(0, b_end - b_start + 1)
    if a_len == 0 and b_len == 0:
        return 1.0
    if a_len == 0 or b_len == 0:
        return 0.0
    overlap = max(0, min(a_end, b_end) - max(a_start, b_start) + 1)
    if overlap == 0:
        return 0.0
    return 2.0 * overlap / (a_len + b_len)


def test_interval_f1_matches_scalar_oracle():
    """Every pair of spans over 6 positions, inverted (empty) ones included on
    one side and on both: the array kernel equals the scalar rule exactly."""
    spans = list(itertools.product(range(6), repeat=2))
    a, b = np.array(list(itertools.product(spans, repeat=2))).transpose(1, 0, 2)
    expected = [_interval_f1(*sa, *sb) for sa, sb in zip(a.tolist(), b.tolist())]
    assert any(sa[0] > sa[1] and sb[0] > sb[1] for sa, sb in zip(a, b))
    assert _scores(METRIC_F1, a, b).tolist() == expected


def _agreement_loop(a, b, metric):
    """Pairwise agreement as a loop over examples, as it was computed before."""
    if metric == METRIC_ACCURACY:
        return float(np.mean(a.predicted == b.predicted))
    pairs = zip(a.predicted.tolist(), b.predicted.tolist())
    if metric == METRIC_EXACT_MATCH:
        return float(np.mean([1.0 if pa == pb else 0.0 for pa, pb in pairs]))
    return float(np.mean([_interval_f1(*pa, *pb) for pa, pb in pairs]))


def _agreement_matrix_loop(logs, metric):
    n = len(logs)
    values = np.ones((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            values[i, j] = values[j, i] = _agreement_loop(logs[i], logs[j], metric)
    return values


@pytest.mark.parametrize("metric", [METRIC_ACCURACY, METRIC_EXACT_MATCH, METRIC_F1])
def test_agreement_matrix_matches_pair_loop(rng, metric):
    """Bit-identical to the pair loop for the count metrics, within 1e-15 for F1."""
    for n_models, n in ((2, 1), (5, 37), (9, 200)):
        if metric == METRIC_ACCURACY:
            logs = [make_classification_log(rng.integers(0, 3, n), rng.integers(0, 3, n), 3,
                                            model_id=f"m{i}") for i in range(n_models)]
        else:
            logs = [_random_span_log(rng, n, 7, model_id=f"m{i}") for i in range(n_models)]
        got = agreement_matrix(logs, metric)
        expected = _agreement_matrix_loop(logs, metric)
        if metric == METRIC_F1:
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-15)
        else:
            assert np.array_equal(got, expected)


def test_metric_of_the_wrong_task_rejected(rng):
    qa = _random_span_log(rng, 5, 6)
    clf = make_classification_log([0, 1, 1, 0, 1], [0, 1, 0, 0, 1])
    for log, metric in ((qa, METRIC_ACCURACY), (clf, METRIC_EXACT_MATCH), (clf, METRIC_F1)):
        with pytest.raises(MetricTaskMismatch):
            performance(log, metric)
        with pytest.raises(MetricTaskMismatch):
            agreement(log, log, metric)
        with pytest.raises(MetricTaskMismatch):
            agreement_matrix([log, log], metric)
