import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aglkit.datamodel import METRIC_ACCURACY, METRIC_EXACT_MATCH, METRIC_F1, load_log, save_log
from aglkit.errors import EmptyLog, InsufficientModels, MetricTaskMismatch, ShapeMismatch
from aglkit.metrics import _scores, agreement, agreement_matrix, performance

from conftest import make_classification_log, make_span_log, random_classification_logs


def test_accuracy_trivial():
    log = make_classification_log([0, 1, 2, 0], [0, 1, 0, 1], n_classes=3)
    assert performance(log, METRIC_ACCURACY) == 0.5
    assert performance(make_classification_log([1, 1], [1, 1]), METRIC_ACCURACY) == 1.0
    assert performance(make_classification_log([0, 0], [1, 1]), METRIC_ACCURACY) == 0.0


def test_empty_log_rejected():
    log = make_classification_log([], [], n_classes=2)
    with pytest.raises(EmptyLog):
        performance(log, METRIC_ACCURACY)
    with pytest.raises(EmptyLog):
        agreement(log, log, METRIC_ACCURACY)


def test_exact_match_trivial(rng):
    log = make_span_log([(0, 1), (2, 3), (1, 1)], [(0, 1), (2, 2), (1, 1)],
                        rng=rng)
    assert performance(log, METRIC_EXACT_MATCH) == pytest.approx(2.0 / 3.0)


def test_span_f1_cases(rng):
    # identical spans
    assert performance(make_span_log([(2, 4)], [(2, 4)], rng=rng), METRIC_F1) == 1.0
    # disjoint spans
    assert performance(make_span_log([(0, 1)], [(3, 4)], rng=rng), METRIC_F1) == 0.0
    # partial overlap: pred {1..3}, gold {2..5} -> overlap 2, F1 = 2*2/(3+4)
    assert performance(make_span_log([(1, 3)], [(2, 5)], n_tokens=8, rng=rng), METRIC_F1) \
        == pytest.approx(4.0 / 7.0)
    # containment: pred {2..2} inside gold {1..4} -> F1 = 2*1/(1+4)
    assert performance(make_span_log([(2, 2)], [(1, 4)], n_tokens=6, rng=rng), METRIC_F1) \
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
    assert agreement(model, oracle, METRIC_ACCURACY) == performance(model, METRIC_ACCURACY)

    qa = _random_span_log(rng, 25, 8)
    gold_spans = [tuple(span) for span in qa.gold.tolist()]
    qa_oracle = make_span_log(gold_spans, gold_spans, n_tokens=8, model_id="gold",
                              rng=rng)
    assert agreement(qa, qa_oracle, METRIC_EXACT_MATCH) == performance(qa, METRIC_EXACT_MATCH)
    assert agreement(qa, qa_oracle, METRIC_F1) == pytest.approx(performance(qa, METRIC_F1), abs=1e-12)


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
    assert performance(log, METRIC_ACCURACY) == pytest.approx(2.0 / 3.0)
    qa = _random_span_log(rng, 10, 6)
    assert performance(qa, METRIC_EXACT_MATCH) == np.mean((qa.predicted == qa.gold).all(axis=1))
    assert performance(qa, METRIC_F1) == np.mean(_scores(METRIC_F1, qa.predicted, qa.gold))
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


def _plain_agreement_matrix(logs, metric):
    """The reference agreement matrix: the predictions stacked in their own dtype
    and np.mean of each row of scores."""
    n = len(logs)
    preds = np.stack([log.predicted for log in logs])
    values = np.ones((n, n), dtype=np.float64)
    for i in range(n - 1):
        values[i, i + 1:] = values[i + 1:, i] = np.mean(
            _scores(metric, preds[i], preds[i + 1:]), axis=1)
    return values


# labels at the edges of each narrow integer dtype; pairs that wrap onto each other
# in a dtype too narrow for them (128 and -128 in int8, -1 and 255 in uint8, ...)
_EDGES = (0, 1, -1, 127, 128, -128, -129, 255, 256, 32767, 32768, -32768, -32769,
          65535, 65536, 2**31 - 1, 2**31, -2**31, -2**31 - 1, 2**32 - 1, 2**32,
          2**63 - 1, -2**63)
_WRAPPING = [(128, -128), (255, -1), (256, 0), (-129, 127), (32768, -32768), (65535, -1),
             (65536, 0), (2**31, -2**31), (2**32 - 1, -1), (2**32, 0), (2**63 - 1, -1)]


def _unvalidated_logs(metric, rows):
    """In-memory logs holding ``rows`` as predictions, whatever their range: class
    indices for accuracy, (n_examples, 2) spans for the span metrics."""
    logs = []
    for m, row in enumerate(rows):
        row = np.array(row, dtype=np.int64)
        if metric == METRIC_ACCURACY:
            log = make_classification_log(row, np.zeros_like(row), n_classes=2, model_id=f"m{m}")
        else:
            log = make_span_log([(0, 0)] * len(row), [(0, 0)] * len(row), n_tokens=2,
                                model_id=f"m{m}")
            log.predicted = row
        logs.append(log)
    return logs


@st.composite
def _prediction_rows(draw, metric):
    """2-5 models' predictions drawn from a pool of 1-3 edge labels, so pairs both
    agree and disagree, on 1-30 examples."""
    pool = draw(st.lists(st.sampled_from(_EDGES), min_size=1, max_size=3, unique=True))
    label = st.sampled_from(pool)
    if metric != METRIC_ACCURACY:
        label = st.tuples(label, label)
    n_models = draw(st.integers(2, 5))
    n = draw(st.integers(1, 30))
    return [draw(st.lists(label, min_size=n, max_size=n)) for _ in range(n_models)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from([METRIC_ACCURACY, METRIC_EXACT_MATCH, METRIC_F1]).flatmap(
    lambda metric: st.tuples(st.just(metric), _prediction_rows(metric))))
def test_narrow_agreement_matrix_equals_int64_mean_bitwise(case):
    """Labels at the edges of every narrow dtype, held as int64, give the int64
    np.mean matrix bit for bit under every metric."""
    metric, rows = case
    logs = _unvalidated_logs(metric, rows)
    got = agreement_matrix(logs, metric)
    assert got.dtype == np.float64
    assert got.tobytes() == _plain_agreement_matrix(logs, metric).tobytes()


@pytest.mark.parametrize("metric", [METRIC_ACCURACY, METRIC_EXACT_MATCH])
@pytest.mark.parametrize("a, b", _WRAPPING)
def test_agreement_matrix_keeps_labels_that_wrap_in_a_narrower_dtype_apart(metric, a, b):
    """Two labels equal modulo 2**8, 2**16 or 2**32 never agree; equal labels do."""
    pair = (lambda x: x) if metric == METRIC_ACCURACY else (lambda x: (x, x))
    rows = [[pair(a)] * 3, [pair(b)] * 3, [pair(a), pair(b), pair(a)]]
    got = agreement_matrix(_unvalidated_logs(metric, rows), metric)
    assert got.tolist() == [[1.0, 0.0, 2 / 3], [0.0, 1.0, 1 / 3], [2 / 3, 1 / 3, 1.0]]


@pytest.mark.parametrize("metric", [METRIC_ACCURACY, METRIC_EXACT_MATCH])
@pytest.mark.parametrize("dtype, rows", [
    pytest.param(np.float64, [[0.5, 0.0, 2.0], [0.0, 0.0, 2.0], [np.nan, 0.0, 2.5]], id="float"),
    pytest.param(np.uint64, [[2**64 - 1, 0, 1], [2**63 - 1, 0, 1], [2**64 - 1, 1, 1]],
                 id="uint64-beyond-int64"),
])
def test_agreement_matrix_of_predictions_no_narrow_dtype_holds(metric, dtype, rows):
    """Predictions that are not integers, or that int64 cannot hold, are compared
    as they are: 0.5 and 0.0 disagree, NaN agrees with nothing."""
    logs = _unvalidated_logs(metric, [[0] * 3] * 3)
    for log, row in zip(logs, rows):
        row = np.array(row, dtype=dtype)
        log.predicted = row if metric == METRIC_ACCURACY else np.stack([row, row], axis=1)
    got = agreement_matrix(logs, metric)
    assert got.tobytes() == _plain_agreement_matrix(logs, metric).tobytes()
    assert got[0, 1] == 2 / 3


@pytest.mark.parametrize("n_classes, dtype", [(2, np.int8), (128, np.int8), (129, np.int16)])
def test_agreement_matrix_of_loaded_narrow_labels_equals_int64_reference(
        tmp_path, n_classes, dtype):
    """Loaded labels stack in the narrow dtype load_log chose and agree, bit for
    bit, with the reference on int64 copies of the same predictions."""
    logs = []
    for log in random_classification_logs(5, 300, n_classes, seed=n_classes):
        save_log(log, tmp_path / f"{log.model_id}.jsonl")
        logs.append(load_log(tmp_path / f"{log.model_id}.jsonl"))
    assert all(log.predicted.dtype == dtype for log in logs)
    wide = [make_classification_log(log.predicted, log.gold, n_classes, model_id=log.model_id)
            for log in logs]
    assert wide[0].predicted.dtype == np.int64
    got = agreement_matrix(logs, METRIC_ACCURACY)
    assert got.tobytes() == _plain_agreement_matrix(wide, METRIC_ACCURACY).tobytes()
