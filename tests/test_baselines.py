import math

import numpy as np
import pytest

from aglkit.baselines import (
    METHOD_AC,
    METHOD_ATC,
    METHOD_DOC_FEAT,
    TEMP_BOX,
    TEMP_TOL,
    _mean_ce,
    atc_threshold,
    confidence,
    confidence_scores,
    fit_temperature,
    naive_agreement_estimate,
    with_and_without_temperature,
)
from aglkit.datamodel import ClassificationLog, SpanExample, SpanLog
from aglkit.errors import EmptyLog, MissingLogits
from aglkit.metrics import accuracy
from aglkit.synth import calibrated_classification_log

from conftest import calibrated_span_log, make_classification_log, make_span_log


def _distort(log, t_star):
    """Scale logits by exp(-t_star); recovery should return ~t_star."""
    return ClassificationLog(model_id=log.model_id, split_id=log.split_id,
                             n_classes=log.n_classes, gold=log.gold,
                             predicted=log.predicted,
                             logits=log.logits * math.exp(-t_star))


def test_mean_ce_matches_loop_oracle(rng):
    logits = rng.normal(size=(30, 4))
    gold = rng.integers(0, 4, 30)
    for t in (-0.5, 0.0, 1.3):
        scaled = logits * math.exp(t)
        total = 0.0
        for i in range(30):
            row = scaled[i]
            total += math.log(np.exp(row).sum()) - row[gold[i]]
        assert _mean_ce(logits, gold, t) == pytest.approx(total / 30, rel=1e-12)


def test_temperature_recovery_classification():
    base = calibrated_classification_log(4000, 3, 2.0, seed=5)
    (t0,) = fit_temperature(base)
    for t_star in (-0.6, 0.8):
        (fitted,) = fit_temperature(_distort(base, t_star))
        # the finite-sample offset t0 is common to both fits and cancels
        assert fitted - t0 == pytest.approx(t_star, abs=1e-4)


def test_temperature_minimizer_confirmed_by_fine_grid():
    log = calibrated_classification_log(500, 4, 1.5, seed=2)
    (t_hat,) = fit_temperature(log)
    obj = lambda t: _mean_ce(log.logits, log.gold, t)
    local = np.arange(t_hat - 0.05, t_hat + 0.05, 1e-4)
    assert obj(t_hat) <= min(obj(t) for t in local) + 1e-10
    assert obj(t_hat) <= obj(0.0)


def test_temperature_box_boundary():
    """An objective still decreasing at the box edge pins t to the edge."""
    log = calibrated_classification_log(300, 3, 2.0, seed=1)
    hot = _distort(log, 10.0)  # true optimum far beyond the box
    (t,) = fit_temperature(hot)
    assert t == pytest.approx(TEMP_BOX[1], abs=1e-3)


def test_temperature_box_trivial_example():
    """One example, logits [2, 0], gold 0: CE strictly decreases in t."""
    log = make_classification_log([0], [0], n_classes=2,
                                  logits=np.array([[2.0, 0.0]]))
    assert fit_temperature(log)[0] == pytest.approx(TEMP_BOX[1], abs=1e-3)


def test_temperature_qa_symmetric_coordinates(rng):
    """Identical start/end logits must calibrate to the same temperature."""
    base = calibrated_span_log(400, 6, 1.5, seed=4)
    base.end_logits = base.start_logits.copy()
    base.gold[:, 1] = base.gold[:, 0]
    base.predicted[:, 1] = base.predicted[:, 0]
    t_start, t_end = fit_temperature(base)
    assert t_start == pytest.approx(t_end, abs=1e-6)


def test_temperature_qa_per_coordinate():
    base = calibrated_span_log(1500, 8, 2.0, seed=7)
    base_start, base_end = fit_temperature(base)
    distorted = calibrated_span_log(1500, 8, 2.0, seed=7)
    distorted.start_logits = distorted.start_logits * math.exp(-0.3)
    distorted.end_logits = distorted.end_logits * math.exp(0.4)
    t = fit_temperature(distorted)
    assert t[0] - base_start == pytest.approx(0.3, abs=1e-4)
    assert t[1] - base_end == pytest.approx(-0.4, abs=1e-4)
    assert len(t) == 2


def test_fit_temperature_dispatch_and_empty():
    clf = calibrated_classification_log(100, 2, 1.0, seed=0)
    assert len(fit_temperature(clf)) == 1
    qa = calibrated_span_log(50, 5, 1.0, seed=0)
    assert len(fit_temperature(qa)) == 2
    empty = make_classification_log([], [], n_classes=2)
    empty.logits = np.empty((0, 2))
    with pytest.raises(EmptyLog):
        fit_temperature(empty)


def test_confidence_classification_softmax_oracle(rng):
    logits = rng.normal(size=(20, 5))
    log = make_classification_log(logits.argmax(axis=1), rng.integers(0, 5, 20),
                                  5, logits=logits)
    for temp in (None, (0.7,)):
        conf = confidence(log, temp)
        scale = math.exp(temp[0]) if temp else 1.0
        for i in range(20):
            row = np.exp(logits[i] * scale)
            assert conf[i] == pytest.approx((row / row.sum()).max(), abs=1e-12)


def test_confidence_qa_matches_pair_loop(rng):
    log = make_span_log([(1, 3), (0, 4), (2, 2)], [(1, 3), (0, 0), (2, 4)],
                        n_tokens=6, rng=rng)
    temp = (0.4, -0.2)
    conf = confidence(log, temp)
    for idx in range(len(log)):
        s = np.exp(log.start_logits[idx] * math.exp(0.4))
        s /= s.sum()
        e = np.exp(log.end_logits[idx] * math.exp(-0.2))
        e /= e.sum()
        best = max(s[i] * e[j] for i in range(6) for j in range(6))
        assert conf[idx] == pytest.approx(best, abs=1e-12)


def test_confidence_uniform_and_one_hot_limits(rng):
    flat = make_classification_log([0, 0], [0, 1], n_classes=4,
                                   logits=np.zeros((2, 4)))
    np.testing.assert_allclose(confidence(flat), [0.25, 0.25], atol=1e-15)
    sharp = make_span_log([(2, 3)], [(2, 3)], n_tokens=5, rng=None)
    sharp.start_logits[0] = np.where(np.arange(5) == 2, 200.0, 0.0)
    sharp.end_logits[0] = np.where(np.arange(5) == 3, 200.0, 0.0)
    assert confidence(sharp)[0] == pytest.approx(1.0, abs=1e-12)


def test_confidence_requires_logits():
    log = make_classification_log([0, 1], [0, 1])
    with pytest.raises(MissingLogits):
        confidence(log)


def test_argmax_invariant_under_temperature(rng):
    logits = rng.normal(size=(200, 4))
    for t in (-3.0, -0.5, 0.9, 4.0):
        assert np.array_equal((logits * math.exp(t)).argmax(axis=1),
                              logits.argmax(axis=1))


def _raw(method, id_log, ood_log):
    """The raw (unscaled) estimate of one confidence baseline."""
    return with_and_without_temperature(method, accuracy(id_log), confidence_scores(id_log, ood_log))[0]


def test_ac_is_mean_confidence(rng):
    logits = rng.normal(size=(40, 3))
    log = make_classification_log(logits.argmax(axis=1), rng.integers(0, 3, 40),
                                  3, logits=logits)
    assert _raw(METHOD_AC, log, log) == pytest.approx(float(np.mean(confidence(log))), abs=1e-15)


def _random_logit_log(rng, n, k, model_id="m0", split_id="id"):
    logits = rng.normal(size=(n, k))
    return make_classification_log(logits.argmax(axis=1), rng.integers(0, k, n),
                                   k, logits=logits, model_id=model_id,
                                   split_id=split_id)


def test_atc_threshold_matches_exhaustive_scan(rng):
    for _ in range(100):
        n = int(rng.integers(10, 60))
        log = _random_logit_log(rng, n, 4)
        conf = confidence(log)
        acc = accuracy(log)
        candidates = list(np.sort(conf)) + [math.inf]
        best = min(candidates,
                   key=lambda tau: (abs(float(np.mean(conf >= tau)) - acc), tau))
        assert atc_threshold(acc, conf) == best


def test_atc_identity_on_same_split(rng):
    for seed in range(5):
        r = np.random.default_rng(seed)
        log = _random_logit_log(r, 200, 3)
        assert _raw(METHOD_ATC, log, log) == pytest.approx(accuracy(log), abs=1e-12)


def test_atc_all_wrong(rng):
    logits = rng.normal(size=(10, 3))
    pred = logits.argmax(axis=1)
    gold = (pred + 1) % 3
    log = make_classification_log(pred, gold, 3, logits=logits)
    assert atc_threshold(accuracy(log), confidence(log)) == math.inf
    assert _raw(METHOD_ATC, log, log) == 0.0


def test_doc_feat_formula_and_clamp(rng):
    id_log = _random_logit_log(rng, 80, 3)
    ood_log = _random_logit_log(rng, 60, 3, split_id="ood")
    expected = (accuracy(id_log)
                - (float(np.mean(confidence(id_log)))
                   - float(np.mean(confidence(ood_log)))))
    expected = min(1.0, max(0.0, expected))
    assert _raw(METHOD_DOC_FEAT, id_log, ood_log) == pytest.approx(expected, abs=1e-12)
    # force the unclamped value negative: confident ID, diffuse wrong OOD
    sharp = _random_logit_log(rng, 40, 3)
    sharp.logits = sharp.logits * 50.0
    sharp.gold = sharp.predicted.copy()  # ID accuracy would not matter if conf gap > 1
    sharp.gold = (sharp.predicted + 1) % 3  # ID accuracy 0
    flat = _random_logit_log(rng, 40, 3, split_id="ood")
    flat.logits = flat.logits * 1e-6
    assert _raw(METHOD_DOC_FEAT, sharp, flat) == 0.0


def test_naive_agreement_loop_oracle(rng):
    vals = rng.uniform(0.5, 1.0, size=(4, 4))
    vals = (vals + vals.T) / 2
    np.fill_diagonal(vals, 1.0)
    est = naive_agreement_estimate(vals)
    for i in range(4):
        manual = sum(vals[i, j] for j in range(4) if j != i) / 3
        assert est[i] == pytest.approx(manual, abs=1e-15)


# --- the fit as it was before the safeguarded Newton solve, kept as an oracle ---

_GRID_POINTS = 201
_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _grid_golden_minimize(objective, lo=TEMP_BOX[0], hi=TEMP_BOX[1], tol=TEMP_TOL):
    """201-point grid pre-scan, then golden-section refinement in the best cell."""
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


def _assert_matches_oracle(logits, gold, t_new):
    t_old = _grid_golden_minimize(lambda t: _mean_ce(logits, gold, t))
    assert abs(t_new - t_old) <= 1e-5
    assert _mean_ce(logits, gold, t_new) <= _mean_ce(logits, gold, t_old) + 1e-12
    return t_old


def _seeded_classification_log(seed):
    rng = np.random.default_rng(seed)
    n, k = int(rng.integers(2, 600)), int(rng.integers(2, 10))
    log = calibrated_classification_log(n, k, float(rng.uniform(0.2, 4.0)), seed=seed)
    return _distort(log, float(rng.uniform(-3.0, 3.0)))


@pytest.mark.parametrize("seed", range(12))
def test_newton_fit_matches_grid_golden_classification(seed):
    log = _seeded_classification_log(seed)
    _assert_matches_oracle(log.logits, log.gold, fit_temperature(log)[0])


def _ragged_examples(n, max_tokens, spread, seed):
    """QA records with n_tokens varying per example, gold drawn from the model's softmax."""
    rng = np.random.default_rng(seed)
    examples = []
    for _ in range(n):
        n_tok = int(rng.integers(1, max_tokens + 1))
        s = spread * rng.standard_normal(n_tok)
        e = spread * rng.standard_normal(n_tok)
        p_s = np.exp(s - s.max())
        p_e = np.exp(e - e.max())
        examples.append(SpanExample(
            n_tokens=n_tok, start_logits=s, end_logits=e,
            gold_start=int(rng.choice(n_tok, p=p_s / p_s.sum())),
            gold_end=int(rng.choice(n_tok, p=p_e / p_e.sum())),
            pred_start=int(s.argmax()), pred_end=int(e.argmax())))
    return examples


def _padded(examples, which):
    """One coordinate as a -inf padded matrix, built row by row."""
    width = max(ex.n_tokens for ex in examples)
    mat = np.full((len(examples), width), -np.inf)
    for i, ex in enumerate(examples):
        mat[i, :ex.n_tokens] = getattr(ex, f"{which}_logits")
    return mat, np.array([getattr(ex, f"gold_{which}") for ex in examples])


@pytest.mark.parametrize("seed", range(4))
def test_newton_fit_matches_grid_golden_qa_coordinates(seed):
    examples = _ragged_examples(300, 40, 1.0 + seed, seed)
    t_start, t_end = fit_temperature(SpanLog(model_id="q", split_id="id", examples=examples))
    _assert_matches_oracle(*_padded(examples, "start"), t_start)
    _assert_matches_oracle(*_padded(examples, "end"), t_end)


def _box_edge_cases():
    rng = np.random.default_rng(3)
    hot = _distort(calibrated_classification_log(300, 3, 2.0, seed=1), 10.0)
    cold = rng.normal(size=(200, 3)) * math.exp(8.0)  # far too confident, gold random
    sure = rng.normal(size=(100, 4))  # every example right: CE falls all the way
    return {
        "hot": (hot.logits, hot.gold, TEMP_BOX[1]),
        "cold": (cold, rng.integers(0, 3, 200), TEMP_BOX[0]),
        "all_correct": (sure, sure.argmax(axis=1), TEMP_BOX[1]),
        "trivial": (np.array([[2.0, 0.0]]), np.array([0]), TEMP_BOX[1]),
        "flat": (np.zeros((5, 3)), np.array([0, 1, 2, 0, 1]), TEMP_BOX[1]),
    }


@pytest.mark.parametrize("name", sorted(_box_edge_cases()))
def test_newton_fit_matches_grid_golden_at_box_edges(name):
    logits, gold, edge = _box_edge_cases()[name]
    log = make_classification_log(logits.argmax(axis=1), gold, logits.shape[1], logits=logits)
    (t,) = fit_temperature(log)
    assert t == edge
    assert _assert_matches_oracle(logits, gold, t) == pytest.approx(edge, abs=1e-3)


def test_confidence_qa_ragged_matches_per_example_loop():
    """-inf padding of short examples must not leak into the vectorised confidence."""
    examples = _ragged_examples(50, 9, 2.0, seed=8)
    log = SpanLog(model_id="q", split_id="id", examples=examples)
    temp = (0.3, -0.6)
    for t in (None, temp):
        conf = confidence(log, t)
        for idx, ex in enumerate(examples):
            s = np.exp(ex.start_logits * math.exp(t[0] if t else 0.0))
            e = np.exp(ex.end_logits * math.exp(t[1] if t else 0.0))
            assert conf[idx] == pytest.approx(s.max() / s.sum() * e.max() / e.sum(), rel=1e-12)
