import dataclasses
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aglkit import datamodel
from aglkit.cli import EXIT_INPUT_ERROR, main
from aglkit.datamodel import (
    FORMAT_VERSION,
    METRIC_ACCURACY,
    METRIC_EXACT_MATCH,
    METRIC_F1,
    TASK_CLASSIFICATION,
    TASK_EXTRACTIVE_QA,
    ClassificationLog,
    Manifest,
    ManifestEntry,
    SpanExample,
    SpanLog,
    SplitPair,
    load_entries,
    load_log,
    load_split_pair,
    read_manifest,
    save_log,
    save_manifest,
    validate_log,
    _read_text,
)
from aglkit.errors import (
    ArgmaxMismatch,
    DuplicateEntry,
    LengthViolation,
    MalformedRecord,
    MetricTaskMismatch,
    MissingFile,
    RangeViolation,
    ShapeMismatch,
    ToolkitError,
    UnreadableFile,
)
from aglkit.report import ReportOptions, build_report
from aglkit.synth import SynthConfig, write_ensemble

from conftest import make_classification_log, make_span_log


def argmax_lowest(values) -> int:
    """Argmax with ties broken by the lowest index: the oracle for validate_log."""
    return int(np.argmax(np.asarray(values)))


def test_argmax_lowest_tie_break():
    assert argmax_lowest([1.0, 3.0, 3.0, 2.0]) == 1
    assert argmax_lowest([5.0]) == 0
    assert argmax_lowest([2.0, 2.0, 2.0]) == 0
    # validate_log keeps the lowest of tied top logits as the prediction
    logits = np.array([[1.0, 3.0, 3.0, 2.0], [2.0, 2.0, 2.0, 2.0]])
    validate_log(make_classification_log([1, 0], [0, 0], 4, logits=logits))
    with pytest.raises(ArgmaxMismatch):
        validate_log(make_classification_log([2, 0], [0, 0], 4, logits=logits))
    span = make_span_log([(1, 0)], [(0, 0)], n_tokens=4)
    span.start_logits[0] = logits[0]
    span.end_logits[0] = logits[1]
    validate_log(span)
    span.predicted[0] = [2, 0]
    with pytest.raises(ArgmaxMismatch):
        validate_log(span)


def _logits_for(predicted, n_classes, rng):
    logits = rng.normal(size=(len(predicted), n_classes))
    for i, p in enumerate(predicted):
        logits[i, p] = logits[i].max() + 1.0
    return logits


def test_classification_round_trip_bit_exact(tmp_path, rng):
    predicted = rng.integers(0, 3, 40)
    gold = rng.integers(0, 3, 40)
    logits = _logits_for(predicted, 3, rng)
    log = make_classification_log(predicted, gold, 3, logits=logits,
                                  model_id="alpha", split_id="dev")
    path = tmp_path / "alpha.jsonl"
    save_log(log, path)
    back = load_log(path)
    assert back.model_id == "alpha"
    assert back.split_id == "dev"
    assert back.n_classes == 3
    assert np.array_equal(back.gold, log.gold)
    assert np.array_equal(back.predicted, log.predicted)
    # shortest round-trip decimal representation reproduces floats exactly
    assert np.array_equal(back.logits, log.logits)
    save_log(back, tmp_path / "again.jsonl")
    assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()


def test_span_round_trip_bit_exact(tmp_path, rng):
    log = make_span_log([(0, 2), (3, 3), (1, 4)], [(0, 2), (2, 4), (1, 1)],
                        n_tokens=6, rng=rng)
    path = tmp_path / "qa.jsonl"
    save_log(log, path)
    back = load_log(path)
    assert len(back) == 3
    assert np.array_equal(back.n_tokens, log.n_tokens)
    assert np.array_equal(back.start_logits, log.start_logits)
    assert np.array_equal(back.end_logits, log.end_logits)
    assert np.array_equal(back.gold, log.gold)
    assert np.array_equal(back.predicted, log.predicted)
    save_log(back, tmp_path / "again.jsonl")
    assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()


def _reference_save_log(log, path) -> None:
    """The per-record writer save_log replaced (one json.dumps per record): the
    reference its bytes are held to."""
    lines = []
    if isinstance(log, ClassificationLog):
        header = {"model_id": log.model_id, "split_id": log.split_id,
                  "task": log.task, "n_classes": log.n_classes}
        lines.append(json.dumps(header, sort_keys=True))
        for i in range(len(log)):
            rec = {"gold": int(log.gold[i]), "predicted": int(log.predicted[i])}
            if log.logits is not None:
                rec["logits"] = [float(v) for v in log.logits[i]]
            lines.append(json.dumps(rec, sort_keys=True))
    elif isinstance(log, SpanLog):
        header = {"model_id": log.model_id, "split_id": log.split_id, "task": log.task}
        lines.append(json.dumps(header, sort_keys=True))
        for n_tok, start, end, (gs, ge), (ps, pe) in zip(
                log.n_tokens.tolist(), log.start_logits, log.end_logits,
                log.gold.tolist(), log.predicted.tolist()):
            rec = {"n_tokens": n_tok, "start_logits": start[:n_tok].tolist(),
                   "end_logits": end[:n_tok].tolist(), "gold_start": gs, "gold_end": ge,
                   "pred_start": ps, "pred_end": pe}
            lines.append(json.dumps(rec, sort_keys=True))
    else:
        raise TypeError(f"unsupported log type {type(log)!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _written(save, log) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "log.jsonl")
        save(log, path)
        with open(path, "rb") as fh:
            return fh.read()


# the writer does not validate: any int64 index and any float, non-finite too
_INDEX = st.one_of(st.integers(-3, 12), st.integers(-2**63, 2**63 - 1),
                   st.sampled_from([-2**63, 2**63 - 1]))
_LOGIT = st.one_of(st.floats(), st.sampled_from(
    [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308]))
_ID = st.text(max_size=4)


@st.composite
def _classification_logs(draw):
    n, k = draw(st.integers(0, 5)), draw(st.integers(1, 4))
    gold, predicted = (np.array(draw(st.lists(_INDEX, min_size=n, max_size=n)), dtype=np.int64)
                       for _ in range(2))
    logits = draw(st.none() | st.lists(_LOGIT, min_size=n * k, max_size=n * k))
    return ClassificationLog(model_id=draw(_ID), split_id=draw(_ID), n_classes=k,
                             gold=gold, predicted=predicted,
                             logits=None if logits is None else np.reshape(logits, (n, k)))


@st.composite
def _span_logs(draw):
    examples = []
    for n_tok in draw(st.lists(st.integers(1, 5), max_size=5)):  # ragged, 1 included
        start, end = (np.array(draw(st.lists(_LOGIT, min_size=n_tok, max_size=n_tok)))
                      for _ in range(2))
        gs, ge, ps, pe = (draw(_INDEX) for _ in range(4))
        examples.append(SpanExample(n_tokens=n_tok, start_logits=start, end_logits=end,
                                    gold_start=gs, gold_end=ge, pred_start=ps, pred_end=pe))
    return SpanLog(model_id=draw(_ID), split_id=draw(_ID), examples=examples)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(_classification_logs(), _span_logs()))
def test_save_log_bytes_equal_reference_writer(log):
    assert _written(save_log, log) == _written(_reference_save_log, log)


@pytest.mark.parametrize("logits", [
    np.zeros((0, 3)), np.zeros((1, 0)), np.zeros((2, 0)),
    np.array([[1, -2, 3]]), np.array([[0.1, -2.5, 3e38]], dtype=np.float32),
    [[0.5, -0.0], [np.nan, np.inf]],
], ids=["no-rows", "one-empty-row", "two-empty-rows", "int", "float32", "nested-lists"])
def test_save_log_logits_edge_shapes_and_dtypes(logits):
    n = len(logits)
    log = ClassificationLog(model_id="m", split_id="s", n_classes=3, logits=logits,
                            gold=np.zeros(n, dtype=np.int64), predicted=np.arange(n))
    assert _written(save_log, log) == _written(_reference_save_log, log)


def test_save_log_rejects_columns_of_unequal_length():
    log = make_classification_log([0, 1, 1], [0, 1], n_classes=2)
    with pytest.raises(ValueError):
        _written(save_log, log)


def test_validate_catches_argmax_mismatch(rng):
    predicted = np.array([0, 1, 2])
    gold = np.array([0, 1, 2])
    logits = _logits_for(predicted, 3, rng)
    log = make_classification_log(predicted, gold, 3, logits=logits)
    validate_log(log)
    log.predicted[1] = (log.predicted[1] + 1) % 3
    with pytest.raises(ArgmaxMismatch) as exc:
        validate_log(log)
    assert exc.value.example_index == 1


def test_validate_catches_range_and_length():
    log = make_classification_log([0, 1], [0, 3], n_classes=3)
    with pytest.raises(RangeViolation) as exc:
        validate_log(log)
    assert exc.value.example_index == 1
    log = make_classification_log([0, 4], [0, 1], n_classes=3)
    with pytest.raises(RangeViolation):
        validate_log(log)
    log = make_classification_log([0, 1, 2], [0, 1, 2], n_classes=3)
    log.gold = log.gold[:2]
    with pytest.raises(LengthViolation):
        validate_log(log)


def _validate_classification_loop(log):
    """One pass over the examples, each checked against the rules in validate_log's
    order: the first example that breaks any rule raises its first broken rule."""
    k = log.n_classes
    for i in range(len(log.gold)):
        g = int(log.gold[i])
        p = int(log.predicted[i])
        if not 0 <= g < k:
            raise RangeViolation(i, f"gold {g} not in [0, {k})")
        if not 0 <= p < k:
            raise RangeViolation(i, f"predicted {p} not in [0, {k})")
        if log.logits is None:
            continue
        if not np.isfinite(log.logits[i]).all():
            raise RangeViolation(i, "non-finite logit")
        if argmax_lowest(log.logits[i]) != p:
            raise ArgmaxMismatch(i)


@pytest.mark.parametrize("corruptions", [
    [("gold", 0)], [("gold", 17)], [("gold", 39)],
    [("predicted", 0)], [("predicted", 23)], [("predicted", 39)],
    [("argmax", 0)], [("argmax", 11)], [("argmax", 39)],
    [("gold", 30), ("predicted", 12)], [("predicted", 8), ("gold", 8)],
    [("argmax", 3), ("gold", 25)], [("argmax", 6), ("tie", 2)],
    [("nan", 5), ("gold", 20)], [("gold", 5), ("inf", 20)],
    [("-inf", 14), ("argmax", 14)], [("nan", 9), ("predicted", 9)],
])
def test_validate_classification_matches_loop(rng, corruptions):
    """Same exception, example index and message as the loop, at each position."""
    k = 4
    predicted = rng.integers(0, k, 40)
    log = make_classification_log(predicted, rng.integers(0, k, 40), k,
                                  logits=_logits_for(predicted, k, rng))
    for field, i in corruptions:
        if field == "gold":
            log.gold[i] = k if i % 2 else -1
        elif field == "predicted":
            log.predicted[i] = k + 3 if i % 2 else -2
        elif field == "argmax":
            log.predicted[i] = (log.predicted[i] + 1) % k
        elif field in ("nan", "inf", "-inf"):
            log.logits[i, i % k] = float(field)
        else:  # a tie at the top keeps the lowest index as the argmax
            log.logits[i] = 1.0
            log.predicted[i] = 0
    with pytest.raises((RangeViolation, ArgmaxMismatch)) as expected:
        _validate_classification_loop(log)
    with pytest.raises(type(expected.value)) as exc:
        validate_log(log)
    assert exc.value.example_index == expected.value.example_index
    assert str(exc.value) == str(expected.value)


def test_validate_span_invariants(rng):
    log = make_span_log([(1, 3)], [(0, 2)], n_tokens=5, rng=rng)
    validate_log(log)
    bad = make_span_log([(1, 3)], [(0, 2)], n_tokens=5, rng=rng)
    bad.gold[0] = [3, 1]  # inverted gold span
    with pytest.raises(RangeViolation):
        validate_log(bad)
    bad2 = make_span_log([(1, 3)], [(0, 2)], n_tokens=5, rng=rng)
    bad2.predicted[0, 0] = 0  # disagrees with start_logits argmax
    with pytest.raises(ArgmaxMismatch):
        validate_log(bad2)


def _validate_span_loop(records):
    """The per-example loop validate_log ran on span logs before it checked whole arrays."""
    for i, ex in enumerate(records):
        n_tok = ex.n_tokens
        if n_tok < 1:
            raise RangeViolation(i, f"n_tokens {n_tok} < 1")
        if len(ex.start_logits) != n_tok or len(ex.end_logits) != n_tok:
            raise LengthViolation(i)
        if not (np.isfinite(ex.start_logits).all() and np.isfinite(ex.end_logits).all()):
            raise RangeViolation(i, "non-finite logit")
        if not (0 <= ex.gold_start <= ex.gold_end < n_tok):
            raise RangeViolation(i, "gold span out of range")
        if not (0 <= ex.pred_start < n_tok and 0 <= ex.pred_end < n_tok):
            raise RangeViolation(i, "predicted span out of range")
        if argmax_lowest(ex.start_logits) != ex.pred_start:
            raise ArgmaxMismatch(i)
        if argmax_lowest(ex.end_logits) != ex.pred_end:
            raise ArgmaxMismatch(i)


def _span_records(rng, n=30):
    """Valid QA records of 3 to 8 tokens, so most rows of the packed log are padded."""
    records = []
    for _ in range(n):
        n_tok = int(rng.integers(3, 9))
        start, end = rng.normal(size=(2, n_tok))
        ps, pe = (int(v) for v in rng.integers(0, n_tok, 2))
        start[ps] = start.max() + 1.0
        end[pe] = end.max() + 1.0
        gs = int(rng.integers(0, n_tok))
        records.append(SpanExample(n_tokens=n_tok, start_logits=start, end_logits=end,
                                   gold_start=gs, gold_end=int(rng.integers(gs, n_tok)),
                                   pred_start=ps, pred_end=pe))
    return records


def _corrupt_record(ex, kind):
    if kind == "n_tokens":
        ex.n_tokens, ex.start_logits, ex.end_logits = 0, np.empty(0), np.empty(0)
    elif kind == "gold_inverted":
        ex.gold_start, ex.gold_end = 2, 1
    elif kind == "gold_end":
        ex.gold_end = ex.n_tokens
    elif kind == "pred_start":
        ex.pred_start = -1
    elif kind == "pred_end":
        ex.pred_end = ex.n_tokens
    elif kind == "argmax_start":
        ex.pred_start = (ex.pred_start + 1) % ex.n_tokens
    elif kind == "argmax_end":
        ex.pred_end = (ex.pred_end + 1) % ex.n_tokens
    elif kind in ("tie", "tie_wrong"):  # tied top logits: the lowest index is the argmax
        ex.start_logits[:] = 1.0
        ex.pred_start = 0 if kind == "tie" else 1
    else:  # "<value> <first|last> <start|end>"
        value, where, which = kind.split()
        vec = getattr(ex, f"{which}_logits")
        vec[0 if where == "first" else ex.n_tokens - 1] = float(value)


_NON_FINITE = [f"{v} {where} {which}" for v in ("nan", "inf", "-inf")
               for where, which in (("first", "start"), ("last", "end"),
                                    ("last", "start"), ("first", "end"))]


@pytest.mark.parametrize("corruptions", [
    [("n_tokens", 0)], [("n_tokens", 17)], [("n_tokens", 29)],
    [("gold_inverted", 5)], [("gold_end", 29)],
    [("pred_start", 0)], [("pred_end", 12)],
    [("argmax_start", 0)], [("argmax_end", 29)], [("argmax_start", 8)], [("argmax_end", 8)],
    [("tie", 4)], [("tie_wrong", 4)],
    *[[(kind, i)] for kind in _NON_FINITE for i in (0, 29)],
    [("gold_inverted", 20), ("argmax_end", 3)], [("argmax_start", 3), ("gold_end", 20)],
    [("nan last end", 9), ("pred_end", 10)], [("pred_start", 9), ("-inf first start", 10)],
    [("n_tokens", 14), ("inf last start", 2)], [("tie", 1), ("argmax_end", 7)],
    [("argmax_start", 6), ("argmax_end", 6)], [("pred_end", 11), ("gold_inverted", 11)],
])
def test_validate_span_matches_loop(rng, corruptions):
    """Same exception, example index and message as the per-example loop."""
    records = _span_records(rng)
    for kind, i in corruptions:
        _corrupt_record(records[i], kind)
    log = SpanLog(model_id="m", split_id="s", examples=records)
    try:
        _validate_span_loop(records)
    except (RangeViolation, LengthViolation, ArgmaxMismatch) as expected:
        with pytest.raises(type(expected)) as exc:
            validate_log(log)
        assert exc.value.example_index == expected.example_index
        assert str(exc.value) == str(expected)
    else:
        assert all(kind == "tie" for kind, _ in corruptions)
        validate_log(log)


def test_span_log_takes_any_iterable_of_records(rng):
    """A list, a tuple and an iterator of the same records give one log; no iterable
    of records is taken for load_log's columns, so () is the empty log, as [] is."""
    records = _span_records(rng, 6)
    from_list = SpanLog(model_id="m", split_id="s", examples=records)
    for examples in (tuple(records), iter(records), (ex for ex in records)):
        _assert_same_log(SpanLog(model_id="m", split_id="s", examples=examples), from_list)
    empty = SpanLog(model_id="m", split_id="s", examples=())
    _assert_same_log(empty, SpanLog(model_id="m", split_id="s", examples=[]))
    assert len(empty) == 0


def test_classification_log_turns_lists_into_arrays_and_keeps_array_dtypes():
    log = ClassificationLog(model_id="m", split_id="s", n_classes=3, gold=[0, 2, 1],
                            predicted=[0, 1, 1], logits=[[2.0, 0, 0], [0, 1, 0], [0, 3, 1]])
    assert (log.gold.dtype, log.predicted.dtype, log.logits.dtype) == (
        np.int64, np.int64, np.float64)
    assert log.logits.shape == (3, 3)
    validate_log(log)
    assert ClassificationLog(model_id="m", split_id="s", n_classes=3, gold=[0, 2, 1],
                             predicted=[0, 1, 1]).logits is None
    gold, logits = np.array([0, 2], np.int8), np.zeros((2, 3), np.float32)
    log = ClassificationLog(model_id="m", split_id="s", n_classes=3, gold=gold,
                            predicted=gold, logits=logits)
    assert log.gold is gold and log.predicted is gold and log.logits is logits


@pytest.mark.parametrize("gold, predicted, index, detail", [
    ([0.5, 1], [0, 1], 0, "gold 0.5 is not an integer"),
    ([0, 1], [0, 1.5], 1, "predicted 1.5 is not an integer"),
    ([0, float("nan")], [0, 1], 1, "gold nan is not an integer"),
    # integrality comes before the range rules within an example, not across examples
    ([2.5, 0], [0, 1], 0, "gold 2.5 is not an integer"),
    ([0, 0.5], [3, 1], 0, "predicted 3 not in [0, 2)"),
    (["0", "1"], [0, 1], -1, "gold of dtype <U1 is not integral"),
    ([True, False], [0, 1], -1, "gold of dtype bool is not integral"),
    ([0, 1], np.array([0, 1], dtype=object), -1, "predicted of dtype object is not integral"),
    ([0.0, 1.0], [1, 0], None, None),
    (np.array([1, 0], np.uint8), np.array([1.0, 0.0], np.float32), None, None),
])
def test_validate_log_takes_only_integral_labels(gold, predicted, index, detail):
    """The loader's integer rule for labels built in memory: an integer dtype, or a float
    dtype whose values are integral; a whole-log error for any other dtype."""
    log = ClassificationLog(model_id="m", split_id="s", n_classes=2, gold=gold,
                            predicted=predicted)
    if index is None:
        validate_log(log)
        return
    with pytest.raises(RangeViolation) as exc:
        validate_log(log)
    assert exc.value.example_index == index
    assert str(exc.value) == str(RangeViolation(index, detail))


def test_classification_log_rejects_ragged_logits():
    with pytest.raises(LengthViolation) as exc:
        ClassificationLog(model_id="m", split_id="s", n_classes=2, gold=[0, 1],
                          predicted=[0, 1], logits=[[1.0, 0.0], [0.0]])
    assert exc.value.example_index == -1


@pytest.mark.parametrize("n_classes, error", [
    (np.int64(3), None),
    (3.0, None),
    (2.5, "n_classes: 2.5 is not an integer"),
    (np.float64(2.5), "n_classes: 2.5 is not an integer"),
    (True, "n_classes: True is not an integer"),
    ("3", "n_classes: '3' is not an integer"),
    (2**63, f"n_classes: {2**63} does not fit in int64"),
], ids=["numpy-int", "integral-float", "fraction", "numpy-fraction", "bool", "string",
        "beyond-int64"])
def test_classification_log_n_classes_follows_the_loader_integer_rule(tmp_path, n_classes,
                                                                      error):
    """An in-memory n_classes that the loader would read as 3 becomes the int 3, which
    ``save_log`` writes and ``load_log`` reads back; one the loader rejects raises the
    whole-log RangeViolation that ``load_log`` would, instead of a header it cannot read."""
    def build():
        return ClassificationLog(model_id="m", split_id="s", n_classes=n_classes,
                                 gold=[0, 2], predicted=[0, 1])
    if error is None:
        log = build()
        assert type(log.n_classes) is int and log.n_classes == 3
        validate_log(log)
        save_log(log, tmp_path / "m.jsonl")
        assert load_log(tmp_path / "m.jsonl").n_classes == 3
        return
    with pytest.raises(RangeViolation) as exc:
        build()
    assert exc.value.example_index == -1
    assert str(exc.value) == str(RangeViolation(-1, error))


@pytest.mark.parametrize("gold, predicted", [
    ([[0], [1]], [0, 1]),
    (1, [0, 1]),
    ([0, 1], [[0], [1]]),
    ([[0], [1]], [[0], [1]]),
    ([[0, 1], [1, 0]], [[0, 1], [1, 0]]),
], ids=["gold-column", "gold-scalar", "predicted-column", "both-columns", "both-2x2"])
def test_validate_log_takes_only_one_dimensional_labels(gold, predicted):
    """Labels that are not 1-D, even of matching shapes, are a whole-log LengthViolation
    before any per-example rule reads them."""
    log = ClassificationLog(model_id="m", split_id="s", n_classes=2, gold=gold,
                            predicted=predicted)
    with pytest.raises(LengthViolation) as exc:
        validate_log(log)
    assert str(exc.value) == str(LengthViolation(
        -1, f"gold/predicted shapes {np.shape(gold)}/{np.shape(predicted)} not 1-D"))


@pytest.mark.parametrize("field, value, error", [
    ("gold_start", 1.5, "gold_start: 1.5 is not an integer"),
    ("pred_end", "1", "pred_end: '1' is not an integer"),
    ("gold_start", True, "gold_start: True is not an integer"),
    ("n_tokens", np.bool_(True), "n_tokens: True is not an integer"),
    ("gold_end", 2**63, f"gold_end: {2**63} does not fit in int64"),
    ("gold_end", 2.0, None),
    ("pred_start", np.int32(2), None),
    ("n_tokens", np.float64(4.0), None),
])
def test_span_log_from_records_takes_only_integral_values(field, value, error):
    """A records-built log applies the loader's integer rule to n_tokens and every span
    value instead of casting 1.5, "1" or True to 1."""
    start, end = np.array([0.0, 0.0, 2.0, 0.0]), np.array([0.0, 0.0, 0.0, 2.0])
    valid = dict(n_tokens=4, start_logits=start, end_logits=end, gold_start=1,
                   gold_end=2, pred_start=2, pred_end=3)
    records = [SpanExample(**valid), SpanExample(**{**valid, field: value})]
    if error is None:
        as_int = [SpanExample(**valid), SpanExample(**{**valid, field: int(value)})]
        _assert_same_log(SpanLog(model_id="m", split_id="s", examples=records),
                         SpanLog(model_id="m", split_id="s", examples=as_int))
        return
    with pytest.raises(RangeViolation) as exc:
        SpanLog(model_id="m", split_id="s", examples=records)
    assert exc.value.example_index == 1
    assert str(exc.value) == str(RangeViolation(1, error))


def test_span_log_rejects_vectors_of_the_wrong_length(tmp_path, rng):
    """The padded layout holds n_tokens logits per row; any other count is an
    error when the log is built, and at its example when a file is loaded."""
    records = _span_records(rng, 5)
    records[3].end_logits = records[3].end_logits[:-1]
    with pytest.raises(LengthViolation) as exc:
        SpanLog(model_id="m", split_id="s", examples=records)
    assert exc.value.example_index == 3
    path = tmp_path / "qa.jsonl"
    path.write_text(json.dumps({"task": "extractive_qa", "model_id": "m", "split_id": "s"})
                    + "\n" + json.dumps(_qa_record()) + "\n"
                    + json.dumps(_qa_record(start_logits=[1.0, 0.0, 0.0])) + "\n")
    with pytest.raises(LengthViolation) as exc:
        load_log(path)
    assert exc.value.example_index == 1


def test_load_log_mutation_detected(tmp_path, rng):
    predicted = rng.integers(0, 2, 10)
    gold = rng.integers(0, 2, 10)
    log = make_classification_log(predicted, gold, 2,
                                  logits=_logits_for(predicted, 2, rng))
    path = tmp_path / "log.jsonl"
    save_log(log, path)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[3])
    rec["predicted"] = 1 - rec["predicted"]
    lines[3] = json.dumps(rec, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ArgmaxMismatch) as exc:
        load_log(path)
    assert exc.value.example_index == 2


def test_load_log_malformed_line_reports_position(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"task": "classification", "model_id": "m", '
                    '"split_id": "s", "n_classes": 2}\n'
                    '{"gold": 0, "predicted": 1}\n'
                    "not json\n")
    with pytest.raises(MalformedRecord) as exc:
        load_log(path)
    assert exc.value.line_number == 3


_HEADER = ('{"task": "classification", "model_id": "m", '
           '"split_id": "s", "n_classes": 2}')


@pytest.mark.parametrize("text, line_number", [
    ("\n" + _HEADER + '\n\n{"gold": 0, "predicted": 1}\n  \nnot json\n', 6),
    ('\n\n{"task": "classification", "model_id": "m"}\n{"gold": 0, "predicted": 1}\n', 3),
], ids=["record", "header"])
def test_load_log_blank_lines_keep_file_line_numbers(tmp_path, text, line_number):
    path = tmp_path / "blank.jsonl"
    path.write_text(text)
    with pytest.raises(MalformedRecord) as exc:
        load_log(path)
    assert exc.value.line_number == line_number


def test_load_log_line_breaks_inside_strings_and_crlf(tmp_path):
    path = tmp_path / "breaks.jsonl"
    path.write_bytes(json.dumps({"task": "classification", "model_id": "m\u2028\x85x",
                                 "split_id": "s", "n_classes": 2}, ensure_ascii=False)
                     .encode() + b'\r\n{"gold": 0, "predicted": 1}\r\n')
    log = load_log(path)
    assert log.model_id == "m\u2028\x85x" and log.predicted.tolist() == [1]


def test_load_log_logit_width_names_first_bad_record(tmp_path):
    rows = [[0.5, 0.1], [0.2, 0.9], [0.7, 0.3], [0.1, 0.2, 0.3], [0.9, 0.8, 0.7]]
    path = tmp_path / "width.jsonl"
    path.write_text("\n".join([_HEADER] + [
        json.dumps({"gold": 0, "predicted": int(np.argmax(r)), "logits": r}) for r in rows]))
    with pytest.raises(MalformedRecord) as exc:
        load_log(path)
    assert exc.value.line_number == 5


def test_load_log_missing_file():
    with pytest.raises(MissingFile):
        load_log("/nonexistent/never.jsonl")


def test_load_log_missing_key(tmp_path):
    path = tmp_path / "nokey.jsonl"
    path.write_text('{"task": "classification", "model_id": "m", '
                    '"split_id": "s", "n_classes": 2}\n'
                    '{"gold": 0}\n')
    with pytest.raises(MalformedRecord):
        load_log(path)


def _qa_record(**overrides):
    rec = {"n_tokens": 2, "start_logits": [1.0, 0.0], "end_logits": [0.0, 1.0],
           "gold_start": 0, "gold_end": 1, "pred_start": 0, "pred_end": 1}
    rec.update(overrides)
    return rec


@pytest.mark.parametrize("header, record, line_number", [
    ({"n_classes": 2}, {"gold": "x", "predicted": 1}, 2),
    ({"n_classes": 2}, {"gold": 0, "predicted": None}, 2),
    ({"n_classes": "two"}, {"gold": 0, "predicted": 1}, 1),
    ({"n_classes": 2}, {"gold": 0, "predicted": 1, "logits": [0.5, "x"]}, 2),
    ({"n_classes": 2}, {"gold": 0, "predicted": 1, "logits": 0.5}, 2),
    (None, _qa_record(n_tokens="x"), 2),
    (None, _qa_record(start_logits=["a", "b"]), 2),
    (None, _qa_record(end_logits=1.0), 2),
    ({"n_classes": 2}, {"gold": 1.9, "predicted": 1}, 2),
    ({"n_classes": 2}, {"gold": 0, "predicted": 1e29}, 2),
    ({"n_classes": 2}, {"gold": 10**29, "predicted": 1}, 2),
    ({"n_classes": 2}, {"gold": True, "predicted": 1}, 2),
    ({"n_classes": 2.5}, {"gold": 0, "predicted": 1}, 1),
    (None, _qa_record(n_tokens=2.5), 2),
    (None, _qa_record(gold_end=1e29), 2),
    (None, _qa_record(pred_start=-(2**63) - 1), 2),
    # logits must be JSON numbers, not strings, booleans or null
    ({"n_classes": 2}, {"gold": 0, "predicted": 1, "logits": ["0.9", True]}, 2),
    ({"n_classes": 2}, {"gold": 0, "predicted": 1, "logits": [False, "1e3"]}, 2),
    ({"n_classes": 2}, {"gold": 0, "predicted": 1, "logits": [None, 0.5]}, 2),
    (None, _qa_record(start_logits=["1.0", 0.0]), 2),
    (None, _qa_record(end_logits=[False, True]), 2),
])
def test_load_log_bad_field_type_reports_position(tmp_path, header, record, line_number):
    head = {"model_id": "m", "split_id": "s"}
    if header is None:
        head["task"] = "extractive_qa"
    else:
        head.update(task="classification", **header)
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(head) + "\n" + json.dumps(record) + "\n")
    with pytest.raises(MalformedRecord) as exc:
        load_log(path)
    assert exc.value.line_number == line_number


@pytest.mark.parametrize("key", ["model_id", "split_id"])
@pytest.mark.parametrize("value", [3, None, ["m"]], ids=["int", "null", "list"])
def test_load_log_header_ids_must_be_strings(tmp_path, key, value):
    """A header id of another type is a MalformedRecord at the header's line."""
    head = {"task": "classification", "model_id": "m", "split_id": "s", "n_classes": 2}
    head[key] = value
    path = tmp_path / "bad.jsonl"
    path.write_text("\n" + json.dumps(head) + '\n{"gold": 0, "predicted": 1}\n')
    with pytest.raises(MalformedRecord) as exc:
        load_log(path)
    assert str(exc.value) == (f"malformed record at {path}:2 "
                              f"(bad {key!r}: {value!r} is not a string)")


def test_load_log_accepts_integral_floats(tmp_path):
    path = tmp_path / "floats.jsonl"
    path.write_text(json.dumps({"task": "classification", "model_id": "m", "split_id": "s",
                                "n_classes": 2.0}) + "\n"
                    + json.dumps({"gold": 1.0, "predicted": 0}) + "\n")
    log = load_log(path)
    assert log.n_classes == 2 and log.gold.tolist() == [1]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_validate_rejects_non_finite_span_logits(rng, value):
    log = make_span_log([(1, 3), (0, 2)], [(0, 2), (0, 2)], n_tokens=5, rng=rng)
    # at the predicted index NaN and +inf keep the argmax; -inf goes elsewhere
    log.end_logits[1, log.predicted[1, 1] if value != -np.inf else 4] = value
    with pytest.raises(RangeViolation) as exc:
        validate_log(log)
    assert exc.value.example_index == 1


def _write_pair_tree(tmp_path, rng, n_models=3, n=25, k=3):
    gold_id = rng.integers(0, k, n)
    gold_ood = rng.integers(0, k, n)
    entries = []
    for m in range(n_models):
        for split, gold in (("clean", gold_id), ("shift", gold_ood)):
            pred = rng.integers(0, k, n)
            log = make_classification_log(pred, gold, k, model_id=f"m{m}",
                                          split_id=split)
            rel = f"m{m}_{split}.jsonl"
            save_log(log, tmp_path / rel)
            entries.append(ManifestEntry(model_id=f"m{m}", split_id=split, path=rel))
    manifest = Manifest(version=FORMAT_VERSION, task=TASK_CLASSIFICATION,
                        metric=METRIC_ACCURACY, entries=entries)
    path = tmp_path / "manifest.json"
    save_manifest(manifest, path)
    return path


def test_single_manifest_two_splits(tmp_path, rng):
    path = _write_pair_tree(tmp_path, rng)
    pair = load_split_pair(path, path)
    assert len(pair.id_logs) == 3
    assert pair.model_ids == ["m0", "m1", "m2"]
    # first-appearing split is in-distribution
    assert pair.id_logs[0].split_id == "clean"
    assert pair.ood_logs[0].split_id == "shift"
    assert pair.metric == METRIC_ACCURACY
    same = load_split_pair(path, path)
    assert same.model_ids == pair.model_ids


def test_manifest_duplicate_entry(tmp_path):
    doc = {"version": "1", "task": TASK_CLASSIFICATION, "metric": METRIC_ACCURACY,
           "entries": [{"model_id": "m0", "split_id": "a", "path": "x.jsonl"},
                       {"model_id": "m0", "split_id": "a", "path": "y.jsonl"}]}
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DuplicateEntry):
        read_manifest(path)


_GOOD_ENTRY = '{"model_id": "m0", "split_id": "a", "path": "x.jsonl"}'
_LONG_INT = "9" * 5000  # more digits than int takes, so json.loads names no line


@pytest.mark.parametrize("entries, line, detail", [
    pytest.param(f'\n  {_GOOD_ENTRY},\n  {{"model_id": "m1", "split_id": "a",\n   "path": 5}}',
                 5, "entry 1: path must be a string", id="opens-line-5-bad-path-line-6"),
    pytest.param(f'\n  {_GOOD_ENTRY},\n\n  {{"model_id": "m1", "path": "y.jsonl"}}',
                 6, "entry 1 needs model_id, split_id and path", id="after-blank-line"),
    pytest.param(f'{{\n"model_id": ["m0"], "split_id": "a", "path": "x.jsonl"}}',
                 3, "entry 0: model_id must be a string", id="opens-on-entries-line"),
    pytest.param(f'{{"model_id": "m0", "split_id": "a", "path": "x.jsonl", "meta": {{}}}},\n'
                 f'{{"model_id": "m1", "split_id": {{}}, "path": "y.jsonl"}}',
                 4, "entry 1: split_id must be a string", id="after-nested-object"),
    pytest.param(f'{_GOOD_ENTRY}, {{"model_id": "m1", "split_id": 0, "path": "y.jsonl"}}',
                 3, "entry 1: split_id must be a string", id="two-on-one-line"),
    # an entry that is not an object names the line its value starts on, as any value does
    pytest.param(f'\n  {_GOOD_ENTRY},\n  "y.jsonl"',
                 5, "entry 1 needs model_id, split_id and path", id="not-an-object"),
    # a value nested 600 deep inside the entry does not hide the line it opens on
    pytest.param('\n{"model_id": ' + "[" * 600 + "]" * 600 + ', "split_id": "a", "path": "x"}',
                 4, "entry 0: model_id must be a string", id="too-deep-to-locate"),
    # an integer of more digits than int takes names its own line wherever it sits
    pytest.param(f'\n  {_GOOD_ENTRY},\n  {{"model_id": "m1", "split_id": "a",\n   "path": "y",'
                 f' "n": {_LONG_INT}}}', 6, "Exceeds the limit", id="long-integer-in-entry"),
    pytest.param('\n {"model_id": "m0", "meta": [1, "99", [],\n [2.5, {"k": 7},\n  '
                 + _LONG_INT + '], 3], "split_id": "a", "path": "x"}',
                 6, "Exceeds the limit", id="long-integer-in-nested-list"),
    pytest.param('\n {"model_id": "m0", "split_id": "a", "path": "x",\n "model_id":\n '
                 + _LONG_INT + '}', 6, "Exceeds the limit", id="long-integer-under-repeated-key"),
    pytest.param('\n{"meta": ' + "[" * 600 + "]" * 600 + ', "model_id":\n ' + _LONG_INT
                 + ', "split_id": "a", "path": "x"}',
                 5, "Exceeds the limit", id="long-integer-after-deep-value"),
])
def test_manifest_entry_error_names_entry_line(tmp_path, entries, line, detail):
    path = tmp_path / "manifest.json"
    path.write_text('{"version": "1", "task": "classification",\n'
                    ' "metric": "accuracy",\n'
                    ' "entries": [' + entries + ']}\n')
    with pytest.raises(MalformedRecord) as exc:
        read_manifest(path)
    assert exc.value.line_number == line
    assert str(exc.value).startswith(f"malformed record at {path}:{line} ({detail}")


@pytest.mark.parametrize("text, line, detail", [
    pytest.param('{"version": "1",\n "metric": "accuracy",\n "entries": [],\n "task":\n   "nope"}',
                 5, "unknown task 'nope'", id="task-value-below-its-key"),
    pytest.param('{"version": "1", "task": "classification",\n "metric": "accuracy",\n'
                 ' "entries": {"path": "x.jsonl"}}', 3, "entries must be a list", id="entries"),
    # a repeated key keeps its last value, and the error names that value's line
    pytest.param('{"version": "1", "task": "classification", "metric": "accuracy",\n'
                 ' "entries": [],\n "entries": 5}', 3, "entries must be a list", id="repeated-key"),
    pytest.param('\n\n["version", "task"]\n', 3, "manifest must be a JSON object", id="not-object"),
    pytest.param('{"version": "1",\n "task": "classification",\n "entries": []}',
                 1, "missing key 'metric'", id="missing-key"),
    pytest.param('{"task": "classification",\n "metric": "accuracy",\n "entries": []}',
                 1, "missing key 'version'", id="missing-key-version"),
    pytest.param('{"version": "1",\n "metric": "accuracy",\n "entries": []}',
                 1, "missing key 'task'", id="missing-key-task"),
    pytest.param('{"version": "1",\n "task": "classification",\n "metric": "accuracy"}',
                 1, "missing key 'entries'", id="missing-key-entries"),
    # a missing key names the line on which the document opens
    pytest.param('\n\n{"version": "1",\n "task": "classification",\n "entries": []}',
                 3, "missing key 'metric'", id="missing-key-after-blank-lines"),
    pytest.param('\n\n  \t{"task": "classification", "metric": "accuracy",\n "entries": []}',
                 3, "missing key 'version'", id="missing-key-after-blank-lines-indented"),
    # a member after a value nested 600 deep still names its own line
    pytest.param('{"extra": ' + "[" * 600 + "]" * 600 + ',\n "task": "classification",\n'
                 ' "metric": "accuracy", "entries": [],\n\n "version": "2"}',
                 5, "unsupported version '2'", id="after-deep-value"),
    # an integer of more digits than int takes names its own line, which json does not
    # give; neither a string of digits nor a float's long fraction before it is taken for it
    pytest.param('{"task": "classification",\n "note": "' + "1" * 5000 + '",\n'
                 ' "skew": 0.' + "5" * 5000 + ', "metric": "accuracy", "entries": [],\n'
                 ' "version":\n ' + "9" * 5000 + "}", 5, "Exceeds the limit", id="long-integer"),
    pytest.param('{"version": "1", "task": "classification",\n "metric": "accuracy",\n'
                 ' "entries": [], "version":\n\n ' + _LONG_INT + "}",
                 5, "Exceeds the limit", id="long-integer-under-repeated-key"),
    pytest.param('{"extra": ' + "[" * 600 + "]" * 600 + ',\n "task": "classification",\n'
                 ' "metric": "accuracy", "entries": [],\n\n "version": ' + _LONG_INT + "}",
                 5, "Exceeds the limit", id="long-integer-after-deep-value"),
    pytest.param('{"version": "1",\n "extra": ' + "[" * 600 + "\n" + _LONG_INT + "]" * 600 + "}",
                 3, "Exceeds the limit", id="long-integer-inside-deep-value"),
    pytest.param('\n[1,\n ' + _LONG_INT + "]", 3, "Exceeds the limit",
                 id="long-integer-in-top-level-list"),
])
def test_manifest_document_error_names_value_line(tmp_path, text, line, detail):
    path = tmp_path / "bad.json"
    path.write_text(text + "\n")
    with pytest.raises(MalformedRecord) as exc:
        read_manifest(path)
    assert exc.value.line_number == line
    assert str(exc.value).startswith(f"malformed record at {path}:{line} ({detail}")


# JSON whitespace between tokens, blank lines and CRLF among it
_LAYOUT = st.sampled_from(["", " ", "\t", "\n", "\n\n", "\r\n", "\n    "])
# a JSON value: a list is an array, and a tuple of (key, value) members an object, so
# that an object may repeat a key
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=4),
              st.floats(allow_nan=False, allow_infinity=False)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(st.tuples(st.sampled_from(["a", "path", "é\n"]), inner), max_size=3).map(tuple)),
    max_leaves=8)
_ENTRY = st.one_of(
    st.lists(st.tuples(st.sampled_from(["model_id", "split_id", "path", "meta"]), _JSON),
             max_size=4).map(tuple),
    _JSON)


@st.composite
def _laid_out_manifests(draw):
    """The text of a manifest-shaped object (the four keys, extra and repeated members,
    nested values, entries of any type) laid out with random whitespace, and {key path:
    line on which the value at that path is written}, a repeated key's last value kept."""
    parts, lines = [], {}

    def write(value, path):
        for known in [known for known in lines if known[:len(path)] == path]:
            del lines[known]  # an earlier value of a repeated key
        parts.append(draw(_LAYOUT))
        lines[path] = "".join(parts).count("\n") + 1
        if isinstance(value, (tuple, list)):
            is_object = isinstance(value, tuple)
            parts.append("{" if is_object else "[")
            for n, item in enumerate(value):
                parts.append("," * (n > 0))
                if is_object:
                    parts.append(draw(_LAYOUT) + json.dumps(item[0]) + draw(_LAYOUT) + ":")
                write(item[1] if is_object else item, path + ((item[0],) if is_object else (n,)))
            parts.append(draw(_LAYOUT) + ("}" if is_object else "]"))
        else:
            parts.append(json.dumps(value))

    members = [("version", "1"), ("task", draw(st.sampled_from(list(datamodel.METRICS_BY_TASK)))),
               ("metric", draw(st.sampled_from([METRIC_ACCURACY, METRIC_F1]))),
               ("entries", draw(st.lists(_ENTRY, max_size=4)))]
    extra = st.tuples(st.sampled_from(["entries", "version", "meta"]), _JSON)
    write(tuple(draw(st.permutations(members + draw(st.lists(extra, max_size=3))))), ())
    parts.append(draw(_LAYOUT))
    return "".join(parts), lines


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_laid_out_manifests())
def test_line_of_names_the_line_each_value_is_written_on(laid_out):
    """Every key path, from the document itself through each top-level key and entry to
    the values nested in them, walks to the line its value was written on."""
    text, lines = laid_out
    json.loads(text)  # the walk only ever sees text that json accepted
    for path, line in lines.items():
        assert datamodel._line_of(text, *path) == line, path


@pytest.mark.parametrize("version", [2, "2", None, ["1"]], ids=["int", "str", "null", "list"])
def test_manifest_version_must_be_the_format_version(tmp_path, version):
    """Only FORMAT_VERSION is read; any other value names the line it starts on."""
    path = tmp_path / "manifest.json"
    path.write_text('{"task": "classification", "metric": "accuracy", "entries": [],\n'
                    ' "version":\n  ' + json.dumps(version) + "}\n")
    with pytest.raises(MalformedRecord) as exc:
        read_manifest(path)
    assert exc.value.line_number == 3
    assert "version" in str(exc.value)
    path.write_text(path.read_text().replace(json.dumps(version), '"1"'))
    assert read_manifest(path).version == FORMAT_VERSION


def test_manifest_metric_task_mismatch(tmp_path):
    doc = {"version": "1", "task": TASK_CLASSIFICATION, "metric": METRIC_F1,
           "entries": []}
    path = tmp_path / "mismatch.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(MetricTaskMismatch):
        read_manifest(path)


def test_manifest_missing_split_log(tmp_path, rng):
    path = _write_pair_tree(tmp_path, rng)
    doc = json.loads(path.read_text())
    doc["entries"] = [e for e in doc["entries"]
                      if not (e["model_id"] == "m1" and e["split_id"] == "shift")]
    path.write_text(json.dumps(doc))
    with pytest.raises(ShapeMismatch) as exc:
        load_split_pair(path, path)
    assert exc.value.model_id == "m1"


def test_manifest_three_splits_rejected(tmp_path, rng):
    path = _write_pair_tree(tmp_path, rng)
    extra = make_classification_log([0, 1], [0, 1], 3, model_id="m0",
                                    split_id="third")
    save_log(extra, tmp_path / "extra.jsonl")
    doc = json.loads(path.read_text())
    doc["entries"].append({"model_id": "m0", "split_id": "third", "path": "extra.jsonl"})
    path.write_text(json.dumps(doc))
    with pytest.raises(ShapeMismatch):
        load_split_pair(path, path)


def test_two_manifest_split_pair(tmp_path, rng):
    k, n = 3, 20
    for name, split in (("id", "clean"), ("ood", "shift")):
        d = tmp_path / name
        d.mkdir()
        gold = rng.integers(0, k, n)
        entries = []
        for m in range(2):
            pred = rng.integers(0, k, n)
            log = make_classification_log(pred, gold, k, model_id=f"m{m}",
                                          split_id=split)
            save_log(log, d / f"m{m}.jsonl")
            entries.append(ManifestEntry(model_id=f"m{m}", split_id=split,
                                         path=f"m{m}.jsonl"))
        save_manifest(Manifest(version=FORMAT_VERSION, task=TASK_CLASSIFICATION,
                               metric=METRIC_ACCURACY, entries=entries),
                      d / "manifest.json")
    pair = load_split_pair(tmp_path / "id" / "manifest.json",
                           tmp_path / "ood" / "manifest.json")
    assert len(pair.id_logs) == 2
    assert pair.id_logs[0].split_id == "clean"
    assert pair.ood_logs[1].split_id == "shift"


def _write_sub_manifest(tmp_path, path, name, keep):
    """A copy of the manifest at ``path`` holding the entries ``keep`` accepts."""
    doc = json.loads(path.read_text())
    doc["entries"] = [e for e in doc["entries"] if keep(e)]
    sub = tmp_path / name
    sub.write_text(json.dumps(doc))
    return sub


def test_split_pair_combined_manifest_and_its_copy(tmp_path, rng):
    """Each (model, split) once across both manifests: a copy of the combined
    manifest as the OOD manifest is not a second ensemble of ID models."""
    path = _write_pair_tree(tmp_path, rng)
    copy = _write_sub_manifest(tmp_path, path, "copy.json", lambda e: True)
    with pytest.raises(DuplicateEntry):
        load_split_pair(path, copy)


def test_split_pair_one_split_manifest_and_its_copy(tmp_path, rng):
    """An ID-only manifest and its copy name one split, not an ID and an OOD split."""
    path = _write_pair_tree(tmp_path, rng)
    id_only = _write_sub_manifest(tmp_path, path, "id.json", lambda e: e["split_id"] == "clean")
    copy = _write_sub_manifest(tmp_path, path, "copy.json", lambda e: e["split_id"] == "clean")
    with pytest.raises(DuplicateEntry):
        load_split_pair(id_only, copy)
    with pytest.raises(ShapeMismatch):
        load_split_pair(id_only, id_only)


def test_split_pair_model_only_in_ood_manifest(tmp_path, rng):
    path = _write_pair_tree(tmp_path, rng)
    id_manifest = _write_sub_manifest(
        tmp_path, path, "id.json", lambda e: e["split_id"] == "clean" and e["model_id"] != "m2")
    ood_manifest = _write_sub_manifest(tmp_path, path, "ood.json",
                                       lambda e: e["split_id"] == "shift")
    with pytest.raises(ShapeMismatch) as exc:
        load_split_pair(id_manifest, ood_manifest)
    assert exc.value.model_id == "m2"


def _write_logs(path, task, metric, logs):
    """Save each log beside a manifest at ``path`` that lists them, in order."""
    entries = []
    for log in logs:
        rel = f"{log.model_id}_{log.split_id}.jsonl"
        save_log(log, path.parent / rel)
        entries.append(ManifestEntry(model_id=log.model_id, split_id=log.split_id, path=rel))
    save_manifest(Manifest(version=FORMAT_VERSION, task=task, metric=metric, entries=entries), path)
    return str(path)


def _estimate_exits_2(tmp_path, capsys, id_manifest, ood_manifest, error):
    out = tmp_path / "report"
    assert main(["estimate", "--id-manifest", id_manifest, "--ood-manifest", ood_manifest,
                 "--out", str(out)]) == EXIT_INPUT_ERROR
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not (out / "report.json").exists()


def _qa_logs(split_id, n_models=2):
    return [make_span_log([(0, 1)], [(0, 1)], model_id=f"m{m}", split_id=split_id)
            for m in range(n_models)]


def test_log_of_another_task_than_its_manifest(tmp_path, capsys):
    path = _write_logs(tmp_path / "manifest.json", TASK_CLASSIFICATION, METRIC_ACCURACY,
                       _qa_logs("clean"))
    with pytest.raises(MetricTaskMismatch) as exc:
        load_entries(path)
    assert (exc.value.metric, exc.value.task) == (METRIC_ACCURACY, TASK_EXTRACTIVE_QA)
    assert main(["validate", "--manifest", path]) == EXIT_INPUT_ERROR
    assert capsys.readouterr().err == ("error: metric 'accuracy' is incompatible with task "
                                       f"'extractive_qa' at {tmp_path / 'm0_clean.jsonl'}\n")


def test_manifest_metric_of_another_task_names_its_line(tmp_path, capsys):
    path = tmp_path / "manifest.json"
    path.write_text('{"version": "1", "task": "classification",\n'
                    ' "entries": [],\n "metric":\n  "f1"}\n')
    with pytest.raises(MetricTaskMismatch) as exc:
        read_manifest(path)
    assert (exc.value.metric, exc.value.task) == (METRIC_F1, TASK_CLASSIFICATION)
    assert main(["validate", "--manifest", str(path)]) == EXIT_INPUT_ERROR
    assert capsys.readouterr().err == \
        f"error: metric 'f1' is incompatible with task 'classification' at {path}:4\n"


def test_split_pair_manifests_of_two_tasks(tmp_path, capsys):
    id_manifest = _write_logs(
        tmp_path / "id.json", TASK_CLASSIFICATION, METRIC_ACCURACY,
        [make_classification_log([0, 1], [0, 1], 2, model_id=f"m{m}", split_id="clean")
         for m in range(2)])
    ood_manifest = _write_logs(tmp_path / "ood.json", TASK_EXTRACTIVE_QA, METRIC_F1,
                               _qa_logs("shift"))
    with pytest.raises(MetricTaskMismatch) as exc:
        load_split_pair(id_manifest, ood_manifest)
    assert (exc.value.metric, exc.value.task) == (METRIC_ACCURACY, TASK_EXTRACTIVE_QA)
    _estimate_exits_2(tmp_path, capsys, id_manifest, ood_manifest,
                      "metric 'accuracy' is incompatible with task 'extractive_qa'")


def test_split_pair_of_one_model(tmp_path, rng, capsys):
    path = str(_write_pair_tree(tmp_path, rng, n_models=1))
    with pytest.raises(ShapeMismatch, match="need at least 2 models, got 1"):
        load_split_pair(path, path)
    _estimate_exits_2(tmp_path, capsys, path, path,
                      "shape mismatch for model '*': need at least 2 models, got 1")


def test_split_pair_of_inconsistent_class_counts(tmp_path, capsys):
    path = _write_logs(
        tmp_path / "manifest.json", TASK_CLASSIFICATION, METRIC_ACCURACY,
        [make_classification_log([0, 1, 2], [2, 1, 0], k, model_id=f"m{m}", split_id=split)
         for m, k in enumerate((3, 4)) for split in ("clean", "shift")])
    assert [log.n_classes for log in load_entries(path)[1]] == [3, 3, 4, 4]
    with pytest.raises(ShapeMismatch, match=r"inconsistent n_classes \[3, 4\]"):
        load_split_pair(path, path)
    _estimate_exits_2(tmp_path, capsys, path, path,
                      "shape mismatch for model '*': inconsistent n_classes [3, 4]")


def test_split_pair_two_manifests_match_one(tmp_path, rng):
    """Per-split manifests give the ensemble the combined manifest gives."""
    path = _write_pair_tree(tmp_path, rng)
    id_manifest = _write_sub_manifest(tmp_path, path, "id.json", lambda e: e["split_id"] == "clean")
    ood_manifest = _write_sub_manifest(tmp_path, path, "ood.json",
                                       lambda e: e["split_id"] == "shift")
    one, two = load_split_pair(path, path), load_split_pair(id_manifest, ood_manifest)
    assert two.model_ids == one.model_ids == ["m0", "m1", "m2"]
    for a, b in zip(one.id_logs + one.ood_logs, two.id_logs + two.ood_logs):
        assert (a.model_id, a.split_id) == (b.model_id, b.split_id)
        assert np.array_equal(a.predicted, b.predicted)


def test_split_pair_length_mismatch(tmp_path, rng):
    path = _write_pair_tree(tmp_path, rng)
    # shorten one OOD log on disk
    target = tmp_path / "m2_shift.jsonl"
    lines = target.read_text().splitlines()
    target.write_text("\n".join(lines[:-5]) + "\n")
    with pytest.raises(ShapeMismatch):
        load_split_pair(path, path)


def test_metric_override(tmp_path, rng):
    log_dir = tmp_path
    entries = []
    for m in range(2):
        for split in ("a", "b"):
            log = make_span_log([(0, 1), (2, 2)], [(0, 1), (2, 3)], n_tokens=5,
                                model_id=f"m{m}", split_id=split, rng=rng)
            rel = f"m{m}_{split}.jsonl"
            save_log(log, log_dir / rel)
            entries.append(ManifestEntry(model_id=f"m{m}", split_id=split, path=rel))
    path = log_dir / "manifest.json"
    save_manifest(Manifest(version=FORMAT_VERSION, task=TASK_EXTRACTIVE_QA,
                           metric=METRIC_EXACT_MATCH, entries=entries), path)
    assert load_split_pair(path, path).metric == METRIC_EXACT_MATCH
    assert load_split_pair(path, path, METRIC_F1).metric == METRIC_F1
    with pytest.raises(MetricTaskMismatch):
        load_split_pair(path, path, METRIC_ACCURACY)


def _ensemble(split_id, model_ids=("m0", "m1"), n_classes=(3, 3), lengths=(3, 3)):
    return [make_classification_log([0, 1, 2][:size], [2, 1, 0][:size], k, model_id=m,
                                    split_id=split_id)
            for m, k, size in zip(model_ids, n_classes, lengths)]


@pytest.mark.parametrize("id_logs, ood_logs, metric, error, on_disk, message", [
    # the loader lists OOD logs in the ID model order, so only a pair built in memory
    # can break that rule
    pytest.param(_ensemble("clean"), _ensemble("shift")[::-1], METRIC_ACCURACY,
                 ShapeMismatch, None, None, id="ood-in-reverse-order"),
    pytest.param(_ensemble("clean"), _ensemble("shift", model_ids=("m0", "m9")),
                 METRIC_ACCURACY, ShapeMismatch, ShapeMismatch, None, id="ood-of-other-models"),
    pytest.param(_ensemble("clean", model_ids=("m0",)), _ensemble("shift", model_ids=("m0",)),
                 METRIC_ACCURACY, ShapeMismatch, ShapeMismatch,
                 "shape mismatch for model '*': need at least 2 models, got 1", id="one-model"),
    pytest.param(_ensemble("clean"), _ensemble("shift", lengths=(3, 2)), METRIC_ACCURACY,
                 ShapeMismatch, ShapeMismatch,
                 "shape mismatch for model 'm1': OOD log length differs from ensemble",
                 id="unequal-lengths"),
    pytest.param(_ensemble("clean", n_classes=(3, 4)), _ensemble("shift", n_classes=(3, 4)),
                 METRIC_ACCURACY, ShapeMismatch, ShapeMismatch,
                 "shape mismatch for model '*': inconsistent n_classes [3, 4]",
                 id="mixed-n-classes"),
    pytest.param(_ensemble("clean"), _ensemble("shift"), METRIC_F1,
                 MetricTaskMismatch, MetricTaskMismatch,
                 "metric 'f1' is incompatible with task 'classification'",
                 id="metric-of-the-other-task"),
])
def test_split_pair_checks_each_ensemble_rule(tmp_path, id_logs, ood_logs, metric, error,
                                              on_disk, message):
    """A SplitPair built in memory raises what load_split_pair raises for the same logs
    on disk, with its message for the rules the loader checked before SplitPair did."""
    with pytest.raises(error) as exc:
        SplitPair(id_logs=id_logs, ood_logs=ood_logs, metric=metric)
    if message is not None:
        assert str(exc.value) == message
    path = _write_logs(tmp_path / "manifest.json", TASK_CLASSIFICATION, METRIC_ACCURACY,
                       id_logs + ood_logs)
    if on_disk is None:
        pair = load_split_pair(path, path, metric)
        assert [log.model_id for log in pair.ood_logs] == pair.model_ids
        return
    with pytest.raises(on_disk) as loaded:
        load_split_pair(path, path, metric)
    if message is not None:
        assert str(loaded.value) == message


def _bad_gold_pair(bad_splits):
    """Two-model logs per split whose gold 5 is out of range in the ``bad_splits``."""
    return [[ClassificationLog(model_id=m, split_id=split, n_classes=2,
                               gold=[0, 5] if split in bad_splits else [0, 1], predicted=[0, 1])
             for m in ("m0", "m1")] for split in ("id", "ood")]


@pytest.mark.parametrize("id_logs, ood_logs, metric, message", [
    pytest.param(*_bad_gold_pair({"id", "ood"}), METRIC_ACCURACY,
                 "index out of range at example 1: gold 5 not in [0, 2)",
                 id="gold-out-of-range"),
    pytest.param(*_bad_gold_pair({"ood"}), METRIC_ACCURACY,
                 "index out of range at example 1: gold 5 not in [0, 2)",
                 id="ood-gold-out-of-range"),
    pytest.param(*([make_span_log([(0, 1)], [(3, 2)], model_id=m, split_id=split)
                    for m in ("m0", "m1")] for split in ("id", "ood")), METRIC_F1,
                 "index out of range at example 0: gold span out of range",
                 id="qa-gold-span-inverted"),
])
def test_split_pair_validates_every_log(id_logs, ood_logs, metric, message):
    """A pair built in memory runs validate_log on each log, as the loader does, so an
    invalid label is never scored."""
    with pytest.raises(RangeViolation) as exc:
        SplitPair(id_logs=id_logs, ood_logs=ood_logs, metric=metric)
    assert str(exc.value) == message


def test_log_is_read_once_when_the_one_decode_fails(tmp_path, monkeypatch):
    """A blank line after the header fails the one decode of a short-line log; the
    per-line loop then parses the text already read, not the file a second time."""
    saved, lines = _log_lines(tmp_path, "no logits", 0)
    (tmp_path / "blank.jsonl").write_text("\n".join([lines[0], "", *lines[1:]]) + "\n")
    paths = []
    monkeypatch.setattr(datamodel, "_read_text",
                        lambda path, *args: paths.append(path) or _read_text(path, *args))
    _assert_same_log(load_log(tmp_path / "blank.jsonl"), _oracle_narrow(saved))
    assert paths == [tmp_path / "blank.jsonl"]


def test_load_log_not_utf8_reports_line(tmp_path):
    path = tmp_path / "latin1.jsonl"
    path.write_bytes(b'{"task": "classification", "model_id": "m", "split_id": "s", '
                     b'"n_classes": 2}\n{"gold": 0, "predicted": 1}\n'
                     b'{"gold": 0, "predicted": 1, "note": "caf\xe9"}\n')
    with pytest.raises(MalformedRecord) as exc:
        load_log(path)
    assert exc.value.line_number == 3


def test_read_manifest_not_utf8(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_bytes(b'{"version": "1", "task": "classification",\n'
                     b' "metric": "accuracy", "entries": [], "by": "\xff"}\n')
    with pytest.raises(MalformedRecord) as exc:
        read_manifest(path)
    assert exc.value.line_number == 2


@pytest.mark.parametrize("literal", ["1" * 5000, "[" * 100_000], ids=["digits", "nesting"])
def test_json_beyond_parser_limits_is_malformed(tmp_path, literal):
    """An integer literal past Python's digit limit, or nesting past its
    recursion limit, is a malformed record, not a raw ValueError or RecursionError."""
    log = tmp_path / "log.jsonl"
    log.write_text('{"task": "classification", "model_id": "m", "split_id": "s", '
                   '"n_classes": 2}\n{"gold": 0, "predicted": ' + literal + "}\n")
    with pytest.raises(MalformedRecord) as exc:
        load_log(log)
    assert exc.value.line_number == 2
    manifest = tmp_path / "manifest.json"
    manifest.write_text('{"version": ' + literal + "}\n")
    with pytest.raises(MalformedRecord):
        read_manifest(manifest)


# --- the one-scan loader against the per-line loader it replaced ---

def _oracle_parse_line(path, lineno, line):
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise MalformedRecord(path, lineno, str(exc)) from exc
    if not isinstance(obj, dict):
        raise MalformedRecord(path, lineno, "expected a JSON object")
    return obj


def _oracle_require(obj, key, path, lineno, convert=None):
    if key not in obj:
        raise MalformedRecord(path, lineno, f"missing key {key!r}")
    if convert is None:
        return obj[key]
    try:
        return convert(obj[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise MalformedRecord(path, lineno, f"bad {key!r}: {exc}") from exc


def _oracle_int64(value):
    if type(value) is not int:
        if not (type(value) is float and value.is_integer()):
            raise ValueError(f"{value!r} is not an integer")
        value = int(value)
    if not -(2**63) <= value <= 2**63 - 1:
        raise OverflowError(f"{value} does not fit in int64")
    return value


def _oracle_float_vector(value):
    vec = np.array(value, dtype=np.float64)
    if vec.ndim != 1:
        raise ValueError("expected a list of numbers")
    return vec


def _oracle_load_log(path):
    """The loader before the one-scan rewrite: one json.loads and one set of
    field checks per line. It still turns JSON strings and booleans in logit
    lists into numbers, so corruptions of that kind are tested on their own."""
    numbered = [(lineno, ln) for lineno, ln in enumerate(_read_text(path).split("\n"), start=1)
                if ln.strip()]
    if not numbered:
        raise MalformedRecord(path, 1, "empty file")
    head_no, head = numbered[0]
    header = _oracle_parse_line(path, head_no, head)
    task = _oracle_require(header, "task", path, head_no)
    model_id = _oracle_require(header, "model_id", path, head_no)
    split_id = _oracle_require(header, "split_id", path, head_no)
    if task == TASK_CLASSIFICATION:
        k = _oracle_require(header, "n_classes", path, head_no, _oracle_int64)
        golds, preds, logit_rows = [], [], []
        any_logits = None
        for lineno, line in numbered[1:]:
            rec = _oracle_parse_line(path, lineno, line)
            golds.append(_oracle_require(rec, "gold", path, lineno, _oracle_int64))
            preds.append(_oracle_require(rec, "predicted", path, lineno, _oracle_int64))
            has = "logits" in rec
            if any_logits is None:
                any_logits = has
            elif any_logits != has:
                raise MalformedRecord(path, lineno, "inconsistent presence of logits")
            if has:
                logit_rows.append(_oracle_require(rec, "logits", path, lineno,
                                                  _oracle_float_vector))
                if len(logit_rows[-1]) != k:
                    raise MalformedRecord(path, lineno, "logit width")
        log = ClassificationLog(model_id=model_id, split_id=split_id, n_classes=k,
                                gold=np.array(golds, dtype=np.int64),
                                predicted=np.array(preds, dtype=np.int64),
                                logits=np.array(logit_rows, dtype=np.float64)
                                if any_logits else None)
    elif task == TASK_EXTRACTIVE_QA:
        examples = []
        for lineno, line in numbered[1:]:
            rec = _oracle_parse_line(path, lineno, line)
            examples.append(SpanExample(
                n_tokens=_oracle_require(rec, "n_tokens", path, lineno, _oracle_int64),
                start_logits=_oracle_require(rec, "start_logits", path, lineno,
                                             _oracle_float_vector),
                end_logits=_oracle_require(rec, "end_logits", path, lineno, _oracle_float_vector),
                gold_start=_oracle_require(rec, "gold_start", path, lineno, _oracle_int64),
                gold_end=_oracle_require(rec, "gold_end", path, lineno, _oracle_int64),
                pred_start=_oracle_require(rec, "pred_start", path, lineno, _oracle_int64),
                pred_end=_oracle_require(rec, "pred_end", path, lineno, _oracle_int64)))
        log = SpanLog(model_id=model_id, split_id=split_id, examples=examples)
    else:
        raise MalformedRecord(path, head_no, f"unknown task {task!r}")
    validate_log(log)
    return _oracle_narrow(log)


def _oracle_narrow(log):
    """A copy of a classification log with its labels in the first signed dtype whose
    range holds ``n_classes - 1``: the dtype ``load_log`` holds them in. QA logs keep
    their int64 spans and are returned as they are."""
    if not isinstance(log, ClassificationLog):
        return log
    dtype = next(t for t in (np.int8, np.int16, np.int32, np.int64)
                 if log.n_classes - 1 <= np.iinfo(t).max)
    return dataclasses.replace(log, gold=log.gold.astype(dtype),
                               predicted=log.predicted.astype(dtype))


_LOG_ARRAYS = ("gold", "predicted", "logits", "n_tokens", "start_logits", "end_logits")


def _assert_same_log(log, expected):
    assert type(log) is type(expected)
    assert (log.model_id, log.split_id, log.task) == (expected.model_id, expected.split_id,
                                                       expected.task)
    assert getattr(log, "n_classes", None) == getattr(expected, "n_classes", None)
    for name in _LOG_ARRAYS:
        got, want = getattr(log, name, None), getattr(expected, name, None)
        if want is None:
            assert got is None, name
            continue
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name  # bit-identical, NaN-safe


def _log_lines(tmp_path, kind, seed, n=40):
    """A valid log and the lines it is saved as: classification with or
    without logits, or QA with ragged n_tokens."""
    rng = np.random.default_rng(seed)
    if kind == "qa":
        log = SpanLog(model_id="m q", split_id="s", examples=_span_records(rng, n))
    else:
        predicted = rng.integers(0, 3, n)
        log = make_classification_log(
            predicted, rng.integers(0, 3, n), 3, model_id="m", split_id="s",
            logits=_logits_for(predicted, 3, rng) if kind == "logits" else None)
    save_log(log, tmp_path / "saved.jsonl")
    return log, (tmp_path / "saved.jsonl").read_text().splitlines()


def _variant(lines, how, rng):
    """The same records, laid out as ``how`` says."""
    if how == "blank lines":
        out = []
        for line in lines:
            out += [line] + [rng.choice(["", "  ", "\t", "\r", "\f", " ", " \xa0 "])
                             for _ in range(int(rng.integers(0, 3)))]
        return "\n".join(["", " "] + out)
    if how == "crlf":
        return "\r\n".join(lines) + "\r\n"
    if how == "json whitespace":
        return "\n".join(f" \t{line}\t \r" for line in lines)
    if how == "u2028 in strings":
        return "\n".join(line[:-1] + ', "note": "a\u2028b\x85c\u2029"}' for line in lines)
    if how == "null header field":
        return "\n".join([lines[0][:-1] + ', "note": null}', *lines[1:]]) + "\n"
    if how == "string holding ,null,":
        return "\n".join(line[:-1] + ', "note": "a,null,b"}' for line in lines) + "\n"
    if how == "no final newline":
        return "\n".join(lines)
    if how == "integral floats":
        return "\n".join(lines).replace('"gold": 1,', '"gold": 1.0,').replace(
            '"gold_start": 0,', '"gold_start": 0.0,')
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("kind", ["logits", "no logits", "qa"])
@pytest.mark.parametrize("how", ["plain", "blank lines", "crlf", "json whitespace",
                                 "u2028 in strings", "integral floats", "null header field",
                                 "string holding ,null,", "no final newline"])
@pytest.mark.parametrize("seed", [0, 1])
def test_load_log_matches_per_line_loader(tmp_path, kind, how, seed):
    """Bit-identical arrays, with equal dtypes, on valid logs of every shape."""
    saved, lines = _log_lines(tmp_path, kind, seed)
    path = tmp_path / "log.jsonl"
    path.write_bytes(_variant(lines, how, np.random.default_rng(seed)).encode())
    expected = _oracle_load_log(path)
    _assert_same_log(load_log(path), expected)
    _assert_same_log(expected, _oracle_narrow(saved))


def test_load_log_integer_logits_match_per_line_loader(tmp_path):
    """JSON integers in logit lists, up to and past int64, round like the old loader's."""
    path = tmp_path / "ints.jsonl"
    path.write_text("\n".join(json.dumps(rec) for rec in [
        {"task": "classification", "model_id": "m", "split_id": "s", "n_classes": 3},
        {"gold": 1, "predicted": 1, "logits": [3, 2**53 + 1, -(2**63) - 1]},
        {"gold": 0, "predicted": 2, "logits": [0.5, -7, 2**64 + 3]}]))
    _assert_same_log(load_log(path), _oracle_load_log(path))
    path.write_text("\n".join(json.dumps(rec) for rec in [
        {"task": "extractive_qa", "model_id": "m", "split_id": "s"},
        _qa_record(start_logits=[2**60, 1], end_logits=[0, 2**53 + 1])]))
    _assert_same_log(load_log(path), _oracle_load_log(path))


def test_load_log_matches_per_line_loader_when_empty(tmp_path):
    for head in ('{"task": "classification", "model_id": "m", "split_id": "s", "n_classes": 2}',
                 '{"task": "extractive_qa", "model_id": "m", "split_id": "s"}'):
        path = tmp_path / "empty.jsonl"
        path.write_text(head + "\n\n")
        _assert_same_log(load_log(path), _oracle_load_log(path))


def _assert_loads_like_per_line_loader(path):
    """An equal log, or the same exception type and line, as the per-line loader."""
    try:
        expected = _oracle_load_log(path)
    except ToolkitError as exc:
        with pytest.raises(type(exc)) as got:
            load_log(path)
        for attr in ("line_number", "example_index"):
            assert getattr(got.value, attr, None) == getattr(exc, attr, None)
    else:
        _assert_same_log(load_log(path), expected)


# pieces of records that a one-decode guard could misread as one object per line
_FRAGMENTS = ["{", "}", "[[", "]]", ",", " ", "null", '"x": ', '"gold": 1', '"predicted": 1',
              '"x": "a,null,b"', '{"gold": 0, "predicted": 0}', '{"predicted": 2, "gold": 0}']
_FRAGMENT_LINES = st.one_of(st.sampled_from(["", " ", "\t", " \r", _HEADER]),
                            st.lists(st.sampled_from(_FRAGMENTS), min_size=1,
                                     max_size=8).map("".join))
# lines drawn from a pool of one to three, so that most lines repeat an earlier one
_REPEATED_LINES = st.lists(_FRAGMENT_LINES, min_size=1, max_size=3).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=8))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(st.lists(_FRAGMENT_LINES, max_size=6), _REPEATED_LINES), st.booleans())
def test_load_log_of_fragment_lines_matches_per_line_loader(lines, final_newline):
    """Lines built from pieces of records, fresh or repeated, load as the per-line
    loader loads them."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "log.jsonl")
        with open(path, "wb") as fh:
            fh.write(("\n".join([_HEADER, *lines]) + "\n" * final_newline).encode())
        _assert_loads_like_per_line_loader(path)


def _must_not_run(*args):
    raise AssertionError("this decoder must not run on this log")


def test_short_line_log_is_decoded_in_one_call(tmp_path, monkeypatch):
    """A saved log of 28-byte lines never reaches the per-line scanner."""
    saved, _ = _log_lines(tmp_path, "no logits", 0)
    monkeypatch.setattr(datamodel, "_scan", _must_not_run)
    _assert_same_log(load_log(tmp_path / "saved.jsonl"), _oracle_narrow(saved))


def test_long_line_log_is_read_line_by_line(tmp_path, monkeypatch, rng):
    """A saved QA log of 128-token lines never reaches the one decode."""
    spans = [tuple(sorted(rng.integers(0, 128, 2))) for _ in range(10)]
    saved = make_span_log(spans, spans, n_tokens=128, rng=rng)
    save_log(saved, tmp_path / "qa.jsonl")
    monkeypatch.setattr(datamodel.json, "loads", _must_not_run)
    _assert_same_log(load_log(tmp_path / "qa.jsonl"), saved)


# --- each distinct short line is decoded once ---

_HEADER_K = '{"model_id": "m", "n_classes": %d, "split_id": "s", "task": "classification"}'


def _write_lines(tmp_path, lines, k=4):
    """A classification log of ``k`` classes: save_log's header, then ``lines``."""
    path = tmp_path / "log.jsonl"
    path.write_text("\n".join([_HEADER_K % k, *lines]) + "\n")
    return path


def _labels_lines(rng, n, k):
    """``n`` labels-only lines in save_log's layout, in random order, on which each
    of the k * k (gold, predicted) pairs is written at least twice."""
    pairs = [(g, p) for g in range(k) for p in range(k)] * 2
    pairs += [pairs[i] for i in rng.integers(0, len(pairs), n - len(pairs))]
    return ['{"gold": %d, "predicted": %d}' % pairs[i] for i in rng.permutation(n)]


@pytest.mark.parametrize("k", [2, 4, 11])
def test_load_log_of_repeated_labels_matches_per_line_loader(tmp_path, rng, k):
    path = _write_lines(tmp_path, _labels_lines(rng, 300, k), k)
    _assert_same_log(load_log(path), _oracle_load_log(path))


@pytest.mark.parametrize("bad, error", [
    ('{"gold": 1, "predicted": 257}', RangeViolation),
    ('{"gold": "1", "predicted": 1}', MalformedRecord),
])
def test_a_repeated_bad_record_raises_at_its_first_line(tmp_path, bad, error):
    """The bad record on lines 9, 12 and 30 raises at line 9 (example 7), though it is
    the third distinct record."""
    lines = ['{"gold": 0, "predicted": 0}', '{"gold": 1, "predicted": 1}'] * 20
    for i in (7, 10, 28):
        lines[i] = bad
    path = _write_lines(tmp_path, lines)
    with pytest.raises(error) as exc:
        load_log(path)
    if error is MalformedRecord:
        assert exc.value.line_number == 9
    else:
        assert exc.value.example_index == 7 and str(exc.value).endswith(f"(line 9 of {path})")
    _assert_loads_like_per_line_loader(path)


def test_an_argmax_mismatch_on_a_repeated_row_is_named_at_its_own_line(tmp_path):
    """The mismatched record is the second distinct one but the fourth example: the
    error names example 3 at line 5."""
    good = '{"gold": 0, "logits": [2.0, 0.0, 0.0, 0.0], "predicted": 0}'
    bad = '{"gold": 0, "logits": [0.0, 2.0, 0.0, 0.0], "predicted": 0}'
    path = _write_lines(tmp_path, [good, good, good, bad, good, bad])
    with pytest.raises(ArgmaxMismatch) as exc:
        load_log(path)
    assert exc.value.example_index == 3 and str(exc.value).endswith(f"(line 5 of {path})")
    _assert_loads_like_per_line_loader(path)


def test_an_example_line_equal_to_the_header_fails_at_its_own_line(tmp_path):
    path = _write_lines(tmp_path, ['{"gold": 0, "predicted": 0}', _HEADER_K % 4,
                                   '{"gold": 0, "predicted": 0}', _HEADER_K % 4])
    with pytest.raises(MalformedRecord) as exc:
        load_log(path)
    assert exc.value.line_number == 3
    _assert_loads_like_per_line_loader(path)


def test_one_record_in_many_spellings_matches_per_line_loader(tmp_path):
    """Other key orders, spacing and a trailing carriage return: distinct texts of
    one record, each repeated."""
    spellings = ['{"gold": 2, "predicted": 3}', '{"predicted": 3, "gold": 2}',
                 '{"gold":2,"predicted":3}', ' {"gold": 2 ,  "predicted": 3}\t',
                 '{"gold": 2, "predicted": 3}\r', '{"gold": 2.0, "predicted": 3}']
    path = _write_lines(tmp_path, spellings * 3 + spellings[::-1])
    log = load_log(path)
    _assert_same_log(log, _oracle_load_log(path))
    assert log.gold.tolist() == [2] * 24 and log.predicted.tolist() == [3] * 24


def test_repeated_saturated_logit_rows_match_per_line_loader(tmp_path, rng):
    """Rows at the float range's edges, ties and signed zeros, each on many lines,
    load bit for bit."""
    rows = [([1e308, -1e308, 0.0, -0.0], 0), ([5e-324, -5e-324, 0.0, -0.0], 0),
            ([-0.0, 0.0, 0.0, -1.7976931348623157e308], 0), ([3.0, 3.0, 3.0, 3.0], 0),
            ([-1000.0, 1000.0, 999.9999999999999, -1e-300], 1),
            ([1.7976931348623157e308] * 3 + [2.2250738585072014e-308], 0)]
    lines = [json.dumps({"gold": int(g), "logits": rows[i][0], "predicted": rows[i][1]},
                        sort_keys=True)
             for i, g in zip(rng.integers(0, len(rows), 200), rng.integers(0, 4, 200))]
    path = _write_lines(tmp_path, lines)
    _assert_same_log(load_log(path), _oracle_load_log(path))


def test_each_distinct_short_line_is_decoded_once(tmp_path, monkeypatch, rng):
    """A 1,000-line labels-only log at k = 4 has at most k * k + 1 distinct lines, and
    one decode of them and their separators yields at most 2 (k * k + 1) - 1 values."""
    k = 4
    path = _write_lines(tmp_path, _labels_lines(rng, 1000, k), k)
    expected = _oracle_load_log(path)
    decoded, loads = [], json.loads

    def counting_loads(text, *args, **kwargs):
        value = loads(text, *args, **kwargs)
        decoded.append(len(value) if isinstance(value, list) else 1)
        return value

    monkeypatch.setattr(datamodel.json, "loads", counting_loads)
    monkeypatch.setattr(datamodel, "_scan", _must_not_run)  # nor line by line
    _assert_same_log(load_log(path), expected)
    assert 0 < sum(decoded) <= 2 * (k * k + 1) - 1


def _set(line, **fields):
    rec = json.loads(line)
    rec.update(fields)
    return json.dumps(rec)


def _drop(line, key):
    rec = json.loads(line)
    del rec[key]
    return json.dumps(rec)


def _nan_first_logit(line):
    rec = json.loads(line)
    rec["logits"][0] = float("nan")
    return json.dumps(rec)


# (log kind, {line index: new text or a function of the old line}); index 0 is the header
_CORRUPTIONS = {
    "not json": ("logits", {5: "not json"}),
    "truncated last record": ("logits", {40: lambda l: l[:-7]}),
    "array record": ("no logits", {3: "[0, 1]"}),
    "number record": ("no logits", {7: "17"}),
    "missing gold": ("no logits", {4: lambda l: _drop(l, "gold")}),
    "string gold": ("logits", {9: lambda l: _set(l, gold="1")}),
    "bool predicted": ("no logits", {9: lambda l: _set(l, predicted=False)}),
    "fractional gold": ("no logits", {12: lambda l: _set(l, gold=1.5)}),
    "huge float predicted": ("logits", {30: lambda l: _set(l, predicted=1e29)}),
    "huge int gold": ("no logits", {40: lambda l: _set(l, gold=10**29)}),
    "logits go missing": ("logits", {6: lambda l: _drop(l, "logits")}),
    "logits appear": ("no logits", {6: lambda l: _set(l, logits=[0.0, 1.0, 2.0])}),
    "logit width": ("logits", {11: lambda l: _set(l, logits=[0.0, 1.0])}),
    "null logits": ("logits", {2: lambda l: _set(l, logits=None)}),
    "scalar logits": ("logits", {2: lambda l: _set(l, logits=0.5)}),
    "nested logits": ("logits", {2: lambda l: _set(l, logits=[[0.5, 1.0, 2.0]])}),
    "logit past the float range": ("logits", {8: lambda l: _set(l, logits=[1, 2, 10**400])}),
    "argmax mismatch": ("logits", {14: lambda l: _set(l, predicted=(json.loads(l)["predicted"]
                                                                    + 1) % 3)}),
    "gold out of range": ("no logits", {20: lambda l: _set(l, gold=3)}),
    "nan logit": ("logits", {21: _nan_first_logit}),
    "qa n_tokens string": ("qa", {3: lambda l: _set(l, n_tokens="4")}),
    "qa logit count": ("qa", {5: lambda l: _set(l, end_logits=json.loads(l)["end_logits"][1:])}),
    "qa missing gold_end": ("qa", {7: lambda l: _drop(l, "gold_end")}),
    "qa pred_start below int64": ("qa", {9: lambda l: _set(l, pred_start=-(2**63) - 1)}),
    "qa inverted gold span": ("qa", {11: lambda l: _set(l, gold_start=2, gold_end=1)}),
    "header missing task": ("no logits", {0: lambda l: _drop(l, "task")}),
    "header unknown task": ("logits", {0: lambda l: _set(l, task="ranking")}),
    "header n_classes": ("logits", {0: lambda l: _set(l, n_classes="3")}),
    "header not json": ("qa", {0: "{"}),
    "deep nesting": ("no logits", {3: '{"gold": ' + "[" * 100_000}),
    "too many digits": ("no logits", {3: '{"gold": ' + "1" * 5000 + ', "predicted": 0}'}),
    "parse error after a bad field": ("logits", {4: lambda l: _set(l, gold=None), 9: "{"}),
    "bad field after a parse error": ("logits", {9: lambda l: _set(l, gold=None), 4: "{"}),
    "bad predicted before bad gold": ("no logits", {9: lambda l: _set(l, gold="x"),
                                                    4: lambda l: _set(l, predicted="x")}),
    "width before a later bad gold": ("logits", {3: lambda l: _set(l, logits=[1.0]),
                                                 5: lambda l: _set(l, gold="x")}),
    "presence after an earlier bad gold": ("no logits", {6: lambda l: _set(l, logits=[1.0]),
                                                         4: lambda l: _set(l, gold=2.5)}),
    "qa bad index after a logit count": ("qa", {8: lambda l: _set(l, start_logits=[1.0]),
                                                 20: lambda l: _set(l, pred_end=True)}),
    # rejected by the per-line loader, and by a loader that parsed the joined lines would not be
    "record split across two lines": ("no logits", {
        5: '{"gold": 0, "predicted": 0}, {"gold": 1, "predicted": 1, "x": [1', 6: "2]}"}),
    # accepted by one decode of the joined lines without its scan for "null" (the first),
    # or without its check that every odd item is a separator's None (the second)
    "null in a record split across two lines": ("no logits", {
        5: '{"gold": 0, "predicted": 0}, null, {"gold": 1, "predicted": 1, "x": [[1', 6: "2]]}"}),
    "split record beside two records on a line": ("no logits", {
        5: '{"gold": 0, "predicted": 0, "x": [1', 6: lambda l: "2]}, " + l + ", " + l}),
    "two records on one line": ("no logits", {5: lambda l: l + " " + l}),
    "form feed before a record": ("logits", {7: lambda l: "\f" + l}),
    "nbsp before a record": ("qa", {7: lambda l: "\xa0" + l}),
    "nbsp after a record": ("no logits", {7: lambda l: l + "\xa0"}),
}


@pytest.mark.parametrize("name", sorted(_CORRUPTIONS))
def test_load_log_corruption_matches_per_line_loader(tmp_path, name):
    """The same exception type, and the same line (or example index), as the
    per-line loader: the first bad line in the file wins."""
    kind, edits = _CORRUPTIONS[name]
    _, lines = _log_lines(tmp_path, kind, 7)
    for i, edit in edits.items():
        lines[i] = edit(lines[i]) if callable(edit) else edit
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ToolkitError) as expected:
        _oracle_load_log(path)
    with pytest.raises(type(expected.value)) as exc:
        load_log(path)
    for attr in ("line_number", "example_index"):
        assert getattr(exc.value, attr, None) == getattr(expected.value, attr, None)


# --- every loaded log owns its labels ---

def _synth_manifest(tmp_path):
    config = SynthConfig(n_models=3, n_examples_id=60, n_examples_ood=40, seed=5)
    return write_ensemble(config, tmp_path / "ens")["manifest"]


def _qa_manifest(tmp_path, rng):
    """Three QA models on two splits; the logs of a split have equal gold spans."""
    entries = []
    for split_id, gold in (("qa_id", [(1, 2), (0, 0), (3, 5)]), ("qa_ood", [(2, 4), (1, 1)])):
        for m in range(3):
            spans = [tuple(sorted(rng.integers(0, 6, 2).tolist())) for _ in gold]
            log = make_span_log(spans, gold, n_tokens=6, model_id=f"m{m}", split_id=split_id,
                                rng=rng)
            save_log(log, tmp_path / f"{split_id}-{m}.jsonl")
            entries.append(ManifestEntry(f"m{m}", split_id, f"{split_id}-{m}.jsonl"))
    save_manifest(Manifest(FORMAT_VERSION, TASK_EXTRACTIVE_QA, METRIC_F1, entries),
                  tmp_path / "manifest.json")
    return str(tmp_path / "manifest.json")


def _split_manifests(manifest, keeps):
    """Manifests next to ``manifest``, each holding the entries its ``keep`` accepts."""
    doc = json.loads(open(manifest).read())
    paths = []
    for name, keep in keeps:
        path = os.path.join(os.path.dirname(manifest), name)
        with open(path, "w") as fh:
            json.dump(dict(doc, entries=[e for e in doc["entries"] if keep(e)]), fh)
        paths.append(path)
    return paths


@pytest.mark.parametrize("per_split", [False, True], ids=["one-manifest", "per-split-manifests"])
@pytest.mark.parametrize("task", ["classification", "qa"])
def test_every_loaded_log_owns_a_writable_gold(tmp_path, rng, task, per_split):
    if task == "classification":
        manifest, splits = _synth_manifest(tmp_path), ("synth_id", "synth_ood")
    else:
        manifest, splits = _qa_manifest(tmp_path, rng), ("qa_id", "qa_ood")
    paths = [manifest, manifest]
    if per_split:
        paths = _split_manifests(manifest, [(f"{split}.json", lambda e, split=split:
                                             e["split_id"] == split) for split in splits])
    pair = load_split_pair(*paths)
    logs = pair.id_logs + pair.ood_logs
    assert [log.split_id for log in logs] == [splits[0]] * 3 + [splits[1]] * 3
    if task == "classification":  # 4 classes: labels load in the narrow dtype
        assert {(log.gold.dtype.name, log.predicted.dtype.name) for log in logs} == {("int8", "int8")}
    else:
        assert pair.ood_logs[0].gold.tolist() == [[2, 4], [1, 1]]
    assert len({id(log.gold) for log in logs}) == len(logs)
    before = [log.gold.copy() for log in logs]
    for log in logs:  # a shared or read-only array fails here or below
        assert log.gold.flags.writeable
        log.gold += 1
    for log, gold in zip(logs, before):
        assert (log.gold == gold + 1).all()


# --- loaded labels in the narrowest signed dtype for n_classes ---

@pytest.mark.parametrize("n_classes, dtype", [
    (2, np.int8), (128, np.int8), (129, np.int16), (32768, np.int16), (32769, np.int32),
    (2**31 + 1, np.int64)])
def test_loaded_labels_take_the_narrowest_signed_dtype(tmp_path, n_classes, dtype):
    """The extreme labels 0 and n_classes - 1 keep their values in the narrow dtype,
    and the loaded log still passes validate_log."""
    top = n_classes - 1
    golds, preds = [0, top, 1, top], [top, 0, top, 1]
    path = tmp_path / "log.jsonl"
    path.write_text("\n".join(json.dumps(rec) for rec in [
        {"task": "classification", "model_id": "m", "split_id": "s", "n_classes": n_classes},
        *({"gold": g, "predicted": p} for g, p in zip(golds, preds))]) + "\n")
    log = load_log(path)
    assert log.gold.dtype == log.predicted.dtype == dtype
    assert log.gold.tolist() == golds and log.predicted.tolist() == preds
    validate_log(log)
    _assert_same_log(log, _oracle_load_log(path))


@pytest.mark.parametrize("key", ["gold", "predicted"])
@pytest.mark.parametrize("value", [257, -255, 2**15 + 1])
def test_an_out_of_range_label_raises_before_it_could_wrap(tmp_path, key, value):
    """257, -255 and 2**15 + 1 each read 1 as int8, the dtype of 4 classes: each still
    raises the range error with its own value and line."""
    path = tmp_path / "log.jsonl"
    path.write_text("\n".join(json.dumps(rec) for rec in [
        {"task": "classification", "model_id": "m", "split_id": "s", "n_classes": 4},
        {"gold": 0, "predicted": 0, key: value}, {"gold": 1, "predicted": 1}]) + "\n")
    with pytest.raises(RangeViolation) as exc:
        load_log(path)
    assert exc.value.example_index == 0
    assert str(exc.value) == (f"index out of range at example 0: {key} {value} not in [0, 4) "
                              f"(line 2 of {path})")


@pytest.mark.parametrize("n_classes", [4, 300])
def test_reports_of_narrow_labels_equal_those_of_int64_labels(tmp_path, n_classes):
    """Blind and scored reports on a loaded ensemble are byte-identical to the reports
    on the same logs with their labels cast back to int64."""
    config = SynthConfig(n_models=4, n_examples_id=80, n_examples_ood=60,
                         n_classes=n_classes, seed=3)
    manifest = write_ensemble(config, tmp_path / "ens")["manifest"]
    narrow, wide = (load_split_pair(manifest, manifest) for _ in range(2))
    for log in wide.id_logs + wide.ood_logs:
        log.gold, log.predicted = log.gold.astype(np.int64), log.predicted.astype(np.int64)
    assert narrow.id_logs[0].predicted.dtype == np.min_scalar_type(-n_classes)
    for mode in (False, True):
        options = ReportOptions(evaluation_mode=mode)
        assert build_report(narrow, options=options).to_json() == \
            build_report(wide, options=options).to_json()


# --- errors name the file ---

def test_example_errors_name_the_file_and_line_of_the_example(tmp_path):
    """The type and example index stay; the message adds the file and the line (the
    header's when the error is about the whole log)."""
    qa = tmp_path / "qa.jsonl"
    qa.write_text(json.dumps({"task": "extractive_qa", "model_id": "m", "split_id": "s"})
                  + "\n\n" + json.dumps(_qa_record()) + "\n"
                  + json.dumps(_qa_record(start_logits=[1.0, 0.0, 0.0])) + "\n")
    with pytest.raises(LengthViolation) as exc:
        load_log(qa)
    assert exc.value.example_index == 1
    assert str(exc.value) == f"vector length mismatch at example 1 (line 4 of {qa})"
    one_class = tmp_path / "one_class.jsonl"
    one_class.write_text("\n" + json.dumps({"task": "classification", "model_id": "m",
                                             "split_id": "s", "n_classes": 1})
                         + '\n{"gold": 0, "predicted": 0}\n')
    with pytest.raises(RangeViolation) as exc:
        load_log(one_class)
    assert exc.value.example_index == -1
    assert str(exc.value) == f"index out of range in the log: n_classes 1 < 2 (line 2 of {one_class})"
    first = tmp_path / "first.jsonl"
    first.write_text(json.dumps({"task": "classification", "model_id": "m", "split_id": "s",
                                 "n_classes": 2})
                     + '\n{"gold": 0, "logits": [0.0, 1.0], "predicted": 0}\n')
    with pytest.raises(ArgmaxMismatch) as exc:
        load_log(first)
    assert str(exc.value) == ("stored prediction disagrees with logit argmax at example 0 "
                              f"(line 2 of {first})")


def test_whole_log_errors_are_worded_for_the_log():
    log = make_classification_log([0, 1, 2], [0, 1, 2], n_classes=4, logits=np.zeros((3, 2)))
    with pytest.raises(LengthViolation) as exc:
        validate_log(log)
    assert exc.value.example_index == -1
    assert str(exc.value) == "vector length mismatch in the log: logits shape (3, 2) != (3, 4)"


def test_load_log_reports_the_first_bad_example_not_the_first_broken_rule(tmp_path):
    """An argmax fault on line 3 wins over a gold out of range on line 6."""
    records = [{"gold": 0, "logits": [2.0, 0.0, 0.0], "predicted": 0} for _ in range(5)]
    records[1]["predicted"] = 1
    records[4]["gold"] = 7
    path = tmp_path / "two_faults.jsonl"
    path.write_text("\n".join(json.dumps(rec) for rec in [
        {"task": "classification", "model_id": "m", "split_id": "s", "n_classes": 3},
        *records]) + "\n")
    with pytest.raises(ArgmaxMismatch) as exc:
        load_log(path)
    assert exc.value.example_index == 1
    assert str(exc.value) == ("stored prediction disagrees with logit argmax at example 1 "
                              f"(line 3 of {path})")


@pytest.mark.parametrize("cls, kwargs, task", [
    (ClassificationLog, {"n_classes": 2, "gold": np.zeros(1, np.int64),
                         "predicted": np.zeros(1, np.int64)}, TASK_CLASSIFICATION),
    (SpanLog, {"examples": []}, TASK_EXTRACTIVE_QA),
])
def test_a_log_task_is_its_class_not_a_field(cls, kwargs, task):
    assert cls(model_id="m", split_id="s", **kwargs).task == task
    with pytest.raises(TypeError):
        cls(model_id="m", split_id="s", task=task, **kwargs)


def test_unreadable_file_is_a_typed_error(tmp_path, monkeypatch):
    path = tmp_path / "log.jsonl"
    path.write_text("{}\n")
    real_open = open

    def refusing_open(file, *args, **kwargs):
        if str(file) == str(path):
            raise PermissionError(13, "Permission denied", str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", refusing_open)
    for read in (load_log, read_manifest):
        with pytest.raises(UnreadableFile) as exc:
            read(path)
        assert str(exc.value) == f"cannot read {path}: Permission denied"
