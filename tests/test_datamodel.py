import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aglkit import datamodel
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
)

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
    """The per-example loop validate_log ran before it checked whole arrays."""
    k = log.n_classes
    for i in range(len(log.gold)):
        g = int(log.gold[i])
        p = int(log.predicted[i])
        if not 0 <= g < k:
            raise RangeViolation(i, f"gold {g} not in [0, {k})")
        if not 0 <= p < k:
            raise RangeViolation(i, f"predicted {p} not in [0, {k})")
    for i in range(len(log.gold)):
        if argmax_lowest(log.logits[i]) != int(log.predicted[i]):
            raise ArgmaxMismatch(i)


@pytest.mark.parametrize("corruptions", [
    [("gold", 0)], [("gold", 17)], [("gold", 39)],
    [("predicted", 0)], [("predicted", 23)], [("predicted", 39)],
    [("argmax", 0)], [("argmax", 11)], [("argmax", 39)],
    [("gold", 30), ("predicted", 12)], [("predicted", 8), ("gold", 8)],
    [("argmax", 3), ("gold", 25)], [("argmax", 6), ("tie", 2)],
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
    assert pair.n_models == 3
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
    # an entry that is not an object has no line of its own
    pytest.param(f'\n  {_GOOD_ENTRY},\n  "y.jsonl"',
                 1, "entry 1 needs model_id, split_id and path", id="not-an-object"),
    # nesting the C scanner accepts but the Python one cannot follow falls back to line 1
    pytest.param('\n{"model_id": ' + "[" * 600 + "]" * 600 + ', "split_id": "a", "path": "x"}',
                 1, "entry 0: model_id must be a string", id="too-deep-to-locate"),
])
def test_manifest_entry_error_names_entry_line(tmp_path, entries, line, detail):
    path = tmp_path / "manifest.json"
    path.write_text('{"version": "1", "task": "classification",\n'
                    ' "metric": "accuracy",\n'
                    ' "entries": [' + entries + ']}\n')
    with pytest.raises(MalformedRecord) as exc:
        read_manifest(path)
    assert exc.value.line_number == line
    assert detail in str(exc.value)


@pytest.mark.parametrize("text, line, detail", [
    pytest.param('{"version": "1",\n "metric": "accuracy",\n "entries": [],\n "task":\n   "nope"}',
                 5, "unknown task 'nope'", id="task-value-below-its-key"),
    pytest.param('{"version": "1", "task": "classification",\n "metric": "accuracy",\n'
                 ' "entries": {"path": "x.jsonl"}}', 3, "entries must be a list", id="entries"),
    # a repeated key keeps its last value, and the error names that value's line
    pytest.param('{"version": "1", "task": "classification", "metric": "accuracy",\n'
                 ' "entries": [],\n "entries": 5}', 3, "entries must be a list", id="repeated-key"),
    pytest.param('\n\n["version", "task"]\n', 1, "manifest must be a JSON object", id="not-object"),
    pytest.param('{"version": "1",\n "task": "classification",\n "entries": []}',
                 1, "missing key 'metric'", id="missing-key"),
])
def test_manifest_document_error_names_value_line(tmp_path, text, line, detail):
    path = tmp_path / "bad.json"
    path.write_text(text + "\n")
    with pytest.raises(MalformedRecord) as exc:
        read_manifest(path)
    assert exc.value.line_number == line
    assert detail in str(exc.value)


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
    assert pair.n_models == 2
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
    return log


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
    _assert_same_log(expected, saved)


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
              '"x": "a,null,b"', '{"gold": 0, "predicted": 0}']
_FRAGMENT_LINES = st.one_of(st.sampled_from(["", " ", "\t", " \r"]),
                            st.lists(st.sampled_from(_FRAGMENTS), min_size=1,
                                     max_size=8).map("".join))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(_FRAGMENT_LINES, max_size=6), st.booleans())
def test_load_log_of_fragment_lines_matches_per_line_loader(lines, final_newline):
    """Lines built from pieces of records load as the per-line loader loads them."""
    header = '{"task": "classification", "model_id": "m", "split_id": "s", "n_classes": 2}'
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "log.jsonl")
        with open(path, "wb") as fh:
            fh.write(("\n".join([header, *lines]) + "\n" * final_newline).encode())
        _assert_loads_like_per_line_loader(path)


def _must_not_run(*args):
    raise AssertionError("this decoder must not run on this log")


def test_short_line_log_is_decoded_in_one_call(tmp_path, monkeypatch):
    """A saved log of 28-byte lines never reaches the per-line scanner."""
    saved, _ = _log_lines(tmp_path, "no logits", 0)
    monkeypatch.setattr(datamodel, "_scan", _must_not_run)
    _assert_same_log(load_log(tmp_path / "saved.jsonl"), saved)


def test_long_line_log_is_read_line_by_line(tmp_path, monkeypatch, rng):
    """A saved QA log of 128-token lines never reaches the one decode."""
    spans = [tuple(sorted(rng.integers(0, 128, 2))) for _ in range(10)]
    saved = make_span_log(spans, spans, n_tokens=128, rng=rng)
    save_log(saved, tmp_path / "qa.jsonl")
    monkeypatch.setattr(datamodel.json, "loads", _must_not_run)
    _assert_same_log(load_log(tmp_path / "qa.jsonl"), saved)


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
