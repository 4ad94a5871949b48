import json
import os

import numpy as np
import pytest

from aglkit.datamodel import (
    FORMAT_VERSION,
    METRIC_ACCURACY,
    METRIC_EXACT_MATCH,
    METRIC_F1,
    TASK_CLASSIFICATION,
    TASK_EXTRACTIVE_QA,
    Manifest,
    ManifestEntry,
    SpanExample,
    SpanLog,
    load_log,
    load_manifest,
    load_split_pair,
    read_manifest,
    save_log,
    save_manifest,
    validate_log,
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
        load_log(path, validate=False)
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
    pair = load_manifest(path)
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
        load_manifest(path)
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
        load_manifest(path)


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


def test_split_pair_length_mismatch(tmp_path, rng):
    path = _write_pair_tree(tmp_path, rng)
    # shorten one OOD log on disk
    target = tmp_path / "m2_shift.jsonl"
    lines = target.read_text().splitlines()
    target.write_text("\n".join(lines[:-5]) + "\n")
    with pytest.raises(ShapeMismatch):
        load_manifest(path)


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
    assert load_manifest(path).metric == METRIC_EXACT_MATCH
    assert load_manifest(path, metric_override=METRIC_F1).metric == METRIC_F1
    with pytest.raises(MetricTaskMismatch):
        load_manifest(path, metric_override=METRIC_ACCURACY)


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
