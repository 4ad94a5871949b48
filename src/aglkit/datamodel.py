"""Core domain types, on-disk prediction-log formats, and validated ingestion.

Log files are JSON Lines: one header object followed by one object per
example. ``save_log`` writes sorted keys, ", " and ": " separators, floats in
Python's shortest round-trip repr and NaN/Infinity as ``json`` does, so
save -> load is bit-for-bit; the loader takes keys in any order. It decodes a
file of short lines with no ``null`` in one ``json.loads`` call and any other
file line by line, with the same result. Example identity is positional: logs
compared across models must have equal length.
"""

from __future__ import annotations

import json
import os
from dataclasses import InitVar, dataclass, field, fields
from functools import partial
from itertools import chain

import numpy as np

from .errors import (
    ArgmaxMismatch,
    DuplicateEntry,
    LengthViolation,
    MalformedRecord,
    MetricTaskMismatch,
    MissingFile,
    RangeViolation,
    ShapeMismatch,
)

FORMAT_VERSION = "1"

TASK_CLASSIFICATION = "classification"
TASK_EXTRACTIVE_QA = "extractive_qa"

METRIC_ACCURACY = "accuracy"
METRIC_EXACT_MATCH = "exact_match"
METRIC_F1 = "f1"

METRICS_BY_TASK = {
    TASK_CLASSIFICATION: (METRIC_ACCURACY,),
    TASK_EXTRACTIVE_QA: (METRIC_EXACT_MATCH, METRIC_F1),
}


@dataclass
class ClassificationLog:
    """One model's predictions on one classification split.

    ``logits`` is either None or an (n_examples, n_classes) float array;
    ``gold`` and ``predicted`` are int arrays of length n_examples.
    """
    model_id: str
    split_id: str
    n_classes: int
    gold: np.ndarray
    predicted: np.ndarray
    logits: np.ndarray | None = None
    task: str = TASK_CLASSIFICATION

    def __len__(self):
        return len(self.gold)


@dataclass
class SpanExample:
    """Start/end logits and span indices for one extractive-QA example: the
    record a ``SpanLog`` is built from."""
    n_tokens: int
    start_logits: np.ndarray
    end_logits: np.ndarray
    gold_start: int
    gold_end: int
    pred_start: int
    pred_end: int


@dataclass
class SpanLog:
    """One model's span predictions on one extractive-QA split.

    Built from a list of ``SpanExample`` records, or (from ``load_log``) a
    tuple of their fields as columns, each logit column flattened to (values,
    row lengths). Either is packed once:
    ``start_logits`` and ``end_logits`` are (n_examples, longest) float
    matrices whose row i holds ``n_tokens[i]`` logits and then -inf padding
    (it survives positive scaling and gets softmax weight exp(-inf) = 0);
    ``gold`` and ``predicted`` are (n_examples, 2) int [start, end] arrays.
    A record whose logit vectors do not have ``n_tokens`` entries raises
    LengthViolation.
    """
    model_id: str
    split_id: str
    examples: InitVar[list[SpanExample] | tuple]
    start_logits: np.ndarray = field(init=False)
    end_logits: np.ndarray = field(init=False)
    n_tokens: np.ndarray = field(init=False)
    gold: np.ndarray = field(init=False)
    predicted: np.ndarray = field(init=False)
    task: str = TASK_EXTRACTIVE_QA

    def __post_init__(self, examples):
        if not isinstance(examples, tuple):  # SpanExample records
            examples = [[getattr(ex, f.name) for ex in examples] for f in fields(SpanExample)]
            for i in (1, 2):
                examples[i] = np.concatenate(examples[i] or [[]]), list(map(len, examples[i]))
        n_tok, (start, start_len), (end, end_len), *spans = examples
        ints = np.array([n_tok, start_len, end_len, *spans], dtype=np.int64).T
        wrong = (ints[:, 1:3] != ints[:, :1]).any(axis=1)
        if wrong.any():
            raise LengthViolation(int(np.argmax(wrong)))
        self.n_tokens = ints[:, 0].copy()
        self.gold, self.predicted = ints[:, 3:5].copy(), ints[:, 5:].copy()
        real = np.arange(self.n_tokens.max(initial=1)) < self.n_tokens[:, None]
        for name, values in (("start_logits", start), ("end_logits", end)):
            mat = np.full(real.shape, -np.inf)
            mat[real] = values
            setattr(self, name, mat)

    def __len__(self):
        return len(self.n_tokens)


@dataclass
class SplitPair:
    """Aligned ID and OOD logs for one ensemble, plus the scoring metric."""
    id_logs: list
    ood_logs: list
    metric: str

    @property
    def model_ids(self):
        return [log.model_id for log in self.id_logs]

    @property
    def n_models(self):
        return len(self.id_logs)


@dataclass
class ManifestEntry:
    model_id: str
    split_id: str
    path: str


@dataclass
class Manifest:
    version: str
    task: str
    metric: str
    entries: list[ManifestEntry] = field(default_factory=list)


def validate_log(log) -> None:
    """Check every type invariant; raises the first violation found.

    Recomputes predictions from logits (argmax, ties to lowest index)
    and compares against the stored predictions.
    """
    if isinstance(log, ClassificationLog):
        k = log.n_classes
        if k < 2:
            raise RangeViolation(-1, f"n_classes {k} < 2")
        n = len(log.gold)
        if len(log.predicted) != n:
            raise LengthViolation(-1, "gold/predicted length mismatch")
        bad_gold = (log.gold < 0) | (log.gold >= k)
        bad = bad_gold | (log.predicted < 0) | (log.predicted >= k)
        if bad.any():
            i = int(np.argmax(bad))
            name, value = (("gold", log.gold[i]) if bad_gold[i]
                           else ("predicted", log.predicted[i]))
            raise RangeViolation(i, f"{name} {value} not in [0, {k})")
        if log.logits is not None:
            if log.logits.shape != (n, k):
                raise LengthViolation(-1, f"logits shape {log.logits.shape} != ({n}, {k})")
            finite = np.isfinite(log.logits).all(axis=1)
            if not finite.all():
                raise RangeViolation(int(np.argmin(finite)), "non-finite logit")
            # np.argmax breaks ties to the lowest index
            mismatch = np.argmax(log.logits, axis=1) != log.predicted
            if mismatch.any():
                raise ArgmaxMismatch(int(np.argmax(mismatch)))
    elif isinstance(log, SpanLog):
        n_tok = log.n_tokens
        (gs, ge), (ps, pe) = log.gold.T, log.predicted.T
        padding = np.arange(log.start_logits.shape[1]) >= n_tok[:, None]
        finite = np.isfinite(log.start_logits) & np.isfinite(log.end_logits) | padding
        # the rules for one example, in order: the first example that breaks
        # any of them raises its first broken rule
        checks = (
            (n_tok < 1, lambda i: RangeViolation(i, f"n_tokens {n_tok[i]} < 1")),
            (~finite.all(axis=1), lambda i: RangeViolation(i, "non-finite logit")),
            (~((0 <= gs) & (gs <= ge) & (ge < n_tok)),
             lambda i: RangeViolation(i, "gold span out of range")),
            (~((0 <= ps) & (ps < n_tok) & (0 <= pe) & (pe < n_tok)),
             lambda i: RangeViolation(i, "predicted span out of range")),
            ((np.argmax(log.start_logits, axis=1) != ps)
             | (np.argmax(log.end_logits, axis=1) != pe), ArgmaxMismatch),
        )
        failed = np.array([bad for bad, _ in checks])
        if failed.any():
            i = int(np.argmax(failed.any(axis=0)))
            raise checks[int(np.argmax(failed[:, i]))][1](i)
    else:
        raise TypeError(f"unsupported log type {type(log)!r}")


# --- JSON Lines log I/O ---

def save_log(log, path) -> None:
    """Write ``log`` in the layout above from whole columns: one ``%d`` template per
    record, every float through the json encoder; unequal columns raise ValueError."""
    if isinstance(log, ClassificationLog):
        header = {"model_id": log.model_id, "split_id": log.split_id,
                  "task": log.task, "n_classes": log.n_classes}
        columns, template = [log.gold.tolist(), log.predicted.tolist()], '{"gold": %d, "predicted": %d}'
        if log.logits is not None:  # one encoder call, split into rows; "[]" has no rows
            logits = np.asarray(log.logits, dtype=np.float64).tolist()
            columns.insert(1, json.dumps(logits)[2:-2].split("], [") if logits else [])
            template = '{"gold": %d, "logits": [%s], "predicted": %d}'
    elif isinstance(log, SpanLog):
        header = {"model_id": log.model_id, "split_id": log.split_id, "task": log.task}
        n_tok = log.n_tokens.tolist()
        (gs, ge), (ps, pe) = log.gold.T.tolist(), log.predicted.T.tolist()
        ends, starts = ([json.dumps(row[:n].tolist()) for row, n in zip(rows, n_tok)]
                        for rows in (log.end_logits, log.start_logits))
        columns = [ends, ge, gs, n_tok, pe, ps, starts]
        template = ('{"end_logits": %s, "gold_end": %d, "gold_start": %d, "n_tokens": %d, '
                    '"pred_end": %d, "pred_start": %d, "start_logits": %s}')
    else:
        raise TypeError(f"unsupported log type {type(log)!r}")
    records = (template % values for values in zip(*columns, strict=True))
    with open(path, "w") as fh:
        fh.write("\n".join([json.dumps(header, sort_keys=True), *records]) + "\n")


def _read_text(path) -> str:
    """The file's text; MalformedRecord at the line of a byte that is not UTF-8."""
    if not os.path.isfile(path):
        raise MissingFile(path)
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedRecord(path, data.count(b"\n", 0, exc.start) + 1,
                              f"not UTF-8: {exc.reason}") from exc


_scan = json.JSONDecoder().scan_once  # the C scanner: one JSON value from an index

# Files whose mean line is this many characters or more are read line by line. One
# json.loads of the whole file pays only where the fixed cost of each record dominates:
# an in-process sweep of _records (min of 31 runs) timed it at 0.68-0.71 of the
# per-line loop at 28 B per line, 0.92 at 102 B, 1.01 at 164 B, and 1.05-1.25 from
# 1.3 to 20 KB, where the extra passes over the text cost time and memory.
_ONE_DECODE_MAX_MEAN_LINE = 1024


def _records(path):
    """Line numbers and objects of the non-blank lines up to the first that is not
    one JSON object, and that line's MalformedRecord (or None) to raise after them.

    A file of short lines with no ``null`` in it is decoded in one ``json.loads``
    call, with ``,null,`` put before every line break but a final one. JSON strings
    hold no raw line break and the text no ``null`` of its own, so n - 1 top-level
    ``None`` between n objects means each line held exactly one object. Any other
    outcome falls back to the per-line loop, which alone reports errors."""
    text = _read_text(path)
    n = text.count("\n") + (not text.endswith("\n"))  # a final "\n" ends the last line
    if len(text) < _ONE_DECODE_MAX_MEAN_LINE * n and "null" not in text:
        joined = "[" + text.replace("\n", ",null,\n", n - 1) + "]"
        del text  # one copy of the file at a time
        try:
            items = json.loads(joined)
        except (ValueError, RecursionError):
            items = []
        del joined
        records = items[::2]
        if (len(items) == 2 * n - 1 and items[1::2] == [None] * (n - 1)
                and set(map(type, records)) == {dict}):
            return list(range(1, n + 1)), records, None
        del items, records
        text = _read_text(path)
    linenos, records = [], []
    # split on "\n" only: JSON strings may hold other line breaks such as U+2028
    lines = text.split("\n")[::-1]  # popped, so a line is freed once parsed
    del text
    for lineno in range(1, len(lines) + 1):
        line = lines.pop()
        body = line.strip(" \t\r")  # JSON whitespace only: a record is alone on its line
        try:
            rec, end = _scan(body, 0)
            detail = None if end == len(body) and type(rec) is dict else "not one JSON object"
        except StopIteration:
            detail = "expecting a JSON value"
        except (ValueError, RecursionError) as exc:  # bad JSON, too many digits, deep nesting
            detail = str(exc)
        if detail is None:
            linenos.append(lineno)
            records.append(rec)
        elif line.strip():
            return linenos, records, MalformedRecord(path, lineno, detail)
    return linenos, records, None


def _require(obj, key, path, lineno, convert=None):
    """``convert(obj[key])``; MalformedRecord if the key is missing or bad."""
    if key not in obj:
        raise MalformedRecord(path, lineno, f"missing key {key!r}")
    if convert is None:
        return obj[key]
    try:
        return convert(obj[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise MalformedRecord(path, lineno, f"bad {key!r}: {exc}") from exc


_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _int64(value) -> int:
    """A JSON number with an integral value that fits in int64 (2.0 passes, 1.9 does not)."""
    if type(value) is not int:  # exact type: bools are ints too
        if not (type(value) is float and value.is_integer()):
            raise ValueError(f"{value!r} is not an integer")
        value = int(value)
    if not _INT64_MIN <= value <= _INT64_MAX:
        raise OverflowError(f"{value} does not fit in int64")
    return value


def _ints(column) -> np.ndarray:
    """int64 array of a column of JSON integers; one value at a time only if some is not an int."""
    if set(map(type, column)) != {int}:
        column = [_int64(value) for value in column]
    return np.array(column, dtype=np.int64)  # OverflowError beyond int64


def _floats(rows, width=None):
    """(float64 values, row lengths) of a column of lists of JSON numbers, flattened
    once; with ``width``, every list must have that many."""
    if set(map(type, rows)) - {list} or set(map(type, chain.from_iterable(rows))) - {float, int}:
        raise ValueError("expected a list of numbers")  # not a list, or a str, bool or null in it
    values = np.fromiter(chain.from_iterable(rows), np.float64)
    lengths = np.fromiter(map(len, rows), np.int64, len(rows))
    if width is not None and (lengths != width).any():
        raise ValueError(f"logit width {lengths[np.argmax(lengths != width)]} != n_classes {width}")
    return values, lengths


def _columns(path, linenos, records, builds, bad):
    """The records' fields, each checked and converted as a whole column by ``build``
    (a key whose ``build`` is None must be in no record). When a build fails, each
    record's fields are checked in turn, so the first bad line raises, then ``bad``."""
    try:
        columns = []
        for key, build in builds:
            if build is None and any(key in rec for rec in records):
                raise KeyError(key)
            columns.append(None if build is None else build([rec[key] for rec in records]))
    except (KeyError, TypeError, ValueError, OverflowError):
        for rec, lineno in zip(records, linenos):
            for key, build in builds:
                if build is None and key in rec:
                    raise MalformedRecord(path, lineno, f"inconsistent presence of {key}") from None
                if build is not None:
                    _require(rec, key, path, lineno, lambda value: build([value]))
        raise
    if bad is not None:
        raise bad
    return tuple(columns)


def load_log(path):
    """Load and validate one JSON Lines log file, one JSON object per line and the
    header first. An error names the first bad line."""
    linenos, records, bad = _records(path)
    if not records:
        raise bad or MalformedRecord(path, 1, "empty file")
    head_no, header = linenos.pop(0), records.pop(0)
    task = _require(header, "task", path, head_no)
    model_id = _require(header, "model_id", path, head_no)
    split_id = _require(header, "split_id", path, head_no)
    if task == TASK_CLASSIFICATION:
        k = _require(header, "n_classes", path, head_no, _int64)
        # logits in the first record, then in every record, or in none
        logits = partial(_floats, width=k) if records and "logits" in records[0] else None
        gold, predicted, logits = _columns(
            path, linenos, records, (("gold", _ints), ("predicted", _ints), ("logits", logits)), bad)
        log = ClassificationLog(model_id=model_id, split_id=split_id, n_classes=k,
                                gold=gold, predicted=predicted,
                                logits=None if logits is None else logits[0].reshape(len(gold), k))
    elif task == TASK_EXTRACTIVE_QA:
        builds = [(f.name, _floats if f.name.endswith("_logits") else _ints)
                  for f in fields(SpanExample)]
        columns = _columns(path, linenos, records, builds, bad)
        del records  # packed from the columns
        log = SpanLog(model_id=model_id, split_id=split_id, examples=columns)
    else:
        raise MalformedRecord(path, head_no, f"unknown task {task!r}")
    validate_log(log)
    return log


# --- manifests ---

def save_manifest(manifest: Manifest, path) -> None:
    doc = {"version": manifest.version, "task": manifest.task, "metric": manifest.metric,
           "entries": [{"model_id": e.model_id, "split_id": e.split_id, "path": e.path}
                       for e in manifest.entries]}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _line_of(text, key, k=None) -> int:
    """Line on which the manifest's ``key`` value starts or, given ``k``, on which the
    k-th object of that list opens (1 if it is not an object or cannot be located).
    Only a bad manifest pays for this second decode."""
    starts = {}  # id() of each decoded object -> {None: index of its "{", key: its value's}

    def parse_object(s_and_end, strict, scan_once, *args):
        values = []  # where each of this object's values starts, in order

        def scan(s, idx):
            values.append(idx)
            return scan_once(s, idx)
        pairs, end = json.decoder.JSONObject(s_and_end, strict, scan, None, list, *args[2:])
        obj = dict(pairs)  # a repeated key keeps its last value, and here its last start
        starts[id(obj)] = {None: s_and_end[1] - 1, **{n: i for (n, _), i in zip(pairs, values)}}
        return obj, end

    decoder = json.JSONDecoder()
    decoder.parse_object = parse_object
    decoder.scan_once = json.scanner.py_make_scanner(decoder)  # the C scanner takes no hook
    try:
        doc = decoder.decode(text)
    except RecursionError:  # nesting the C scanner accepts can be too deep for the Python one
        return 1
    if k is None:
        return text.count("\n", 0, starts[id(doc)][key]) + 1
    entry = doc[key][k]
    return text.count("\n", 0, starts[id(entry)][None]) + 1 if isinstance(entry, dict) else 1


def read_manifest(path) -> Manifest:
    """Parse a manifest file without loading the logs it references."""
    text = _read_text(path)
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, too many digits, deep nesting
        raise MalformedRecord(path, getattr(exc, "lineno", 1), str(exc)) from exc
    if not isinstance(doc, dict):
        raise MalformedRecord(path, 1, "manifest must be a JSON object")
    for key in ("version", "task", "metric", "entries"):
        if key not in doc:
            raise MalformedRecord(path, 1, f"missing key {key!r}")
    if doc["version"] != FORMAT_VERSION:
        raise MalformedRecord(path, _line_of(text, "version"), f"unsupported version "
                              f"{doc['version']!r} (expected {FORMAT_VERSION!r})")
    task = doc["task"]
    metric = doc["metric"]
    if not isinstance(task, str) or task not in METRICS_BY_TASK:
        raise MalformedRecord(path, _line_of(text, "task"), f"unknown task {task!r}")
    if metric not in METRICS_BY_TASK[task]:
        raise MetricTaskMismatch(metric, task)
    if not isinstance(doc["entries"], list):
        raise MalformedRecord(path, _line_of(text, "entries"), "entries must be a list")
    entries = []
    seen = set()
    for k, e in enumerate(doc["entries"]):
        if not (isinstance(e, dict) and {"model_id", "split_id", "path"} <= e.keys()):
            raise MalformedRecord(path, _line_of(text, "entries", k),
                                  f"entry {k} needs model_id, split_id and path")
        for key in ("model_id", "split_id", "path"):
            if not isinstance(e[key], str):
                raise MalformedRecord(path, _line_of(text, "entries", k),
                                      f"entry {k}: {key} must be a string")
        entry = ManifestEntry(model_id=e["model_id"], split_id=e["split_id"], path=e["path"])
        key = (entry.model_id, entry.split_id)
        if key in seen:
            raise DuplicateEntry(*key)
        seen.add(key)
        entries.append(entry)
    return Manifest(version=FORMAT_VERSION, task=task, metric=metric, entries=entries)


def load_entries(path) -> tuple[Manifest, list]:
    """Read a manifest, then load and validate the log of each entry, in entry order.
    A log whose header names another model or split than its entry raises
    ShapeMismatch, and one of another task than the manifest MetricTaskMismatch."""
    manifest = read_manifest(path)
    base_dir = os.path.dirname(os.path.abspath(path))
    logs = []
    for e in manifest.entries:
        log_path = os.path.join(base_dir, e.path)
        log = load_log(log_path)
        if log.model_id != e.model_id or log.split_id != e.split_id:
            raise ShapeMismatch(e.model_id, f"log header at {log_path} does not match manifest entry")
        if log.task != manifest.task:
            raise MetricTaskMismatch(manifest.metric, log.task)
        logs.append(log)
    return manifest, logs


def load_split_pair(id_path, ood_path, metric_override=None) -> SplitPair:
    """Load the ensemble that one manifest (passed twice) or two manifests list.

    The entries of both, ID manifest first, must name exactly two splits, each
    (model_id, split_id) once and every model in both splits. The split that
    appears first is in-distribution; models keep the order of first appearance.
    """
    loaded = [load_entries(p) for p in dict.fromkeys(map(os.path.abspath, (id_path, ood_path)))]
    manifest = loaded[0][0]
    for other, _ in loaded[1:]:
        if other.task != manifest.task:
            raise MetricTaskMismatch(manifest.metric, other.task)
    metric = metric_override or manifest.metric
    if metric not in METRICS_BY_TASK[manifest.task]:
        raise MetricTaskMismatch(metric, manifest.task)
    logs = {}
    for m, m_logs in loaded:
        for e, log in zip(m.entries, m_logs):
            if (e.model_id, e.split_id) in logs:
                raise DuplicateEntry(e.model_id, e.split_id)
            logs[e.model_id, e.split_id] = log
    splits = list(dict.fromkeys(split for _, split in logs))
    if len(splits) != 2:
        raise ShapeMismatch("*", f"manifests must reference exactly 2 splits, got {splits}")
    models = list(dict.fromkeys(model for model, _ in logs))
    for model in models:
        for split in splits:
            if (model, split) not in logs:
                raise ShapeMismatch(model, f"missing log for split {split!r}")
    if len(models) < 2:
        raise ShapeMismatch("*", f"need at least 2 models, got {len(models)}")
    id_logs, ood_logs = ([logs[model, split] for model in models] for split in splits)
    for split, split_logs in (("ID", id_logs), ("OOD", ood_logs)):
        for log in split_logs:
            if len(log) != len(split_logs[0]):
                raise ShapeMismatch(log.model_id, f"{split} log length differs from ensemble")
    ks = {getattr(log, "n_classes", None) for log in id_logs + ood_logs}
    if len(ks) != 1:
        raise ShapeMismatch("*", f"inconsistent n_classes {sorted(ks)}")
    return SplitPair(id_logs=id_logs, ood_logs=ood_logs, metric=metric)
