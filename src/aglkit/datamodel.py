"""Core domain types, on-disk prediction-log formats, and validated ingestion.

Log files are JSON Lines: one header object followed by one object per
example. ``save_log`` writes sorted keys, ", " and ": " separators, floats in
Python's shortest round-trip repr and NaN/Infinity as ``json`` does, so
save -> load is bit-for-bit; the loader takes keys in any order. It decodes a
file of short lines with no ``null`` in one ``json.loads`` call, each distinct
line once, and any other file line by line, with the same result. Every input file, a ``synth`` config
too, is read by ``_read_text``, and a bad manifest value is located by stepping
over the values before it with the C scanner that decoded them. Example identity
is positional: logs compared across models must have equal length.
"""

from __future__ import annotations

import json
import os
import re
from collections.abc import Iterable
from dataclasses import InitVar, asdict, dataclass, field, fields
from functools import partial
from itertools import chain

import numpy as np

from .errors import (
    ArgmaxMismatch,
    DuplicateEntry,
    EmptyLog,
    ExampleError,
    LengthViolation,
    MalformedRecord,
    MetricTaskMismatch,
    MissingFile,
    MissingLogits,
    RangeViolation,
    ShapeMismatch,
    UnreadableFile,
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


def _check_metric(log, metric, where=""):
    if metric not in METRICS_BY_TASK[log.task]:
        raise MetricTaskMismatch(metric, log.task, where)


@dataclass
class ClassificationLog:
    """One model's predictions on one classification split.

    ``logits`` is None or an (n_examples, n_classes) int, uint or float array; ``gold`` and
    ``predicted`` are int arrays of length n_examples, which ``load_log`` holds in
    ``np.min_scalar_type(-n_classes)``, the narrowest signed dtype that holds n_classes - 1.
    Lists become arrays by ``_array``'s rule; ``validate_log`` takes labels of an integer
    dtype, or of a float dtype with integral values. ``n_classes`` follows the loader's integer
    rule: a numpy integer or integral float becomes an int, any other value RangeViolation.
    """
    model_id: str
    split_id: str
    n_classes: int
    gold: np.ndarray
    predicted: np.ndarray
    logits: np.ndarray | None = None
    task = TASK_CLASSIFICATION  # a class attribute, not a field: the class is the task

    def __post_init__(self):
        self.n_classes = _in_memory_int(self.n_classes, -1, "n_classes")
        self.gold, self.predicted = _array(self.gold, "gold"), _array(self.predicted, "predicted")
        self.logits = None if self.logits is None else _array(self.logits, "logits")

    def __len__(self):
        return len(self.gold)

    def heads(self):
        """``((logits, gold),)``: the one softmax head; MissingLogits if ``logits`` is None."""
        if self.logits is None:
            raise MissingLogits(f"log {self.model_id!r} carries no logits")
        return ((self.logits, self.gold),)


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


class _SpanColumns(tuple):
    """``SpanExample``'s fields as columns, each logit column flattened to (values,
    row lengths): the form in which ``load_log`` hands a ``SpanLog`` its examples."""


@dataclass
class SpanLog:
    """One model's span predictions on one extractive-QA split.

    Built from any iterable of ``SpanExample`` records, or from ``load_log``'s
    ``_SpanColumns``. Either is packed once: ``start_logits`` and ``end_logits`` are
    (n_examples, longest) float matrices whose row i holds ``n_tokens[i]`` logits and
    then -inf padding (it survives positive scaling and gets softmax weight exp(-inf) = 0);
    ``gold`` and ``predicted`` are (n_examples, 2) int [start, end] arrays. A record whose
    ``n_tokens`` or span value is not an int (numpy's too) or an integral float, within
    int64, or whose logits are not numbers (``_array``'s rule, then an int, uint or float
    dtype), raises RangeViolation; one whose logit vectors do not have ``n_tokens``
    entries, LengthViolation. ``validate_log`` takes spans and ``n_tokens`` as it takes labels.
    """
    model_id: str
    split_id: str
    examples: InitVar[Iterable[SpanExample] | _SpanColumns]
    start_logits: np.ndarray = field(init=False)
    end_logits: np.ndarray = field(init=False)
    n_tokens: np.ndarray = field(init=False)
    gold: np.ndarray = field(init=False)
    predicted: np.ndarray = field(init=False)
    task = TASK_EXTRACTIVE_QA

    def __post_init__(self, examples):
        if not isinstance(examples, _SpanColumns):  # SpanExample records
            examples = list(examples)
            examples = [[getattr(ex, f.name) for ex in examples] for f in fields(SpanExample)]
            for i, record in enumerate(zip(*examples)):  # the loader's rule: no silent cast
                for f, value in zip(fields(SpanExample), record):
                    if not f.name.endswith("_logits"):
                        _in_memory_int(value, i, f.name)
                    elif _array(value, f.name, i).dtype.kind not in "iuf":  # a bool, string or None
                        raise RangeViolation(i, f"{f.name} are not numbers")
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

    def heads(self):
        """``(logits, gold)`` of the start softmax head, then of the end head."""
        return (self.start_logits, self.gold[:, 0]), (self.end_logits, self.gold[:, 1])


@dataclass
class SplitPair:
    """Aligned ID and OOD logs for one ensemble, plus the scoring metric. Construction
    checks, in order: the metric fits every log's task, at least two models, the OOD logs
    in the ID logs' model order, one length per split, one ``n_classes``, ``validate_log``."""
    id_logs: list
    ood_logs: list
    metric: str

    def __post_init__(self):
        logs = [*self.id_logs, *self.ood_logs]
        for log in logs:  # no metric scores two tasks, so every log is of one task
            _check_metric(log, self.metric)
        if len(self.id_logs) < 2:
            raise ShapeMismatch("*", f"need at least 2 models, got {len(self.id_logs)}")
        if [log.model_id for log in self.ood_logs] != self.model_ids:
            raise ShapeMismatch("*", f"OOD logs not in the ID model order {self.model_ids}")
        for split, split_logs in (("ID", self.id_logs), ("OOD", self.ood_logs)):
            for log in split_logs:
                if len(log) != len(split_logs[0]):
                    raise ShapeMismatch(log.model_id, f"{split} log length differs from ensemble")
        ks = {getattr(log, "n_classes", None) for log in logs}
        if len(ks) != 1:
            raise ShapeMismatch("*", f"inconsistent n_classes {sorted(ks)}")
        for log in logs:  # the ID logs, then the OOD logs
            validate_log(log)

    @property
    def model_ids(self):
        return [log.model_id for log in self.id_logs]


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


def _bad_rows(finite) -> np.ndarray:
    """Rows of the 2-D bool ``finite`` holding a False. The whole array is tested
    first: numpy's per-row ``all`` costs many times the elementwise ``isfinite``."""
    return np.zeros(len(finite), bool) if finite.all() else ~finite.all(axis=1)


def _integral_checks(**labels) -> list:
    """``validate_log``'s checks for a fraction or NaN (floor(x) != x, never for an integer) in
    an example, a row of a 2-D array; a dtype not int, uint or float is a whole-log error."""
    for name, values in labels.items():
        if values.dtype.kind not in "iuf":  # a bool, string or object array
            raise RangeViolation(-1, f"{name} of dtype {values.dtype} is not integral")
    return [(np.floor(v) != v if v.ndim == 1 else _bad_rows(np.floor(v) == v),
             lambda i, name=name, v=v: RangeViolation(i, f"{name} {v[i]} is not an integer"))
            for name, v in labels.items()]


def validate_log(log) -> None:
    """Check every type invariant: first the whole log's (``example_index`` -1), then
    the per-example rules in ``checks`` order, raising the first broken rule of the
    first example that breaks any. Predictions are recomputed as the logit argmax
    (ties to lowest index) and compared with the stored ones."""
    if isinstance(log, ClassificationLog):
        k, gold, pred, logits = log.n_classes, log.gold, log.predicted, log.logits
        if gold.ndim != 1 or pred.ndim != 1:
            raise LengthViolation(-1, f"gold/predicted shapes {gold.shape}/{pred.shape} not 1-D")
        n = len(gold)
        if k < 2:
            raise RangeViolation(-1, f"n_classes {k} < 2")
        checks = _integral_checks(gold=gold, predicted=pred)
        if len(pred) != n:
            raise LengthViolation(-1, "gold/predicted length mismatch")
        if logits is not None and logits.shape != (n, k):
            raise LengthViolation(-1, f"logits shape {logits.shape} != ({n}, {k})")
        if logits is not None and logits.dtype.kind not in "iuf":
            raise RangeViolation(-1, f"logits of dtype {logits.dtype} are not numbers")
        checks += [
            ((gold < 0) | (gold >= k),
             lambda i: RangeViolation(i, f"gold {gold[i]} not in [0, {k})")),
            ((pred < 0) | (pred >= k),
             lambda i: RangeViolation(i, f"predicted {pred[i]} not in [0, {k})")),
        ]
        if logits is not None:  # np.argmax breaks ties to the lowest index
            checks += [(_bad_rows(np.isfinite(logits)),
                        lambda i: RangeViolation(i, "non-finite logit")),
                       (np.argmax(logits, axis=1) != pred, ArgmaxMismatch)]
    elif isinstance(log, SpanLog):
        n_tok = log.n_tokens
        checks = _integral_checks(n_tokens=n_tok, gold=log.gold, predicted=log.predicted)
        (gs, ge), (ps, pe) = log.gold.T, log.predicted.T
        padding = np.arange(log.start_logits.shape[1]) >= n_tok[:, None]
        finite = np.isfinite(log.start_logits) & np.isfinite(log.end_logits) | padding
        checks += [
            (n_tok < 1, lambda i: RangeViolation(i, f"n_tokens {n_tok[i]} < 1")),
            (_bad_rows(finite), lambda i: RangeViolation(i, "non-finite logit")),
            (~((0 <= gs) & (gs <= ge) & (ge < n_tok)),
             lambda i: RangeViolation(i, "gold span out of range")),
            (~((0 <= ps) & (ps < n_tok) & (0 <= pe) & (pe < n_tok)),
             lambda i: RangeViolation(i, "predicted span out of range")),
            ((np.argmax(log.start_logits, axis=1) != ps)
             | (np.argmax(log.end_logits, axis=1) != pe), ArgmaxMismatch),
        ]
    else:
        raise TypeError(f"unsupported log type {type(log)!r}")
    failed = np.array([bad for bad, _ in checks])
    if failed.any():
        i = int(np.argmax(failed.any(axis=0)))
        raise checks[int(np.argmax(failed[:, i]))][1](i)


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


def _read_text(path, line_end=rb"\n") -> str:
    """The file's text; UnreadableFile if the OS refuses it, MalformedRecord at the
    line of a byte that is not UTF-8, each line ending at a match of ``line_end``."""
    if not os.path.isfile(path):
        raise MissingFile(path)
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise UnreadableFile(path, exc.strerror or str(exc)) from exc
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedRecord(path, len(re.findall(line_end, data[:exc.start])) + 1,
                              f"not UTF-8: {exc.reason}") from exc


_scan = json.JSONDecoder().scan_once  # the C scanner: one JSON value from an index

# Files whose mean line is this many characters or more are read line by line. One
# json.loads of a file's distinct lines pays where lines repeat, or where the fixed cost
# of each record dominates: an in-process sweep of _records (min of 31 runs, 2 CPUs)
# timed it at 0.27 of the per-line loop on 4,000 labels-only lines of 28 B at 4 classes
# (16 distinct), 0.94 on 2,000 lines of 123 B with logits (1,669 distinct), 1.06-1.08
# on all-distinct lines of 32 to 163 B, and 1.14-1.15 from 1.4 to 19 KB, where the
# extra passes over the text cost time and memory.
_ONE_DECODE_MAX_MEAN_LINE = 1024


def _records(path):
    """Line numbers of the non-blank lines up to the first that is not one JSON
    object; the first line's object, then the other lines' objects; the ``np.intp``
    index that gives each other line its object among those; and the bad line's
    MalformedRecord (or None) to raise after them.

    A file of short lines with no ``null`` in it is decoded in one ``json.loads``
    call of its first line and of each distinct other line, once each, with
    ``,null,`` put between them before their line breaks. JSON strings hold no raw
    line break and the text no ``null`` of its own, so m - 1 top-level ``None``
    between m objects means each line held exactly one object. The first line (the
    header) is kept out of the distinct lines, so an example line equal to it is an
    object of its own. Any other outcome falls back to the per-line loop over the
    same text, which decodes every line, gives the identity index, and alone
    reports errors."""
    text = _read_text(path)
    n = text.count("\n") + (not text.endswith("\n"))  # a final "\n" ends the last line
    if len(text) < _ONE_DECODE_MAX_MEAN_LINE * n and "null" not in text:
        head, *lines = text.split("\n")[:n]
        distinct = {line: i for i, line in enumerate(dict.fromkeys(lines))}
        try:
            records = json.loads("[" + ",null,\n".join([head, *distinct]) + "]")
        except (ValueError, RecursionError):
            records = []
        m = len(distinct) + 1
        if (len(records) == 2 * m - 1 and records[1::2] == [None] * (m - 1)
                and set(map(type, records[::2])) == {dict}):
            rows = np.fromiter(map(distinct.__getitem__, lines), np.intp, n - 1)
            return list(range(1, n + 1)), records[::2], rows, None
    linenos, records, bad = [], [], None
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
            bad = MalformedRecord(path, lineno, detail)
            break
    return linenos, records, np.arange(max(len(records) - 1, 0), dtype=np.intp), bad


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


def _in_memory_int(value, example_index: int, name: str) -> int:
    """``_int64`` of a value built in memory, a numpy scalar too; RangeViolation otherwise."""
    try:
        return _int64(value.item() if isinstance(value, np.generic) else value)
    except (ValueError, OverflowError) as exc:
        raise RangeViolation(example_index, f"{name}: {exc}") from None


def _array(values, name, example=None) -> np.ndarray:
    """An array unchanged; a list or tuple as an array. Unequal rows raise LengthViolation, a
    bool among the numbers RangeViolation at ``example``, else at its entry or row."""
    try:
        array = np.asarray(values)
    except ValueError as exc:  # nested lists of unequal length
        raise LengthViolation(-1, "ragged rows") from exc
    bad = ([] if not isinstance(values, (list, tuple)) else  # an array in constant time
           [*map({bool, np.bool_}.__contains__, map(type, values))] if array.ndim == 1 else
           [row.dtype == bool if isinstance(row, np.ndarray)  # a row by its dtype or entries
            else not {bool, np.bool_}.isdisjoint(map(type, row)) for row in values])
    if True in bad and array.dtype.kind in "iuf":  # a list of bools alone stays a bool array
        i = bad.index(True)
        if not name.endswith("logits"):
            _in_memory_int(values[i], i, name)
        raise RangeViolation(i if example is None else example, f"{name} are not numbers")
    return array


def _str(value) -> str:
    if type(value) is not str:
        raise TypeError(f"{value!r} is not a string")
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


def _columns(path, linenos, records, rows, builds, bad):
    """The fields of ``records``, each checked and converted as a whole column by
    ``build`` (a key whose ``build`` is None must be in no record). When a build
    fails, the record ``rows`` gives each line is checked in turn, lines in file
    order, so the first bad line raises, then ``bad``."""
    try:
        columns = []
        for key, build in builds:
            if build is None and any(key in rec for rec in records):
                raise KeyError(key)
            columns.append(None if build is None else build([rec[key] for rec in records]))
    except (KeyError, TypeError, ValueError, OverflowError):
        for row, lineno in zip(rows.tolist(), linenos):
            for key, build in builds:
                if build is None and key in records[row]:
                    raise MalformedRecord(path, lineno, f"inconsistent presence of {key}") from None
                if build is not None:
                    _require(records[row], key, path, lineno, lambda value: build([value]))
        # no input gets here: a build fails only at a row that fails alone, and a missing
        raise  # or unwanted key is one record's fault, so the recheck raises first
    if bad is not None:
        raise bad
    return tuple(columns)


def load_log(path):
    """Load and validate one JSON Lines log file, one JSON object per line and the
    header first. Errors, in order: the header's; the first line that is not one JSON
    object or has a missing or mistyped field (a logit row not ``n_classes`` wide too);
    a QA logit list not ``n_tokens`` long; then ``validate_log``'s. An ``ExampleError``
    names the file and the line of its example (the header's for the whole log).
    Validated classification labels are then cast to ``np.min_scalar_type(-n_classes)``
    (int8 up to 128 classes); QA spans stay int64."""
    linenos, records, rows, bad = _records(path)
    if not records:
        raise bad or MalformedRecord(path, 1, "empty file")
    head_no, header = linenos.pop(0), records.pop(0)
    task = _require(header, "task", path, head_no)
    model_id, split_id = (_require(header, key, path, head_no, _str)
                          for key in ("model_id", "split_id"))
    try:
        if task == TASK_CLASSIFICATION:
            k = _require(header, "n_classes", path, head_no, _int64)
            # logits in the first record, then in every record, or in none
            logits = partial(_floats, width=k) if records and "logits" in records[0] else None
            builds = (("gold", _ints), ("predicted", _ints), ("logits", logits))
            gold, predicted, logits = _columns(path, linenos, records, rows, builds, bad)
            log = ClassificationLog(  # the distinct records' columns, one row per line
                model_id=model_id, split_id=split_id, n_classes=k, gold=gold[rows],
                predicted=predicted[rows],
                logits=None if logits is None else logits[0].reshape(len(gold), k)[rows])
        elif task == TASK_EXTRACTIVE_QA:  # each line's record, as SpanLog packs ragged rows
            records, rows = [records[row] for row in rows.tolist()], np.arange(len(rows))
            builds = [(f.name, _floats if f.name.endswith("_logits") else _ints)
                      for f in fields(SpanExample)]
            columns = _columns(path, linenos, records, rows, builds, bad)
            del records  # packed from the columns
            log = SpanLog(model_id=model_id, split_id=split_id, examples=_SpanColumns(columns))
        else:
            raise MalformedRecord(path, head_no, f"unknown task {task!r}")
        validate_log(log)
    except ExampleError as exc:
        i = exc.example_index
        exc.at(path, linenos[i] if i >= 0 else head_no)
        raise
    if task == TASK_CLASSIFICATION:  # validated labels lie in [0, k), so none wraps
        dtype = np.min_scalar_type(-k)  # signed, so that label - 1 does not wrap either
        log.gold, log.predicted = log.gold.astype(dtype), log.predicted.astype(dtype)
    return log


# --- manifests ---

def save_manifest(manifest: Manifest, path) -> None:
    with open(path, "w") as fh:
        json.dump(asdict(manifest), fh, indent=2, sort_keys=True)
        fh.write("\n")


_SEPARATORS = re.compile(r"[ \t\n\r,:]*")  # JSON whitespace and the marks between values


def _starts(text, i) -> dict:
    """{key, or list position: index at which its value starts} of the object or list
    whose text opens at ``i``; a repeated key keeps its last start, as ``json.loads``
    keeps its last value. Each value is stepped over by the C scanner; the walk stops
    at a value the scanner refuses, whose start is then the greatest."""
    starts, is_object = {}, text[i] == "{"
    i += 1
    while text[i := _SEPARATORS.match(text, i).end()] not in "]}":
        if is_object:  # the member's key, then ":"
            name, i = _scan(text, i)
            i = _SEPARATORS.match(text, i).end()
        else:
            name = len(starts)
        starts[name] = i
        try:
            i = _scan(text, i)[1]
        except ValueError:  # an integer of too many digits in it
            break
    return starts


def _line_of(text, *keys) -> int:
    """Line on which the value that ``keys`` (member names or list positions) reach
    from the document's first value starts; with no keys, the document's own line.
    Only a bad manifest walks its text; any text ``json.loads`` decoded can be walked."""
    i = _SEPARATORS.match(text).end()
    for key in keys:
        i = _starts(text, i)[key]
    return text.count("\n", 0, i) + 1


def read_manifest(path) -> Manifest:
    """Parse a manifest file without loading the logs it references."""
    text = _read_text(path)
    try:
        doc = json.loads(text)
    except RecursionError as exc:  # nesting too deep to decode, or to walk
        raise MalformedRecord(path, 1, str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise MalformedRecord(path, exc.lineno, str(exc)) from exc
    except ValueError as exc:  # an integer of more digits than int takes, at no line:
        i = _SEPARATORS.match(text).end()  # walk into each value the scanner refuses
        while text[i] in "[{":
            i = max(_starts(text, i).values())
        raise MalformedRecord(path, text.count("\n", 0, i) + 1, str(exc)) from exc
    if not isinstance(doc, dict):
        raise MalformedRecord(path, _line_of(text), "manifest must be a JSON object")
    version, task, metric, listed = (_require(doc, key, path, _line_of(text))
                                     for key in ("version", "task", "metric", "entries"))
    if version != FORMAT_VERSION:
        raise MalformedRecord(path, _line_of(text, "version"), f"unsupported version "
                              f"{version!r} (expected {FORMAT_VERSION!r})")
    if not isinstance(task, str) or task not in METRICS_BY_TASK:
        raise MalformedRecord(path, _line_of(text, "task"), f"unknown task {task!r}")
    if metric not in METRICS_BY_TASK[task]:
        raise MetricTaskMismatch(metric, task, f"{path}:{_line_of(text, 'metric')}")
    if not isinstance(listed, list):
        raise MalformedRecord(path, _line_of(text, "entries"), "entries must be a list")
    entries = {}
    for k, e in enumerate(listed):
        if not (isinstance(e, dict) and {"model_id", "split_id", "path"} <= e.keys()):
            raise MalformedRecord(path, _line_of(text, "entries", k),
                                  f"entry {k} needs model_id, split_id and path")
        for key in ("model_id", "split_id", "path"):
            if not isinstance(e[key], str):
                raise MalformedRecord(path, _line_of(text, "entries", k),
                                      f"entry {k}: {key} must be a string")
        key = (e["model_id"], e["split_id"])
        if key in entries:
            raise DuplicateEntry(*key)
        entries[key] = ManifestEntry(model_id=e["model_id"], split_id=e["split_id"], path=e["path"])
    return Manifest(version=FORMAT_VERSION, task=task, metric=metric, entries=list(entries.values()))


def load_entries(path) -> tuple[Manifest, list]:
    """Read a manifest, then load and validate the log of each entry, in entry order.
    A log whose header names another model or split than its entry raises
    ShapeMismatch, one of another task than the manifest MetricTaskMismatch, and one
    with no examples EmptyLog."""
    manifest = read_manifest(path)
    base_dir = os.path.dirname(os.path.abspath(path))
    logs = []
    for e in manifest.entries:
        log_path = os.path.join(base_dir, e.path)
        log = load_log(log_path)
        if log.model_id != e.model_id or log.split_id != e.split_id:
            raise ShapeMismatch(e.model_id, f"log header at {log_path} does not match manifest entry")
        _check_metric(log, manifest.metric, log_path)  # the manifest's metric scores its task
        if len(log) == 0:
            raise EmptyLog(f"log {e.model_id!r} at {log_path} has no examples")
        logs.append(log)
    return manifest, logs


def load_split_pair(id_path, ood_path, metric_override=None) -> SplitPair:
    """Load the ensemble that one manifest (passed twice) or two manifests list.

    The entries of both, ID manifest first, must name exactly two splits, each
    (model_id, split_id) once and every model in both splits. The split that
    appears first is in-distribution; models keep the order of first appearance.
    ``SplitPair`` checks the ensemble, scored by the ID manifest's metric by default."""
    loaded = [load_entries(p) for p in dict.fromkeys(map(os.path.abspath, (id_path, ood_path)))]
    logs = {}
    for log in chain.from_iterable(m_logs for _, m_logs in loaded):
        if (log.model_id, log.split_id) in logs:
            raise DuplicateEntry(log.model_id, log.split_id)
        logs[log.model_id, log.split_id] = log
    splits = list(dict.fromkeys(split for _, split in logs))
    if len(splits) != 2:
        raise ShapeMismatch("*", f"manifests must reference exactly 2 splits, got {splits}")
    models = list(dict.fromkeys(model for model, _ in logs))
    for model in models:
        for split in splits:
            if (model, split) not in logs:
                raise ShapeMismatch(model, f"missing log for split {split!r}")
    id_logs, ood_logs = ([logs[model, split] for model in models] for split in splits)
    metric = loaded[0][0].metric if metric_override is None else metric_override
    return SplitPair(id_logs=id_logs, ood_logs=ood_logs, metric=metric)
