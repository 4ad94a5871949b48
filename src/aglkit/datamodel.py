"""Core domain types, on-disk prediction-log formats, and validated ingestion.

Log files are JSON Lines: one header object followed by one object per
example. Floats use Python's shortest round-trip decimal representation,
so save -> load reproduces values bit-for-bit. Example identity is
positional: logs compared across models must have equal length.
"""

from __future__ import annotations

import json
import os
from dataclasses import InitVar, dataclass, field

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

    Built from a list of ``SpanExample`` records, which are packed once:
    ``start_logits`` and ``end_logits`` are (n_examples, longest) float
    matrices whose row i holds ``n_tokens[i]`` logits and then -inf padding
    (it survives positive scaling and gets softmax weight exp(-inf) = 0);
    ``gold`` and ``predicted`` are (n_examples, 2) int [start, end] arrays.
    A record whose logit vectors do not have ``n_tokens`` entries raises
    LengthViolation.
    """
    model_id: str
    split_id: str
    examples: InitVar[list[SpanExample]]
    start_logits: np.ndarray = field(init=False)
    end_logits: np.ndarray = field(init=False)
    n_tokens: np.ndarray = field(init=False)
    gold: np.ndarray = field(init=False)
    predicted: np.ndarray = field(init=False)
    task: str = TASK_EXTRACTIVE_QA

    def __post_init__(self, examples):
        ints = np.array([(ex.n_tokens, len(ex.start_logits), len(ex.end_logits), ex.gold_start,
                          ex.gold_end, ex.pred_start, ex.pred_end) for ex in examples],
                        dtype=np.int64).reshape(len(examples), 7)
        wrong = (ints[:, 1:3] != ints[:, :1]).any(axis=1)
        if wrong.any():
            raise LengthViolation(int(np.argmax(wrong)))
        self.n_tokens = ints[:, 0].copy()
        self.gold, self.predicted = ints[:, 3:5].copy(), ints[:, 5:].copy()
        real = np.arange(self.n_tokens.max(initial=1)) < self.n_tokens[:, None]
        for name in ("start_logits", "end_logits"):
            mat = np.full(real.shape, -np.inf)
            if examples:
                mat[real] = np.concatenate([getattr(ex, name) for ex in examples])
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


def _parse_json_line(path, lineno, line):
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:  # bad JSON, too many digits, deep nesting
        raise MalformedRecord(path, lineno, str(exc)) from exc
    if not isinstance(obj, dict):
        raise MalformedRecord(path, lineno, "expected a JSON object")
    return obj


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


def _float_vector(value) -> np.ndarray:
    vec = np.array(value, dtype=np.float64)
    if vec.ndim != 1:
        raise ValueError("expected a list of numbers")
    return vec


def load_log(path, validate: bool = True):
    """Load one JSON Lines log file; validates invariants by default."""
    raw_lines = [ln for ln in _read_text(path).splitlines() if ln.strip()]
    if not raw_lines:
        raise MalformedRecord(path, 1, "empty file")
    header = _parse_json_line(path, 1, raw_lines[0])
    task = _require(header, "task", path, 1)
    model_id = _require(header, "model_id", path, 1)
    split_id = _require(header, "split_id", path, 1)
    if task == TASK_CLASSIFICATION:
        k = _require(header, "n_classes", path, 1, _int64)
        golds, preds, logit_rows = [], [], []
        any_logits = None
        for lineno, line in enumerate(raw_lines[1:], start=2):
            rec = _parse_json_line(path, lineno, line)
            golds.append(_require(rec, "gold", path, lineno, _int64))
            preds.append(_require(rec, "predicted", path, lineno, _int64))
            has = "logits" in rec
            if any_logits is None:
                any_logits = has
            elif any_logits != has:
                raise MalformedRecord(path, lineno, "inconsistent presence of logits")
            if has:
                logit_rows.append(_require(rec, "logits", path, lineno, _float_vector))
        logits = None
        if any_logits:
            widths = {len(r) for r in logit_rows}
            if widths != {k}:
                raise MalformedRecord(path, 2, f"logit widths {sorted(widths)} != n_classes {k}")
            logits = np.array(logit_rows, dtype=np.float64)
        log = ClassificationLog(model_id=model_id, split_id=split_id, n_classes=k,
                                gold=np.array(golds, dtype=np.int64),
                                predicted=np.array(preds, dtype=np.int64),
                                logits=logits)
    elif task == TASK_EXTRACTIVE_QA:
        examples = []
        for lineno, line in enumerate(raw_lines[1:], start=2):
            rec = _parse_json_line(path, lineno, line)
            examples.append(SpanExample(
                n_tokens=_require(rec, "n_tokens", path, lineno, _int64),
                start_logits=_require(rec, "start_logits", path, lineno, _float_vector),
                end_logits=_require(rec, "end_logits", path, lineno, _float_vector),
                gold_start=_require(rec, "gold_start", path, lineno, _int64),
                gold_end=_require(rec, "gold_end", path, lineno, _int64),
                pred_start=_require(rec, "pred_start", path, lineno, _int64),
                pred_end=_require(rec, "pred_end", path, lineno, _int64)))
        log = SpanLog(model_id=model_id, split_id=split_id, examples=examples)
    else:
        raise MalformedRecord(path, 1, f"unknown task {task!r}")
    if validate:
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


def read_manifest(path) -> Manifest:
    """Parse a manifest file without loading the logs it references."""
    try:
        doc = json.loads(_read_text(path))
    except (ValueError, RecursionError) as exc:  # bad JSON, too many digits, deep nesting
        raise MalformedRecord(path, getattr(exc, "lineno", 1), str(exc)) from exc
    if not isinstance(doc, dict):
        raise MalformedRecord(path, 1, "manifest must be a JSON object")
    for key in ("version", "task", "metric", "entries"):
        if key not in doc:
            raise MalformedRecord(path, 1, f"missing key {key!r}")
    task = doc["task"]
    metric = doc["metric"]
    if not isinstance(task, str) or task not in METRICS_BY_TASK:
        raise MalformedRecord(path, 1, f"unknown task {task!r}")
    if metric not in METRICS_BY_TASK[task]:
        raise MetricTaskMismatch(metric, task)
    if not isinstance(doc["entries"], list):
        raise MalformedRecord(path, 1, "entries must be a list")
    entries = []
    seen = set()
    for k, e in enumerate(doc["entries"]):
        if not (isinstance(e, dict) and {"model_id", "split_id", "path"} <= e.keys()):
            raise MalformedRecord(path, 1, f"entry {k} needs model_id, split_id and path")
        for key in ("model_id", "split_id", "path"):
            if not isinstance(e[key], str):
                raise MalformedRecord(path, 1, f"entry {k}: {key} must be a string")
        entry = ManifestEntry(model_id=e["model_id"], split_id=e["split_id"], path=e["path"])
        key = (entry.model_id, entry.split_id)
        if key in seen:
            raise DuplicateEntry(*key)
        seen.add(key)
        entries.append(entry)
    return Manifest(version=str(doc["version"]), task=task, metric=metric, entries=entries)


def _load_entries(manifest: Manifest, base_dir):
    """Load and validate all logs of a manifest, keyed by (model_id, split_id)."""
    logs = {}
    for e in manifest.entries:
        path = os.path.join(base_dir, e.path)
        log = load_log(path)
        if log.model_id != e.model_id or log.split_id != e.split_id:
            raise ShapeMismatch(e.model_id, f"log header at {path} does not match manifest entry")
        if log.task != manifest.task:
            raise MetricTaskMismatch(manifest.metric, log.task)
        logs[(e.model_id, e.split_id)] = log
    return logs


def _pair_from_split_maps(id_logs, ood_logs, metric):
    if len(id_logs) < 2:
        raise ShapeMismatch("*", f"need at least 2 models, got {len(id_logs)}")
    model_ids = [log.model_id for log in id_logs]
    ood_ids = [log.model_id for log in ood_logs]
    if model_ids != ood_ids:
        raise ShapeMismatch("*", f"model ids differ between splits: {model_ids} vs {ood_ids}")
    ref_len_id = len(id_logs[0])
    ref_len_ood = len(ood_logs[0])
    for log in id_logs:
        if len(log) != ref_len_id:
            raise ShapeMismatch(log.model_id, "ID log length differs from ensemble")
    for log in ood_logs:
        if len(log) != ref_len_ood:
            raise ShapeMismatch(log.model_id, "OOD log length differs from ensemble")
    if isinstance(id_logs[0], ClassificationLog):
        ks = {log.n_classes for log in id_logs} | {log.n_classes for log in ood_logs}
        if len(ks) != 1:
            raise ShapeMismatch("*", f"inconsistent n_classes {sorted(ks)}")
    return SplitPair(id_logs=list(id_logs), ood_logs=list(ood_logs), metric=metric)


def load_manifest(path, metric_override=None) -> SplitPair:
    """Load a manifest holding both splits into a validated SplitPair.

    The manifest must reference exactly two split_ids; the one appearing
    first is treated as in-distribution.
    """
    manifest = read_manifest(path)
    metric = metric_override or manifest.metric
    if metric not in METRICS_BY_TASK[manifest.task]:
        raise MetricTaskMismatch(metric, manifest.task)
    base_dir = os.path.dirname(os.path.abspath(path))
    logs = _load_entries(manifest, base_dir)
    split_order = []
    for e in manifest.entries:
        if e.split_id not in split_order:
            split_order.append(e.split_id)
    if len(split_order) != 2:
        raise ShapeMismatch("*", f"manifest must reference exactly 2 splits, got {split_order}")
    id_split, ood_split = split_order
    model_order = []
    for e in manifest.entries:
        if e.model_id not in model_order:
            model_order.append(e.model_id)
    id_logs, ood_logs = [], []
    for m in model_order:
        for split, dest in ((id_split, id_logs), (ood_split, ood_logs)):
            if (m, split) not in logs:
                raise ShapeMismatch(m, f"missing log for split {split!r}")
            dest.append(logs[(m, split)])
    return _pair_from_split_maps(id_logs, ood_logs, metric)


def load_split_pair(id_path, ood_path, metric_override=None) -> SplitPair:
    """Build a SplitPair from separate ID and OOD manifests.

    Passing the same path twice falls back to the two-split single
    manifest layout of load_manifest.
    """
    if os.path.abspath(id_path) == os.path.abspath(ood_path):
        return load_manifest(id_path, metric_override)
    id_manifest = read_manifest(id_path)
    ood_manifest = read_manifest(ood_path)
    if id_manifest.task != ood_manifest.task:
        raise MetricTaskMismatch(id_manifest.metric, ood_manifest.task)
    metric = metric_override or id_manifest.metric
    if metric not in METRICS_BY_TASK[id_manifest.task]:
        raise MetricTaskMismatch(metric, id_manifest.task)
    id_logs_map = _load_entries(id_manifest, os.path.dirname(os.path.abspath(id_path)))
    ood_logs_map = _load_entries(ood_manifest, os.path.dirname(os.path.abspath(ood_path)))
    id_logs = [id_logs_map[k] for k in (tuple((e.model_id, e.split_id) for e in id_manifest.entries))]
    ood_by_model = {e.model_id: ood_logs_map[(e.model_id, e.split_id)] for e in ood_manifest.entries}
    ordered_ood = []
    for log in id_logs:
        if log.model_id not in ood_by_model:
            raise ShapeMismatch(log.model_id, "no OOD log for model")
        ordered_ood.append(ood_by_model[log.model_id])
    return _pair_from_split_maps(id_logs, ordered_ood, metric)
