"""Guard property: input bytes never escape as a raw exception.

Any manifest or log bytes, including invalid UTF-8, non-finite numbers and
wrong types, either load or raise a ToolkitError, and ``aglkit validate``
and ``aglkit estimate`` only ever exit 0, 2 or 3.
"""

import json
import math
import os
import tempfile

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from aglkit.cli import main
from aglkit.datamodel import load_log, read_manifest
from aglkit.errors import ToolkitError

GUARD = settings(max_examples=150, deadline=None, derandomize=True,
                 suppress_health_check=[HealthCheck.too_slow])

_SCALAR = st.one_of(st.none(), st.booleans(), st.integers(-3, 12), st.integers(),
                    st.floats(), st.text(max_size=4))
_JSON = st.recursive(_SCALAR, lambda inner: st.lists(inner, max_size=4)
                     | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                     max_leaves=8)
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_TASKS = ("classification", "extractive_qa")


def _record(k, n_tok, rng):
    """One valid record of either task; the logits' argmax is the prediction."""
    if k is not None:
        logits = rng.normal(size=k)
        return {"gold": int(rng.integers(0, k)), "predicted": int(logits.argmax()),
                "logits": logits.tolist()}
    start, end = rng.normal(size=(2, n_tok))
    gold_start = int(rng.integers(0, n_tok))
    return {"n_tokens": n_tok, "start_logits": start.tolist(), "end_logits": end.tolist(),
            "gold_start": gold_start, "gold_end": int(rng.integers(gold_start, n_tok)),
            "pred_start": int(start.argmax()), "pred_end": int(end.argmax())}


def _valid_log(task, model_id, split_id, seed):
    """A valid log of six records as a list of JSON objects."""
    rng = np.random.default_rng(seed)
    k = 3 if task == "classification" else None
    header = {"task": task, "model_id": model_id, "split_id": split_id}
    if k is not None:
        header["n_classes"] = k
    return [header] + [_record(k, 1 + i % 4, rng) for i in range(6)]


@st.composite
def _log_doc(draw, task, model_id, split_id):
    """A valid log with up to two fields changed to arbitrary JSON, a
    non-finite number or nothing, and sometimes one line replaced."""
    lines = _valid_log(task, model_id, split_id, draw(st.integers(0, 2**32 - 1)))
    for _ in range(draw(st.integers(1, 2))):
        row = lines[draw(st.integers(0, len(lines) - 1))]
        key = draw(st.sampled_from(sorted(row)))
        if isinstance(row[key], list) and row[key] and draw(st.booleans()):
            row[key][draw(st.integers(0, len(row[key]) - 1))] = draw(_NON_FINITE | _JSON)
        elif draw(st.booleans()):
            row[key] = draw(_JSON)
        else:
            del row[key]
    if draw(st.integers(0, 9)) == 0:
        lines[draw(st.integers(0, len(lines) - 1))] = draw(_JSON)
    return lines


@st.composite
def _mangled(draw, text):
    """UTF-8 bytes of ``text``, sometimes with bytes overwritten, inserted or cut off."""
    data = bytearray(text.encode("utf-8"))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(["overwrite", "insert", "truncate"]))
        if op == "truncate":
            del data[at:]
        else:
            chunk = draw(st.binary(min_size=1, max_size=3))
            data[at:at + (len(chunk) if op == "overwrite" else 0)] = chunk
    return bytes(data)


@st.composite
def log_bytes(draw, task=None, model_id="m0", split_id="id"):
    task = task or draw(st.sampled_from(_TASKS))
    lines = draw(_log_doc(task, model_id, split_id))
    return draw(_mangled("\n".join(json.dumps(line) for line in lines) + "\n"))


@given(st.one_of(st.binary(max_size=64), log_bytes()))
@GUARD
def test_any_log_bytes_load_or_raise_toolkit_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "log.jsonl")
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            load_log(path)
        except ToolkitError:
            pass


def _manifest_doc(task, metric, extra):
    entries = [{"model_id": f"m{m}", "split_id": split, "path": f"m{m}_{split}.jsonl"}
               for m in range(3) for split in ("id", "ood")]
    doc = {"version": "1", "task": task, "metric": metric, "entries": entries}
    doc.update(extra)
    return doc


_MANIFEST_FIELDS = st.dictionaries(st.sampled_from(["version", "task", "metric", "entries"]),
                                   _JSON, max_size=1)


@given(st.one_of(st.binary(max_size=64),
                 st.builds(_manifest_doc, st.sampled_from(_TASKS),
                           st.sampled_from(["accuracy", "exact_match", "f1"]),
                           _MANIFEST_FIELDS).flatmap(lambda doc: _mangled(json.dumps(doc)))))
@GUARD
def test_any_manifest_bytes_read_or_raise_toolkit_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "manifest.json")
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            read_manifest(path)
        except ToolkitError:
            pass


@st.composite
def _ensemble(draw):
    """A manifest and its six logs (3 models x 2 splits), with at most one of
    them broken: a log's fields, the manifest's fields, or one file's bytes."""
    task = draw(st.sampled_from(_TASKS))
    metric = draw(st.sampled_from(["accuracy"] if task == "classification"
                                  else ["exact_match", "f1"]))
    broken = draw(st.sampled_from(["nothing", "log", "manifest", "bytes"]))
    bad_log = draw(st.sampled_from([(m, split) for m in range(3) for split in ("id", "ood")]))
    docs = {}
    for m in range(3):
        for split in ("id", "ood"):
            docs[f"m{m}_{split}.jsonl"] = (
                draw(_log_doc(task, f"m{m}", split)) if broken == "log" and bad_log == (m, split)
                else _valid_log(task, f"m{m}", split, 10 * m + len(split)))
    files = {rel: ("\n".join(json.dumps(x) for x in doc) + "\n").encode("utf-8")
             for rel, doc in docs.items()}
    extra = draw(_MANIFEST_FIELDS) if broken == "manifest" else {}
    files["manifest.json"] = json.dumps(_manifest_doc(task, metric, extra)).encode("utf-8")
    if broken == "bytes":
        name = draw(st.sampled_from(sorted(files)))
        files[name] = draw(_mangled(files[name].decode("utf-8")))
    return files


@given(_ensemble(), st.booleans())
@settings(GUARD, max_examples=60)
def test_cli_exits_only_0_2_or_3(files, evaluation):
    with tempfile.TemporaryDirectory() as tmp:
        for rel, data in files.items():
            with open(os.path.join(tmp, rel), "wb") as fh:
                fh.write(data)
        manifest = os.path.join(tmp, "manifest.json")
        assert main(["validate", "--manifest", manifest]) in (0, 2)
        argv = ["estimate", "--id-manifest", manifest, "--ood-manifest", manifest,
                "--out", os.path.join(tmp, "out"), "--scatter"]
        assert main(argv + (["--eval"] if evaluation else [])) in (0, 2, 3)
