"""Seeded input generators for the benchmark workloads.

Every generator uses only public aglkit APIs and writes one two-split
manifest (``manifest.json``) plus the JSON Lines logs it names. Beside the
inputs it returns the generated labels and predictions as plain arrays, so
the output check can recompute performance and agreement without going
through aglkit.

Sizes are chosen so that one ``aglkit estimate`` takes 1.3 to 2.5 s on a
2-core machine, which leaves room for several timed calls per run.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass

import numpy as np

# Probit line and skill range shared by all workloads; they match the
# SynthConfig defaults so the QA ensemble behaves like the synthetic one.
SKILL_MIN, SKILL_MAX = 0.3, 1.5
LINE_SLOPE, LINE_BIAS = 0.7, -0.3
DIVERSITY = 0.9
MAX_SPAN = 8


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "cls", "agree" or "qa"
    n_models: int
    n_examples: int  # per split
    n_tokens: int = 0  # qa only
    methods: str | None = None  # None runs every method
    scatter: bool = False

    def cli_args(self, manifest, out_dir):
        args = ["estimate", "--id-manifest", manifest, "--ood-manifest", manifest,
                "--out", out_dir, "--eval"]
        if self.methods:
            args += ["--methods", self.methods]
        if self.scatter:
            args.append("--scatter")
        return args


WORKLOADS = {w.name: w for w in (
    # Every method with logits and scatter export: time goes to the
    # temperature fits and to JSONL parsing; the only scatter workload.
    Workload("cls-8x2000", "cls", 8, 2000, scatter=True),
    # Many models, no logits: time goes to the O(n^2) pair loops and the
    # dense ALine-D system; the confidence baselines do no work.
    Workload("agree-128x1000", "agree", 128, 1000, methods="aline-s,aline-d,naive"),
    # Extractive QA scored by f1: the modules of cls, but through
    # per-example SpanExample objects.
    Workload("qa-6x200x128", "qa", 6, 200, n_tokens=128),
)}


def write_inputs(workload: Workload, seed: int, out_dir):
    """Generate and write one workload's inputs.

    Returns ``(manifest_path, arrays, write_ensemble_s)`` where ``arrays``
    holds the labels and predictions the inputs encode and
    ``write_ensemble_s`` is the time spent in ``synth.write_ensemble``
    (zero for workloads that do not use it).
    """
    os.makedirs(out_dir, exist_ok=True)
    if workload.kind == "cls":
        return _write_cls(workload, seed, out_dir)
    if workload.kind == "agree":
        return _write_agree(workload, seed, out_dir)
    if workload.kind == "qa":
        return _write_qa(workload, seed, out_dir)
    raise ValueError(f"unknown workload kind {workload.kind!r}")


def _synth_config(workload, seed):
    from aglkit.synth import SynthConfig
    return SynthConfig(n_models=workload.n_models, n_examples_id=workload.n_examples,
                       n_examples_ood=workload.n_examples, seed=seed)


def _class_arrays(id_logs, ood_logs):
    return {"metric": "accuracy",
            "id_gold": id_logs[0].gold, "ood_gold": ood_logs[0].gold,
            "id_pred": np.stack([log.predicted for log in id_logs]),
            "ood_pred": np.stack([log.predicted for log in ood_logs])}


def _write_cls(workload, seed, out_dir):
    from aglkit.synth import generate, write_ensemble
    config = _synth_config(workload, seed)
    start = time.perf_counter()
    paths = write_ensemble(config, out_dir)
    elapsed = time.perf_counter() - start
    id_logs, ood_logs, _ = generate(config)
    return paths["manifest"], _class_arrays(id_logs, ood_logs), elapsed


def _write_manifest(id_logs, ood_logs, task, metric, out_dir):
    from aglkit.datamodel import FORMAT_VERSION, Manifest, ManifestEntry, save_log, save_manifest
    entries = []
    for id_log, ood_log in zip(id_logs, ood_logs):
        for split_dir, log in (("id", id_log), ("ood", ood_log)):
            os.makedirs(os.path.join(out_dir, split_dir), exist_ok=True)
            rel = os.path.join(split_dir, f"{log.model_id}.jsonl")
            save_log(log, os.path.join(out_dir, rel))
            entries.append(ManifestEntry(model_id=log.model_id, split_id=log.split_id, path=rel))
    path = os.path.join(out_dir, "manifest.json")
    save_manifest(Manifest(version=FORMAT_VERSION, task=task, metric=metric,
                           entries=entries), path)
    return path


def _write_agree(workload, seed, out_dir):
    from aglkit.datamodel import METRIC_ACCURACY, TASK_CLASSIFICATION
    from aglkit.synth import generate
    id_logs, ood_logs, _ = generate(_synth_config(workload, seed))
    for log in id_logs + ood_logs:
        log.logits = None
    path = _write_manifest(id_logs, ood_logs, TASK_CLASSIFICATION, METRIC_ACCURACY, out_dir)
    return path, _class_arrays(id_logs, ood_logs), 0.0


def _qa_split(workload, rng, thresholds, split_id):
    """Span predictions for one split.

    Model i answers example e correctly iff its latent
    z = sqrt(r)*w_e + sqrt(1-r)*v_ie is at most its threshold, as in
    aglkit.synth, so performance and agreement follow a probit trend. A
    wrong answer is a shifted span that overlaps the gold one only partly,
    copied from a shared per-example wrong span with probability r.
    """
    from aglkit.datamodel import SpanExample, SpanLog
    from aglkit.synth import latent_correlation
    from scipy.special import ndtr
    n_ex, n_tok = workload.n_examples, workload.n_tokens
    span = min(MAX_SPAN, n_tok)
    r = latent_correlation(DIVERSITY)
    gold_start = rng.integers(0, n_tok - span + 1, size=n_ex)
    gold_end = gold_start + rng.integers(0, span, size=n_ex)
    gold = np.stack([gold_start, gold_end], axis=1)

    length = gold_end - gold_start

    def wrong_spans():
        # a cyclic shift by 1..span positions never returns to the gold start
        shift = rng.integers(1, span + 1, size=n_ex) * rng.choice([-1, 1], size=n_ex)
        start = (gold_start + shift) % (n_tok - length)
        return np.stack([start, start + length], axis=1)

    shared_wrong = wrong_spans()
    w = rng.standard_normal(n_ex)
    logs, preds = [], []
    for m, theta in enumerate(thresholds):
        z = math.sqrt(r) * w + math.sqrt(1.0 - r) * rng.standard_normal(n_ex)
        correct = z <= theta
        copy = rng.random(n_ex) < r
        wrong = np.where(copy[:, None], shared_wrong, wrong_spans())
        pred = np.where(correct[:, None], gold, wrong)
        # the predicted token leads the noise by a margin that grows with
        # the model's confidence, so argmax reproduces the prediction
        margin = 0.5 + 3.0 * ndtr(theta - z)
        start = rng.standard_normal((n_ex, n_tok))
        end = rng.standard_normal((n_ex, n_tok))
        rows = np.arange(n_ex)
        start[rows, pred[:, 0]] = start.max(axis=1) + margin
        end[rows, pred[:, 1]] = end.max(axis=1) + margin
        examples = [SpanExample(n_tokens=n_tok, start_logits=start[e], end_logits=end[e],
                                gold_start=int(gold[e, 0]), gold_end=int(gold[e, 1]),
                                pred_start=int(pred[e, 0]), pred_end=int(pred[e, 1]))
                    for e in range(n_ex)]
        logs.append(SpanLog(model_id=f"m{m:02d}", split_id=split_id, examples=examples))
        preds.append(pred)
    return logs, gold, np.stack(preds)


def _write_qa(workload, seed, out_dir):
    from aglkit.datamodel import METRIC_F1, TASK_EXTRACTIVE_QA
    rng = np.random.Generator(np.random.Philox(key=seed))
    skills = np.linspace(SKILL_MIN, SKILL_MAX, workload.n_models)
    id_logs, id_gold, id_pred = _qa_split(workload, rng, skills, "qa_id")
    ood_logs, ood_gold, ood_pred = _qa_split(workload, rng, LINE_SLOPE * skills + LINE_BIAS,
                                             "qa_ood")
    path = _write_manifest(id_logs, ood_logs, TASK_EXTRACTIVE_QA, METRIC_F1, out_dir)
    arrays = {"metric": "f1", "id_gold": id_gold, "ood_gold": ood_gold,
              "id_pred": id_pred, "ood_pred": ood_pred}
    return path, arrays, 0.0
