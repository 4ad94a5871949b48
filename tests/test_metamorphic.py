"""Metamorphic relations of the whole estimate, checked through ``build_report`` on
logs built in memory, and through the CLI on logs written to disk. Each relation
follows from the maths alone, so it trusts neither an older implementation nor a
reference one.

ALine (Baek et al., 2022) reads only rates, and the confidence baselines read only
each model's ID performance and its own per-example confidences, so renaming the
models by a permutation permutes every per-model quantity and changes no value.
Examples are positional and every rate is a mean over them, so permuting each split's
examples, the same way for every model, changes no value either. Softmax is invariant
under adding a constant to a row of logits, and every metric compares labels only for
equality, so shifting each logit row and renaming the classes change no value.
Repeating every example leaves every mean as it is. Each method reads only the
report's shared inputs, so running it alone changes none of its values, and the
model order of a manifest only orders the report's rows.
"""

import copy
import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from aglkit.aline import METHOD_ALINE_D, METHOD_ALINE_S
from aglkit.cli import EXIT_OK, main
from aglkit.datamodel import (
    FORMAT_VERSION,
    METRIC_ACCURACY,
    METRIC_F1,
    TASK_EXTRACTIVE_QA,
    Manifest,
    ManifestEntry,
    SpanExample,
    SpanLog,
    SplitPair,
    read_manifest,
    save_log,
    save_manifest,
)
from aglkit.report import METHODS, SCATTER_COLUMNS, ReportOptions, build_report
from aglkit.synth import SynthConfig, generate, write_ensemble

from conftest import make_span_log

RTOL = 1e-12  # relative; a permutation reorders the agreement line's sums


def _ensemble(task, seed):
    """``(id_logs, ood_logs, metric)`` of a toy ensemble of 5 models whose OOD
    performance is lower than their ID performance."""
    if task == "classification":
        id_logs, ood_logs, _ = generate(SynthConfig(n_models=5, n_examples_id=300,
                                                    n_examples_ood=300, seed=seed))
        return id_logs, ood_logs, METRIC_ACCURACY
    rng = np.random.default_rng(seed)
    id_logs, ood_logs = [], []
    for logs, split, shift in ((id_logs, "id", 1.0), (ood_logs, "ood", 0.7)):
        gold = np.sort(rng.integers(0, 16, (120, 2)), axis=1)
        for m, skill in enumerate(np.linspace(0.4, 0.9, 5)):
            guess = np.sort(rng.integers(0, 16, (120, 2)), axis=1)
            spans = np.where(rng.random((120, 1)) < shift * skill, gold, guess)
            logs.append(make_span_log(spans.tolist(), gold.tolist(), n_tokens=16,
                                      model_id=f"m{m}", split_id=split, rng=rng))
    return id_logs, ood_logs, METRIC_F1


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("task", ["classification", "qa"])
def test_permuting_the_models_permutes_the_matrices_and_every_estimate(task, seed):
    id_logs, ood_logs, metric = _ensemble(task, seed)
    n = len(id_logs)
    perm = np.random.default_rng(seed).permutation(n)
    assert (perm != np.arange(n)).any()
    options = ReportOptions(evaluation_mode=True)
    base = build_report(SplitPair(id_logs, ood_logs, metric), options=options)
    permuted = build_report(SplitPair([id_logs[i] for i in perm], [ood_logs[i] for i in perm],
                                      metric), options=options)
    assert permuted.model_ids == [base.model_ids[i] for i in perm]
    for name in ("agr_id", "agr_ood"):
        np.testing.assert_allclose(getattr(permuted.inputs, name),
                                   getattr(base.inputs, name)[np.ix_(perm, perm)],
                                   rtol=RTOL, atol=0)
    assert base.method_errors == permuted.method_errors == {}
    assert permuted.estimates.keys() == base.estimates.keys()
    for name, values in base.estimates.items():
        np.testing.assert_allclose(permuted.estimates[name], np.asarray(values)[perm],
                                   rtol=RTOL, atol=0, err_msg=name)


def _ragged_ensemble(task, seed):
    """``_ensemble``, but on QA examples of 4 to 16 tokens, so that most rows of the
    packed logits end in -inf padding."""
    if task == "classification":
        return _ensemble(task, seed)
    rng = np.random.default_rng(seed)
    id_logs, ood_logs = [], []
    for logs, split, shift in ((id_logs, "id", 1.0), (ood_logs, "ood", 0.7)):
        n_tokens = rng.integers(4, 17, 120)
        gold = np.sort(rng.integers(0, n_tokens[:, None], (120, 2)), axis=1)
        for m, skill in enumerate(np.linspace(0.4, 0.9, 5)):
            guess = np.sort(rng.integers(0, n_tokens[:, None], (120, 2)), axis=1)
            spans = np.where(rng.random((120, 1)) < shift * skill, gold, guess)
            records = []
            for n, (ps, pe), (gs, ge) in zip(n_tokens.tolist(), spans.tolist(), gold.tolist()):
                start, end = 0.1 * rng.standard_normal((2, n))
                start[ps] = end[pe] = 5.0
                records.append(SpanExample(n, start, end, gs, ge, ps, pe))
            logs.append(SpanLog(f"m{m}", split, records))
    return id_logs, ood_logs, METRIC_F1


def _replace(log, **arrays):
    """A shallow copy of ``log`` that holds ``arrays`` in place of its own."""
    log = copy.copy(log)
    for name, values in arrays.items():
        setattr(log, name, values)
    return log


def _assert_same_estimates(logs, base_logs, metric):
    """The ``--eval`` reports of the two ensembles hold the same rates, truth and
    estimates, model by model, within ``RTOL``."""
    options = ReportOptions(evaluation_mode=True)
    got, base = (build_report(SplitPair(id_logs, ood_logs, metric), options=options)
                 for id_logs, ood_logs in (logs, base_logs))
    assert got.model_ids == base.model_ids
    assert base.method_errors == got.method_errors == {}
    assert got.estimates.keys() == base.estimates.keys()
    for name in ("id_perf", "agr_id", "agr_ood"):
        np.testing.assert_allclose(getattr(got.inputs, name), getattr(base.inputs, name),
                                   rtol=RTOL, atol=0, err_msg=name)
    np.testing.assert_allclose(got.true_ood_perf, base.true_ood_perf, rtol=RTOL, atol=0)
    for name, values in base.estimates.items():
        np.testing.assert_allclose(got.estimates[name], values, rtol=RTOL, atol=0, err_msg=name)


@pytest.mark.parametrize("seed", [5, 6])
@pytest.mark.parametrize("task", ["classification", "qa"])
def test_permuting_each_splits_examples_changes_no_estimate(task, seed):
    id_logs, ood_logs, metric = _ragged_ensemble(task, seed)
    rng = np.random.default_rng(seed)
    names = (("gold", "predicted", "logits") if task == "classification" else
             ("gold", "predicted", "n_tokens", "start_logits", "end_logits"))
    permuted = []
    for logs in (id_logs, ood_logs):
        perm = rng.permutation(len(logs[0]))  # one per split, the same for every model
        assert (perm != np.arange(len(perm))).any()
        permuted.append([_replace(log, **{name: getattr(log, name)[perm] for name in names})
                         for log in logs])
    _assert_same_estimates(permuted, (id_logs, ood_logs), metric)


@pytest.mark.parametrize("seed", [5, 6])
@pytest.mark.parametrize("task", ["classification", "qa"])
def test_adding_a_constant_to_each_logit_row_changes_no_estimate(task, seed):
    id_logs, ood_logs, metric = _ragged_ensemble(task, seed)
    rng = np.random.default_rng(seed)
    heads = ("logits",) if task == "classification" else ("start_logits", "end_logits")
    shifted = [[_replace(log, **{name: getattr(log, name) + rng.uniform(-10, 10, (len(log), 1))
                                 for name in heads})  # -inf padding stays -inf
                for log in logs] for logs in (id_logs, ood_logs)]
    if task == "qa":
        assert np.isneginf(shifted[0][0].start_logits).any()
    _assert_same_estimates(shifted, (id_logs, ood_logs), metric)


@pytest.mark.parametrize("seed", [5, 6])
def test_renaming_the_classes_changes_no_estimate(seed):
    id_logs, ood_logs, metric = _ensemble("classification", seed)
    k = id_logs[0].n_classes
    rename = np.random.default_rng(seed).permutation(k)  # class c becomes rename[c]
    assert (rename != np.arange(k)).any()
    column = np.argsort(rename)  # the old column of each new class
    renamed = [[_replace(log, gold=rename[log.gold], predicted=rename[log.predicted],
                         logits=log.logits[:, column]) for log in logs]
               for logs in (id_logs, ood_logs)]
    _assert_same_estimates(renamed, (id_logs, ood_logs), metric)


def _repeat_examples(logs, names):
    """Each log with every example repeated once, in place: example i at 2i and 2i + 1."""
    return [_replace(log, **{name: np.repeat(getattr(log, name), 2, axis=0) for name in names})
            for log in logs]


@pytest.mark.parametrize("seed", [5, 6])
@pytest.mark.parametrize("task", ["classification", "qa"])
def test_repeating_every_example_changes_no_estimate(task, seed):
    id_logs, ood_logs, metric = _ragged_ensemble(task, seed)
    names = (("gold", "predicted", "logits") if task == "classification" else
             ("gold", "predicted", "n_tokens", "start_logits", "end_logits"))
    repeated = [_repeat_examples(logs, names) for logs in (id_logs, ood_logs)]
    assert len(repeated[0][0]) == 2 * len(id_logs[0])
    _assert_same_estimates(repeated, (id_logs, ood_logs), metric)


@pytest.mark.parametrize("task", ["classification", "qa"])
def test_each_method_alone_gives_the_estimates_of_the_full_run(task):
    id_logs, ood_logs, metric = _ensemble(task, 3)
    pair = SplitPair(id_logs, ood_logs, metric)
    options = ReportOptions(evaluation_mode=True)
    full = build_report(pair, options=options)
    assert full.method_errors == {}
    for method in METHODS:
        alone = build_report(pair, [method], options)
        assert alone.method_errors == {}
        names = [name for name in full.estimates if name.split(".")[0] == method]
        assert list(alone.estimates) == names
        for name in names:
            np.testing.assert_array_equal(alone.estimates[name], full.estimates[name])
            assert alone.mape_by_method[name] == full.mape_by_method[name]
        if method in (METHOD_ALINE_S, METHOD_ALINE_D):
            assert alone.gates == {method: full.gates[method]}
            assert alone.agreement_fit == full.agreement_fit


def _write_ensemble(task, seed, out_dir):
    """Write the toy ensemble of ``_ensemble`` under ``out_dir``; returns its manifest."""
    if task == "classification":
        config = SynthConfig(n_models=5, n_examples_id=300, n_examples_ood=300, seed=seed)
        return write_ensemble(config, out_dir)["manifest"]
    id_logs, ood_logs, metric = _ensemble(task, seed)
    entries = []
    for log in id_logs + ood_logs:  # every ID entry first
        name = f"{log.model_id}.{log.split_id}.jsonl"
        save_log(log, out_dir / name)
        entries.append(ManifestEntry(log.model_id, log.split_id, name))
    save_manifest(Manifest(FORMAT_VERSION, TASK_EXTRACTIVE_QA, metric, entries),
                  out_dir / "manifest.json")
    return out_dir / "manifest.json"


def _assert_close(got, want, where="report"):
    """Equal JSON values, each float within ``RTOL``."""
    if isinstance(want, float):
        np.testing.assert_allclose(got, want, rtol=RTOL, atol=0, err_msg=where)
    elif isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for key, value in want.items():
            _assert_close(got[key], value, f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{k}]")
    else:
        assert got == want, where


def _scatter_rows(path):
    """``[((kind, key), values)]`` of a scatter.csv, each agreement row keyed by the
    unordered pair of its models."""
    with open(path, newline="") as fh:
        return [((row["kind"], frozenset(row["tag"].split("|")) if row["kind"] == "agreement"
                  else row["tag"]), [float(row[c]) for c in SCATTER_COLUMNS[2:]])
                for row in csv.DictReader(fh)]


@pytest.mark.parametrize("task", ["classification", "qa"])
def test_reordering_a_manifests_models_reorders_the_cli_outputs(task, tmp_path):
    (tmp_path / "in").mkdir()
    path = _write_ensemble(task, 8, tmp_path / "in")
    manifest = read_manifest(path)
    entries = [manifest.entries[k]
               for k in np.random.default_rng(8).permutation(len(manifest.entries))]
    id_split = manifest.entries[0].split_id
    entries.insert(0, entries.pop(next(k for k, e in enumerate(entries)
                                       if e.split_id == id_split)))
    reordered = tmp_path / "in" / "reordered.json"
    save_manifest(replace(manifest, entries=entries), reordered)
    order = list(dict.fromkeys(e.model_id for e in entries))  # the order of first appearance
    assert order != list(dict.fromkeys(e.model_id for e in manifest.entries))
    for name, manifest_path in (("base", path), ("reordered", reordered)):
        assert main(["estimate", "--id-manifest", str(manifest_path), "--ood-manifest",
                     str(manifest_path), "--out", str(tmp_path / name),
                     "--eval", "--scatter"]) == EXIT_OK
    base, got = (json.loads((tmp_path / name / "report.json").read_text())
                 for name in ("base", "reordered"))
    rows = {row["model_id"]: row for row in base.pop("per_model")}
    assert [row["model_id"] for row in got["per_model"]] == order
    _assert_close(got.pop("per_model"), [rows[m] for m in order], "per_model")
    assert base["method_errors"] == {}
    _assert_close(got, base)  # fits, gates, method errors, MAPE, metadata
    base_rows, got_rows = (_scatter_rows(tmp_path / name / "scatter.csv")
                           for name in ("base", "reordered"))
    assert [key for (kind, key), _ in got_rows if kind == "accuracy"] == order
    assert len(dict(got_rows)) == len(got_rows)  # no two rows share a key
    _assert_close(dict(got_rows), dict(base_rows), "scatter")
