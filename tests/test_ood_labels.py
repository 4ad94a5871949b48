"""OOD gold labels reach only a report's OOD-label scores.

A classification pair written by ``synth`` and a QA pair written by the benchmark's
QA generator (``perfbench/workloads.py``, imported read-only) are loaded twice; in
the second copy every OOD gold label, or gold span, is replaced by a seeded valid
random one. A blind report with every method, and its scatter, must not change by a
byte. In evaluation mode exactly the fields that ``READS_OOD_LABELS`` marks change.
A report field the table does not list fails the test, so a new field must say
whether it reads OOD labels.
"""

import csv
import io
import os
import sys
from dataclasses import replace

import numpy as np
import pytest

from aglkit.datamodel import ClassificationLog, load_split_pair, validate_log
from aglkit.report import ReportOptions, build_report, export_scatter, scatter_to_csv

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
from workloads import WORKLOADS, write_inputs  # noqa: E402

# Every field of report.json and scatter.csv, and whether it reads OOD labels:
# per-model and fit keys by name, scatter rows by kind.
READS_OOD_LABELS = {
    "per_model.model_id": False,
    "per_model.id_perf": False,
    "per_model.estimates": False,
    "per_model.true_ood_perf": True,
    "fits.agreement_fit": False,
    "fits.accuracy_fit": True,
    "gates": False,
    "method_errors": False,
    "mape": True,
    "metadata": False,
    "scatter.accuracy": True,
    "scatter.agreement": False,
    "scatter.accuracy_fit": True,
    "scatter.agreement_fit": False,
    "scatter.axis_tick": False,
}


def _fields(report):
    """{field: value} of a report and its scatter, each named as in READS_OOD_LABELS."""
    fields = {}
    for key, value in report.to_dict().items():
        if key == "per_model":
            for row in value:
                for name, item in row.items():
                    fields.setdefault(f"per_model.{name}", []).append(item)
        elif key == "fits":
            fields.update((f"fits.{name}", fit) for name, fit in value.items())
        else:
            fields[key] = value
    for row in csv.DictReader(io.StringIO(scatter_to_csv(export_scatter(report)))):
        fields.setdefault(f"scatter.{row['kind']}", []).append(row)
    assert set(fields) <= set(READS_OOD_LABELS), set(fields) - set(READS_OOD_LABELS)
    return fields


def _relabel(ood_logs, seed):
    """Give every OOD log one new, valid gold label (or span) per example."""
    rng = np.random.default_rng(seed)
    log = ood_logs[0]
    if isinstance(log, ClassificationLog):
        gold = rng.integers(0, log.n_classes, len(log))
    else:
        start = rng.integers(0, log.n_tokens)
        gold = np.stack([start, start + rng.integers(0, log.n_tokens - start)], axis=1)
    assert (gold != log.gold).any()
    for log in ood_logs:
        log.gold[:] = gold
        validate_log(log)


@pytest.mark.parametrize("name", ["cls-8x2000", "qa-6x200x128"])
def test_ood_gold_labels_reach_only_the_ood_scores(tmp_path, name):
    workload = WORKLOADS[name]
    toy = replace(workload, n_models=5, n_examples=60, n_tokens=min(workload.n_tokens, 16))
    manifest, _, _ = write_inputs(toy, seed=5, out_dir=str(tmp_path))
    original, relabelled = (load_split_pair(manifest, manifest) for _ in range(2))
    _relabel(relabelled.ood_logs, seed=11)

    blind = [build_report(pair) for pair in (original, relabelled)]
    assert blind[0].to_json() == blind[1].to_json()
    assert scatter_to_csv(export_scatter(blind[0])) == scatter_to_csv(export_scatter(blind[1]))
    _fields(blind[0])

    options = ReportOptions(evaluation_mode=True)
    before, after = (_fields(build_report(pair, options=options))
                     for pair in (original, relabelled))
    assert set(before) == set(after) == set(READS_OOD_LABELS)
    changed = {field for field in READS_OOD_LABELS if before[field] != after[field]}
    assert changed == {field for field, reads in READS_OOD_LABELS.items() if reads}
