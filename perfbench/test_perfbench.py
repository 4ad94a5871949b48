"""Self-test of the benchmark at toy sizes: metric names and units, the
output check, and the refusal to run outside a checkout."""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import calibrate
import run
from tracer import LAYERS
from workloads import WORKLOADS

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


@pytest.fixture(autouse=True)
def short_runs(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    monkeypatch.setattr(calibrate, "_REPS", 1)


def _run(tmp_path, name, trace):
    w = WORKLOADS[name]
    toy = replace(w, n_models=min(w.n_models, 6), n_examples=60, n_tokens=min(w.n_tokens, 16))
    return run.run(toy, seed=5, seconds=0, trace=trace,
                   work=str(tmp_path / "work"), out_dir=str(tmp_path / "out"))


def test_spec_lists_every_workload():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_with_its_unit(tmp_path, name, trace):
    result, record = _run(tmp_path, name, trace)
    assert result["correct"], record["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        layers = sum(values[f"{layer}.self_s"] for layer in LAYERS)
        assert layers == pytest.approx(values["cli.estimate_traced_s"], rel=1e-9)
        assert values["aline.agreement_line_calls"] == 2
        assert os.path.isfile(os.path.join(run.ROOT, record["spans"]))
    else:
        assert all(v > 0 for v in values.values())


def _corrupt_reports(monkeypatch, which):
    """Make EstimateReport.to_json write a wrong ID performance on the calls in ``which``."""
    import aglkit.report
    original = aglkit.report.EstimateReport.to_json
    calls = []

    def to_json(self):
        calls.append(1)
        text = original(self)
        if len(calls) in which:
            doc = json.loads(text)
            doc["per_model"][0]["id_perf"] += 0.125
            text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
        return text

    monkeypatch.setattr(aglkit.report.EstimateReport, "to_json", to_json)


@pytest.mark.parametrize("which", [{2}, set(range(1, 1000))], ids=["one", "all"])
def test_corrupted_report_counts_as_failed(tmp_path, monkeypatch, which):
    run._import_aglkit()
    _corrupt_reports(monkeypatch, which)
    result, record = _run(tmp_path, "agree-128x1000", trace=1)
    assert not result["correct"]
    assert 1 <= result["failed"] <= result["attempted"]
    if len(which) > 1:
        assert result["failed"] == result["attempted"]
        assert any("ID performance differs" in p for p in record["problems"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "cls-8x2000",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_every_metric_documented():
    with open(os.path.join(run.HERE, "metrics.json")) as fh:
        doc = json.load(fh)
    for kind in ("end_to_end", "per_layer"):
        assert sorted(doc[kind]) == sorted(m["name"] for m in SPEC[kind])
    assert sorted(doc["workloads"]) == sorted(WORKLOADS)
