"""Traced call counts of ``aglkit estimate`` on each benchmark workload at toy size.

The workloads and the tracer are the benchmark's own (``perfbench/``), imported
read-only. Each workload is written with 5 models and 60 examples per split (16
tokens on QA) and estimated with its own flags inside a ``Tracer``; the counts
follow the same formulas at the benchmark's full sizes.
"""

import os
import sys
from collections import Counter
from dataclasses import replace

import pytest

from aglkit.cli import EXIT_OK, main

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402

N_MODELS = 5


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_call_counts(tmp_path, name):
    workload = WORKLOADS[name]
    toy = replace(workload, n_models=N_MODELS, n_examples=60,
                  n_tokens=min(workload.n_tokens, 16))
    manifest, _, _ = write_inputs(toy, seed=5, out_dir=str(tmp_path / "in"))
    with Tracer() as tracer:
        assert main(toy.cli_args(manifest, str(tmp_path / "out"))) == EXIT_OK
    calls = Counter(tracer.names)
    logits = workload.kind != "agree"  # agree's logs carry none, and it runs no baseline
    expected = {
        "datamodel.load_log": 2 * N_MODELS,  # one per model and split
        "aline.agreement_line": 2,
        # ID performance, ID and OOD agreement, OOD truth; the scatter adds its axis ticks
        "probit.probit": 5 if workload.scatter else 4,
        "baselines.fit_temperature": N_MODELS if logits else 0,  # once per ID log
        "baselines.confidence": 4 * N_MODELS if logits else 0,  # raw and scaled, ID and OOD
    }
    assert {key: calls[key] for key in expected} == expected
