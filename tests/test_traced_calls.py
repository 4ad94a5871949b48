"""Traced call counts of ``aglkit estimate`` on each benchmark workload: the one home
of the call-count contract.

The workloads, the tracer and the output check are the benchmark's own
(``perfbench/``), imported read-only. Each workload is written at toy size (5
models and 60 examples per split, 16 tokens on QA) and at its full benchmark size
at the seed of the benchmark smoke step, and estimated with its own flags inside a
``Tracer``. The counts follow one formula in the model count n at both sizes, and
``report.json`` must match ``check.Reference``'s independent recomputation.
"""

import os
import sys
from collections import Counter
from dataclasses import replace

import pytest

from aglkit.cli import EXIT_OK, main

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
from check import Reference  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402

TOY_SEED, FULL_SEED = 5, 101


@pytest.mark.parametrize("name,full", [
    pytest.param(name, full, id=f"{name}-full" if full else name)
    for full in (False, True) for name in sorted(WORKLOADS)])
def test_traced_call_counts(tmp_path, name, full):
    workload = WORKLOADS[name]
    if not full:
        workload = replace(workload, n_models=5, n_examples=60,
                           n_tokens=min(workload.n_tokens, 16))
    manifest, arrays, _ = write_inputs(workload, seed=FULL_SEED if full else TOY_SEED,
                                       out_dir=str(tmp_path / "in"))
    out = tmp_path / "out"
    with Tracer() as tracer:
        assert main(workload.cli_args(manifest, str(out))) == EXIT_OK
    calls = Counter(tracer.names)
    n = workload.n_models
    logits = workload.kind != "agree"  # agree's logs carry none, and it runs no baseline
    expected = {
        "datamodel.load_log": 2 * n,  # one per model and split
        # load_log validates each log it reads, and SplitPair every log it holds
        "datamodel.validate_log": 4 * n,
        "aline.agreement_line": 2,
        "probit.fit_line": 2,  # the agreement line, once for ALine-S and -D; the accuracy line
        # ID performance, ID and OOD agreement, OOD truth; the scatter adds its axis ticks
        "probit.probit": 5 if workload.scatter else 4,
        "baselines.fit_temperature": n if logits else 0,  # once per ID log
        "baselines.confidence": 4 * n if logits else 0,  # raw and scaled, ID and OOD
    }
    assert {key: calls[key] for key in expected} == expected
    assert Reference(arrays).problems((out / "report.json").read_bytes()) == []
