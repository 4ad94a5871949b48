"""Metamorphic relations of the whole estimate, checked through ``build_report`` on
logs built in memory. Each relation follows from the maths alone, so it trusts
neither an older implementation nor a reference one.

ALine (Baek et al., 2022) reads only rates, and the confidence baselines read only
each model's ID performance and its own per-example confidences, so renaming the
models by a permutation permutes every per-model quantity and changes no value.
"""

import numpy as np
import pytest

from aglkit.datamodel import METRIC_ACCURACY, METRIC_F1, SplitPair
from aglkit.report import ReportOptions, build_report
from aglkit.synth import SynthConfig, generate

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
