"""Acceptance gate: nine quantitative criteria with runtime budgets.

Each test prints one PASS line when its criterion holds; pytest -v adds
the authoritative per-criterion pass/fail line.
"""

import copy
import json
import math
import time

import numpy as np
import pytest

from aglkit.aline import AlineInput, agreement_line, aline_d, aline_s, gate
from aglkit.baselines import (
    METHOD_AC,
    METHOD_ATC,
    METHOD_DOC_FEAT,
    _mean_ce,
    atc_threshold,
    confidence,
    confidence_scores,
    fit_temperature,
    naive_agreement_estimate,
    with_and_without_temperature,
)
from aglkit.cli import EXIT_OK, main
from aglkit.datamodel import METRIC_ACCURACY, METRIC_EXACT_MATCH, METRIC_F1, ClassificationLog
from aglkit.metrics import agreement, agreement_matrix, performance
from aglkit.probit import LineFit, fit_line, normal_cdf, probit
from aglkit.report import build_report_from_matrices, mape
from aglkit.closed_form import closed_form_agreement, exact_agl_inputs
from aglkit.synth import SynthConfig, generate

from conftest import (
    calibrated_classification_log,
    calibrated_span_log,
    make_classification_log,
    make_span_log,
)


def _budget(start, limit, label):
    elapsed = time.perf_counter() - start
    assert elapsed < limit, f"{label} took {elapsed:.1f}s, budget {limit}s"
    return elapsed


def test_criterion_1_probit_round_trip():
    start = time.perf_counter()
    grid = np.linspace(1e-8, 1 - 1e-8, 10_000)
    worst = max(abs(normal_cdf(probit(p)) - p) for p in grid)
    assert worst < 1e-9
    assert probit(0.5) == 0.0
    # moderate p only: in the far tails the rounding of the float 1 - p
    # itself already moves the probit by more than 1e-12
    for p in (0.01, 0.1, 0.2, 0.37, 0.49):
        assert abs(probit(p) + probit(1 - p)) < 1e-12
    elapsed = _budget(start, 1.0, "criterion 1")
    print(f"[criterion 1] PASS probit round-trip max error {worst:.2e} "
          f"in {elapsed:.2f}s")


def test_criterion_2_exact_agl_recovery():
    start = time.perf_counter()
    config = SynthConfig(n_models=5, line_slope=0.7, line_bias=-0.3,
                         skill_min=0.3, skill_max=1.5)
    id_acc, agr_id, agr_ood, true_ood = exact_agl_inputs(config)
    inp = AlineInput(id_perf=id_acc, agr_id=agr_id, agr_ood=agr_ood)
    worst = 0.0
    for fn in (aline_s, aline_d):
        estimates, fit = fn(inp)
        worst = max(worst, float(np.max(np.abs(estimates - true_ood))))
        assert np.max(np.abs(estimates - true_ood)) < 1e-6
        assert abs(fit.slope - 0.7) < 1e-8
        assert abs(fit.bias - (-0.3)) < 1e-8
    elapsed = _budget(start, 1.0, "criterion 2")
    print(f"[criterion 2] PASS exact-AGL recovery, worst estimate error "
          f"{worst:.2e} in {elapsed:.2f}s")


def _gaussian_elimination(A, b):
    A = [list(map(float, row)) for row in A]
    b = list(map(float, b))
    n = len(b)
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(A[r][col]))
        A[col], A[pivot] = A[pivot], A[col]
        b[col], b[pivot] = b[pivot], b[col]
        for r in range(col + 1, n):
            f = A[r][col] / A[col][col]
            for c in range(col, n):
                A[r][c] -= f * A[col][c]
            b[r] -= f * b[col]
    x = [0.0] * n
    for r in range(n - 1, -1, -1):
        x[r] = (b[r] - sum(A[r][c] * x[c] for c in range(r + 1, n))) / A[r][r]
    return x


def test_criterion_3_aline_d_elimination_oracle():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        agr_id = np.ones((3, 3))
        agr_ood = np.ones((3, 3))
        slope = float(rng.uniform(0.4, 1.2))
        bias = float(rng.uniform(-0.5, 0.2))
        for i in range(3):
            for j in range(i + 1, 3):
                g = float(rng.uniform(0.55, 0.95))
                y = normal_cdf(slope * probit(g) + bias + 0.05 * rng.normal())
                agr_id[i, j] = agr_id[j, i] = g
                agr_ood[i, j] = agr_ood[j, i] = y
        id_perf = rng.uniform(0.6, 0.95, 3)
        inp = AlineInput(id_perf=id_perf, agr_id=agr_id, agr_ood=agr_ood)
        fit = agreement_line(inp)
        idp = [probit(p) for p in id_perf]
        rows, rhs = [], []
        for i in range(3):
            for j in range(i + 1, 3):
                coeff = [0.0] * 3
                coeff[i] = coeff[j] = 0.5
                rows.append(coeff)
                rhs.append(probit(agr_ood[i, j])
                           + fit.slope * ((idp[i] + idp[j]) / 2 - probit(agr_id[i, j])))
        oracle = np.array(_gaussian_elimination(rows, rhs))
        estimates, _ = aline_d(inp)
        solved = np.array([probit(v) for v in estimates])
        worst = max(worst, float(np.max(np.abs(solved - oracle))))
    assert worst < 1e-9
    elapsed = _budget(start, 1.0, "criterion 3")
    print(f"[criterion 3] PASS ALine-D vs elimination oracle, worst probit "
          f"error {worst:.2e} over 100 trials in {elapsed:.2f}s")


def _ensemble_lines_and_mapes(diversity, seed):
    config = SynthConfig(n_models=12, n_examples_id=20_000, n_examples_ood=20_000,
                         n_classes=10, skill_min=0.5, skill_max=1.8,
                         line_slope=0.6, line_bias=-0.4, diversity=diversity,
                         distractor_coherence=0.0, seed=seed)
    id_logs, ood_logs, _ = generate(config)
    id_acc = np.array([performance(log, METRIC_ACCURACY) for log in id_logs])
    ood_acc = np.array([performance(log, METRIC_ACCURACY) for log in ood_logs])
    agr_id = agreement_matrix(id_logs, METRIC_ACCURACY)
    agr_ood = agreement_matrix(ood_logs, METRIC_ACCURACY)
    inp = AlineInput(id_perf=id_acc, agr_id=agr_id, agr_ood=agr_ood)
    acc_fit = fit_line(probit(id_acc), probit(ood_acc))
    agr_fit = agreement_line(inp)
    mape_d = mape(aline_d(inp)[0], ood_acc)
    mape_naive = mape(naive_agreement_estimate(agr_ood), ood_acc)
    return acc_fit, agr_fit, mape_d, mape_naive


def test_criterion_4_diversity_controls_agl():
    start = time.perf_counter()
    seed = 42
    acc_hi, agr_hi, mape_d_hi, mape_naive_hi = _ensemble_lines_and_mapes(0.9, seed)
    acc_lo, agr_lo, mape_d_lo, _ = _ensemble_lines_and_mapes(0.05, seed)
    # diverse ensemble: agreement line tracks the accuracy line and ALine-D
    # beats naive agreement
    assert abs(agr_hi.slope - acc_hi.slope) < 0.1
    assert mape_d_hi < mape_naive_hi
    # clone-like ensemble: agreement hugs the diagonal, well above the
    # accuracy slope, and ALine-D degrades
    assert agr_lo.slope - acc_lo.slope >= 0.2
    assert mape_d_lo > mape_d_hi
    elapsed = _budget(start, 30.0, "criterion 4")
    print(f"[criterion 4] PASS diversity study: slope gap hi {agr_hi.slope - acc_hi.slope:+.3f}, "
          f"lo {agr_lo.slope - acc_lo.slope:+.3f}; ALine-D MAPE {mape_d_hi:.1f} -> "
          f"{mape_d_lo:.1f}, naive {mape_naive_hi:.1f}; {elapsed:.1f}s")


def _random_span_log(rng, n, n_tokens, model_id="m0"):
    spans = [(int(rng.integers(0, n_tokens)), int(rng.integers(0, n_tokens)))
             for _ in range(n)]
    gold = []
    for _ in range(n):
        gs = int(rng.integers(0, n_tokens))
        gold.append((gs, int(rng.integers(gs, n_tokens))))
    return make_span_log(spans, gold, n_tokens=n_tokens, model_id=model_id, rng=rng)


def test_criterion_5_metric_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    for trial in range(100):
        n = int(rng.integers(5, 30))
        k = int(rng.integers(2, 5))
        logs = [make_classification_log(rng.integers(0, k, n),
                                        rng.integers(0, k, n), k,
                                        model_id=f"m{i}") for i in range(3)]
        # agreement + matrix: integer-count metric, exact match required
        for a, b in ((logs[0], logs[1]), (logs[1], logs[2])):
            manual = sum(int(x == y) for x, y in zip(a.predicted, b.predicted)) / n
            assert agreement(a, b, METRIC_ACCURACY) == manual
        mat = agreement_matrix(logs, METRIC_ACCURACY)
        for i in range(3):
            for j in range(3):
                expected = 1.0 if i == j else agreement(logs[i], logs[j],
                                                        METRIC_ACCURACY)
                assert mat[i, j] == expected
        # span metrics
        qa = _random_span_log(rng, n, 8)
        spans = list(zip(qa.predicted.tolist(), qa.gold.tolist()))
        em_manual = sum(int(pred == gold) for pred, gold in spans) / n
        assert performance(qa, METRIC_EXACT_MATCH) == em_manual
        f1_scores = []
        for (pred_start, pred_end), (gold_start, gold_end) in spans:
            sa = set(range(pred_start, pred_end + 1))
            sb = set(range(gold_start, gold_end + 1))
            if not sa and not sb:
                f1_scores.append(1.0)
            elif not (sa & sb):
                f1_scores.append(0.0)
            else:
                prec = len(sa & sb) / len(sa)
                rec = len(sa & sb) / len(sb)
                f1_scores.append(2 * prec * rec / (prec + rec))
        assert abs(performance(qa, METRIC_F1) - sum(f1_scores) / n) < 1e-12
        # MAPE
        est = rng.uniform(0.3, 0.9, 4)
        tru = rng.uniform(0.3, 0.9, 4)
        manual = 100.0 * sum(abs(e - t) / t for e, t in zip(est, tru)) / 4
        assert abs(mape(est, tru) - manual) < 1e-12
        # confidence baselines on random logit logs
        logits_id = rng.normal(size=(n, k))
        logits_ood = rng.normal(size=(n, k))
        id_log = make_classification_log(logits_id.argmax(axis=1),
                                         rng.integers(0, k, n), k,
                                         logits=logits_id)
        ood_log = make_classification_log(logits_ood.argmax(axis=1),
                                          rng.integers(0, k, n), k,
                                          logits=logits_ood, split_id="ood")
        conf_id = confidence(id_log)
        conf_ood = confidence(ood_log)
        scores = confidence_scores(id_log, ood_log)
        raw = {m: with_and_without_temperature(m, performance(id_log, METRIC_ACCURACY), scores)[0]
               for m in (METHOD_AC, METHOD_ATC, METHOD_DOC_FEAT)}
        assert abs(raw[METHOD_AC] - float(np.mean(conf_ood))) < 1e-12
        acc_id = performance(id_log, METRIC_ACCURACY)
        candidates = list(np.sort(conf_id)) + [math.inf]
        tau = min(candidates,
                  key=lambda t: (abs(float(np.mean(conf_id >= t)) - acc_id), t))
        assert atc_threshold(acc_id, conf_id) == tau
        assert abs(raw[METHOD_ATC] - float(np.mean(conf_ood >= tau))) < 1e-12
        doc = min(1.0, max(0.0, acc_id - (float(np.mean(conf_id))
                                          - float(np.mean(conf_ood)))))
        assert abs(raw[METHOD_DOC_FEAT] - doc) < 1e-12
        # naive agreement
        vals = rng.uniform(0.4, 1.0, size=(4, 4))
        vals = (vals + vals.T) / 2
        np.fill_diagonal(vals, 1.0)
        naive = naive_agreement_estimate(vals)
        for i in range(4):
            manual_i = sum(vals[i, j] for j in range(4) if j != i) / 3
            assert abs(naive[i] - manual_i) < 1e-12
    elapsed = _budget(start, 5.0, "criterion 5")
    print(f"[criterion 5] PASS metric oracles over 100 randomized instances "
          f"in {elapsed:.1f}s")


def test_criterion_6_temperature_recovery():
    start = time.perf_counter()
    base = calibrated_classification_log(20_000, 2, 2.0, seed=14)
    recovered = []
    for t_star in (-0.7, 0.0, 0.7):
        log = ClassificationLog(model_id="d", split_id="id", n_classes=2,
                                gold=base.gold, predicted=base.predicted,
                                logits=base.logits * math.exp(-t_star))
        (t,) = fit_temperature(log)
        assert abs(t - t_star) < 1e-2
        assert _mean_ce(log.logits, log.gold, t) <= _mean_ce(log.logits, log.gold, 0.0)
        assert np.array_equal((log.logits * math.exp(t)).argmax(axis=1),
                              log.logits.argmax(axis=1))
        recovered.append(t)
    qa_base = calibrated_span_log(4000, 8, 2.0, seed=3)
    qa_recovered = []
    for ds, de in ((-0.7, 0.7), (0.0, 0.0)):
        distorted = copy.copy(qa_base)
        distorted.start_logits = qa_base.start_logits * math.exp(-ds)
        distorted.end_logits = qa_base.end_logits * math.exp(-de)
        t_start, t_end = fit_temperature(distorted)
        assert abs(t_start - ds) < 1e-2
        assert abs(t_end - de) < 1e-2
        qa_recovered.append((t_start, t_end))
    elapsed = _budget(start, 10.0, "criterion 6")
    print(f"[criterion 6] PASS temperature recovery, classification "
          f"{['%.4f' % t for t in recovered]}, QA {qa_recovered} in {elapsed:.1f}s")


def test_criterion_7_gating_rule():
    start = time.perf_counter()

    def fit_with(r2):
        return LineFit(slope=1.0, bias=0.0, r_squared=r2, n_points=6,
                       residual_ss=0.0)

    threshold = 0.95
    for r2 in (0.0, 0.5, 0.59, 0.9, 0.9499999, 0.95):
        assert gate(fit_with(r2), threshold) is False
    for r2 in (0.950001, 0.96, 0.99, 1.0):
        assert gate(fit_with(r2), threshold) is True
    elapsed = _budget(start, 1.0, "criterion 7")
    print(f"[criterion 7] PASS gate is strict: R^2 <= threshold rejected "
          f"in {elapsed:.2f}s")


def test_criterion_8_end_to_end_determinism(tmp_path):
    start = time.perf_counter()
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("n_models = 4\nn_examples_id = 800\nn_examples_ood = 800\n")
    reports = []
    for run in ("r1", "r2"):
        data = tmp_path / run / "data"
        assert main(["synth", "--config", str(cfg), "--seed", "7",
                     "--out", str(data)]) == EXIT_OK
        manifest = str(data / "manifest.json")
        out = tmp_path / run / "report"
        assert main(["estimate", "--id-manifest", manifest,
                     "--ood-manifest", manifest, "--out", str(out),
                     "--eval"]) == EXIT_OK
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]
    # the exact-AGL fixture's report carries sub-0.1% ALine rows
    config = SynthConfig(n_models=5, line_slope=0.7, line_bias=-0.3)
    id_acc, agr_id, agr_ood, true_ood = exact_agl_inputs(config)
    report = build_report_from_matrices(id_acc, agr_id, agr_ood,
                                        [f"m{i}" for i in range(5)],
                                        true_ood_perf=true_ood)
    assert report.mape_by_method["aline_s"] < 0.1
    assert report.mape_by_method["aline_d"] < 0.1
    doc = json.loads(report.to_json())
    assert doc["mape"]["aline_s"] < 0.1
    elapsed = _budget(start, 60.0, "criterion 8")
    print(f"[criterion 8] PASS byte-identical reports; fixture ALine MAPE "
          f"(%) S={report.mape_by_method['aline_s']:.2e} "
          f"D={report.mape_by_method['aline_d']:.2e} in {elapsed:.1f}s")


def test_criterion_9_convergence_to_closed_form():
    start = time.perf_counter()
    settings = [(1.0, 0.3), (0.9, 0.8), (0.6, 0.5), (0.3, 1.2), (0.05, 1.0)]
    n = 100_000
    for idx, (diversity, skill) in enumerate(settings):
        config = SynthConfig(n_models=2, n_examples_id=n, n_examples_ood=1,
                             skill_min=skill, skill_max=skill,
                             diversity=diversity, seed=100 + idx)
        id_logs, _, _ = generate(config)
        p = closed_form_agreement(config, 0, 1, "id")
        emp = agreement(id_logs[0], id_logs[1], METRIC_ACCURACY)
        se = math.sqrt(p * (1 - p) / n)
        assert abs(emp - p) < 3 * se, (
            f"setting (rho={diversity}, skill={skill}): |{emp:.5f} - {p:.5f}| "
            f">= 3*{se:.5f}")
    elapsed = _budget(start, 60.0, "criterion 9")
    print(f"[criterion 9] PASS empirical agreement within 3 SE of closed form "
          f"for {len(settings)} settings at n={n} in {elapsed:.1f}s")
