import csv
import io
import json
import math

import numpy as np
import pytest

import aglkit.baselines
from aglkit.datamodel import METRIC_ACCURACY, METRIC_F1, SpanExample, SpanLog, SplitPair
from aglkit.errors import InsufficientModels, LengthMismatch, ToolkitError, ZeroTruth
from aglkit.probit import clamp_rate, probit
from aglkit.report import (
    ALINE_METHODS,
    ALL_METHODS,
    CONFIDENCE_METHODS,
    SCATTER_COLUMNS,
    ReportOptions,
    build_report,
    build_report_from_matrices,
    export_scatter,
    mape,
    scatter_to_csv,
)
from aglkit.synth import SynthConfig, exact_agl_inputs, generate

from conftest import calibrated_span_log

# every estimate a full report holds: each confidence method once per variant
ESTIMATE_NAMES = ({m for m in ALL_METHODS if m not in CONFIDENCE_METHODS}
                  | {f"{m}.{v}" for m in CONFIDENCE_METHODS for v in ("raw", "temp_scaled")})


def test_mape_matches_loop_oracle(rng):
    est = rng.uniform(0.4, 0.9, 6)
    tru = rng.uniform(0.4, 0.9, 6)
    manual = 100.0 * sum(abs(e - t) / t for e, t in zip(est, tru)) / 6
    assert mape(est, tru) == pytest.approx(manual, abs=1e-12)
    assert mape([0.5], [0.5]) == 0.0


def test_mape_errors():
    with pytest.raises(ZeroTruth):
        mape([0.5, 0.5], [0.5, 0.0])
    with pytest.raises(LengthMismatch):
        mape([0.5, 0.5], [0.5])
    with pytest.raises(LengthMismatch):
        mape([], [])


@pytest.mark.parametrize("options", [
    {"clamp_eps": float("nan")}, {"clamp_eps": 0.7}, {"clamp_eps": 0.0},
    {"gate_threshold": float("nan")}, {"gate_threshold": 1.01}, {"gate_threshold": -0.5},
])
def test_report_options_out_of_range_rejected(options):
    with pytest.raises(ToolkitError):
        ReportOptions(**options)
    ReportOptions(clamp_eps=0.49, gate_threshold=0.0)
    ReportOptions(clamp_eps=1e-12, gate_threshold=1.0)


def _synth_pair(n_models=3, n=300, seed=6):
    config = SynthConfig(n_models=n_models, n_examples_id=n, n_examples_ood=n,
                         seed=seed)
    id_logs, ood_logs, truth = generate(config)
    return SplitPair(id_logs=id_logs, ood_logs=ood_logs,
                     metric=METRIC_ACCURACY), truth


def test_build_report_eval_mode():
    pair, _ = _synth_pair()
    report = build_report(pair, options=ReportOptions(evaluation_mode=True))
    assert set(report.estimates) == ESTIMATE_NAMES
    assert not report.method_errors
    for name in ESTIMATE_NAMES:
        est = report.estimates[name]
        assert isinstance(est, np.ndarray)
        assert est.shape == (3,)
        assert np.all((est >= 0) & (est <= 1))
    assert report.agreement_fit is not None
    assert report.accuracy_fit is not None
    assert set(report.mape_by_method) == ESTIMATE_NAMES
    assert report.true_ood_perf is not None
    assert set(report.gates) == set(ALINE_METHODS)


def test_build_report_blind_mode():
    pair, _ = _synth_pair()
    report = build_report(pair, options=ReportOptions(evaluation_mode=False))
    assert report.true_ood_perf is None
    assert report.mape_by_method is None
    assert report.accuracy_fit is None
    assert set(report.estimates) == ESTIMATE_NAMES
    for method in CONFIDENCE_METHODS:
        assert report.estimates[f"{method}.raw"].shape == (3,)
        assert report.estimates[f"{method}.temp_scaled"].shape == (3,)


def _qa_pair():
    id_logs = [calibrated_span_log(60, 10, 1.0 + 0.5 * m, seed=m, model_id=f"m{m}")
               for m in range(3)]
    ood_logs = [calibrated_span_log(60, 10, 0.5 + 0.5 * m, seed=50 + m, model_id=f"m{m}",
                                    split_id="ood") for m in range(3)]
    return SplitPair(id_logs=id_logs, ood_logs=ood_logs, metric=METRIC_F1)


@pytest.mark.parametrize("make_pair", [lambda: _synth_pair()[0], _qa_pair],
                         ids=["classification", "qa"])
def test_eval_mode_never_changes_an_estimate(make_pair):
    """--eval only adds truth, the accuracy fit and one MAPE per estimate."""
    pair = make_pair()
    blind, scored = (build_report(pair, options=ReportOptions(evaluation_mode=mode)).to_dict()
                     for mode in (False, True))
    assert blind["per_model"][0]["estimates"].keys() == ESTIMATE_NAMES
    assert [row["estimates"] for row in scored["per_model"]] == \
        [row["estimates"] for row in blind["per_model"]]
    assert scored["mape"].keys() == ESTIMATE_NAMES


def _peaked_span_log(peaks, model_id, split_id):
    """Four 4-token QA examples whose start and end logits are 0 except ``peak`` at
    the predicted tokens; the spans give exact match 1/4 and F1 (1 + 0.8 + 0.4 + 0)/4."""
    examples = []
    for (ps, pe), (gs, ge), peak in zip([(0, 1), (0, 2), (1, 1), (2, 3)],
                                        [(0, 1), (0, 1), (0, 3), (0, 0)], peaks):
        start, end = np.zeros(4), np.zeros(4)
        start[ps] = end[pe] = peak
        examples.append(SpanExample(n_tokens=4, start_logits=start, end_logits=end,
                                    gold_start=gs, gold_end=ge, pred_start=ps, pred_end=pe))
    return SpanLog(model_id=model_id, split_id=split_id, examples=examples)


def test_confidence_baselines_estimate_the_report_metric():
    """On QA scored by F1, ATC and DOC-Feat calibrate to the ID F1 (0.55),
    not to the ID exact match (0.25)."""
    id_peaks, ood_peaks = [1.0, 2.0, 3.0, 4.0], [0.5, 2.5, 3.5, 5.0]

    def conf(peak):  # max start probability times max end probability
        return (math.exp(peak) / (math.exp(peak) + 3.0)) ** 2
    id_f1 = (1.0 + 2 * 2 / (3 + 2) + 2 * 1 / (1 + 4) + 0.0) / 4
    # round(0.55 * 4) = 2 ID examples right: the threshold is the third-lowest ID confidence
    atc = sum(conf(p) >= conf(id_peaks[2]) for p in ood_peaks) / 4
    doc = id_f1 - (sum(map(conf, id_peaks)) - sum(map(conf, ood_peaks))) / 4
    assert (atc, round(doc, 3)) == (0.5, 0.596)
    pair = SplitPair(*([_peaked_span_log(peaks, f"m{m}", split) for m in range(2)]
                       for split, peaks in (("id", id_peaks), ("ood", ood_peaks))), METRIC_F1)
    report = build_report(pair, methods=["atc", "doc_feat"])
    assert report.id_perf.tolist() == pytest.approx([id_f1, id_f1], abs=1e-15)
    assert report.estimates["atc.raw"].tolist() == [atc, atc]
    assert report.estimates["doc_feat.raw"].tolist() == pytest.approx([doc, doc], abs=1e-12)


def test_build_report_records_method_errors():
    pair, _ = _synth_pair(n_models=2)
    report = build_report(pair, methods=["aline_d", "naive_agreement"])
    assert "aline_d" in report.method_errors
    assert "InsufficientModels" in report.method_errors["aline_d"]
    assert "naive_agreement" in report.estimates


def _counting(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that records each call's first argument."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("evaluation_mode", [False, True])
def test_build_report_fits_one_temperature_per_model(monkeypatch, evaluation_mode):
    """AC, ATC and DOC-Feat share one fit and four confidence vectors per model."""
    fits = _counting(monkeypatch, aglkit.baselines, "fit_temperature")
    confidences = _counting(monkeypatch, aglkit.baselines, "confidence")
    pair, _ = _synth_pair(n_models=4)
    report = build_report(pair, methods=CONFIDENCE_METHODS,
                          options=ReportOptions(evaluation_mode=evaluation_mode))
    assert not report.method_errors
    assert len(fits) == pair.n_models
    assert all(fit is log for fit, log in zip(fits, pair.id_logs))
    assert len(confidences) == 4 * pair.n_models


def test_report_json_deterministic():
    pair_a, _ = _synth_pair(seed=3)
    pair_b, _ = _synth_pair(seed=3)
    opts = ReportOptions(evaluation_mode=True)
    assert build_report(pair_a, options=opts).to_json() == \
        build_report(pair_b, options=opts).to_json()


def test_report_json_structure():
    pair, _ = _synth_pair()
    doc = json.loads(build_report(pair, options=ReportOptions(evaluation_mode=True))
                     .to_json())
    assert len(doc["per_model"]) == 3
    row = doc["per_model"][0]
    assert {"model_id", "id_perf", "true_ood_perf", "estimates"} <= set(row)
    assert doc["fits"]["agreement_fit"]["n_points"] == 3
    assert doc["metadata"]["metric"] == METRIC_ACCURACY
    assert doc["metadata"]["evaluation_mode"] is True
    assert set(doc["mape"]) == ESTIMATE_NAMES
    assert set(row["estimates"]) == ESTIMATE_NAMES
    assert "used_temperature" not in doc


def test_matrix_report_on_exact_fixture():
    config = SynthConfig(n_models=5, line_slope=0.7, line_bias=-0.3)
    id_acc, agr_id, agr_ood, true_ood = exact_agl_inputs(config)
    report = build_report_from_matrices(id_acc, agr_id, agr_ood,
                                        [f"m{i}" for i in range(5)],
                                        true_ood_perf=true_ood)
    assert report.mape_by_method["aline_s"] < 0.1
    assert report.mape_by_method["aline_d"] < 0.1
    assert "naive_agreement" in report.estimates
    assert report.agreement_fit.slope == pytest.approx(0.7, abs=1e-8)


@pytest.mark.parametrize("shape", [(2, 2), (3, 2)])
@pytest.mark.parametrize("split", ["id", "ood"])
def test_matrix_report_rejects_misshapen_agreement(shape, split):
    good = np.full((3, 3), 0.6)
    bad = np.full(shape, 0.7)
    agr_id, agr_ood = (bad, good) if split == "id" else (good, bad)
    with pytest.raises(InsufficientModels):
        build_report_from_matrices([0.8, 0.7, 0.6], agr_id, agr_ood, ["a", "b", "c"])


def test_matrix_report_rejects_misaligned_model_ids():
    with pytest.raises(InsufficientModels):
        build_report_from_matrices([0.8, 0.7, 0.6], np.full((3, 3), 0.7),
                                   np.full((3, 3), 0.6), ["a", "b"])


def test_export_scatter_rows():
    pair, _ = _synth_pair()
    report = build_report(pair, options=ReportOptions(evaluation_mode=True))
    rows = export_scatter(report)
    by_kind = {}
    for row in rows:
        by_kind.setdefault(row["kind"], []).append(row)
    assert len(by_kind["accuracy"]) == 3
    assert len(by_kind["agreement"]) == 3  # C(3, 2)
    assert len(by_kind["accuracy_fit"]) == 2
    assert len(by_kind["agreement_fit"]) == 2
    assert len(by_kind["axis_tick"]) == 9
    for row in by_kind["accuracy"] + by_kind["agreement"]:
        assert row["x_probit"] == pytest.approx(probit(clamp_rate(row["x_raw"])),
                                                abs=1e-12)
        assert row["y_probit"] == pytest.approx(probit(clamp_rate(row["y_raw"])),
                                                abs=1e-12)
    # fit endpoints span the data x-range and sit on the fitted lines
    xs = [r["x_probit"] for r in by_kind["accuracy"] + by_kind["agreement"]]
    p0, p1 = by_kind["agreement_fit"]
    assert p0["x_probit"] == pytest.approx(min(xs))
    assert p1["x_probit"] == pytest.approx(max(xs))
    fit = report.agreement_fit
    assert p1["y_probit"] == pytest.approx(fit.predict(p1["x_probit"]), abs=1e-12)


def test_export_scatter_clamps_at_the_report_eps():
    """Scatter points are the ones the report's agreement line was fitted to,
    clamped at the report's ε rather than the default."""
    config = SynthConfig(n_models=6, skill_min=1.5, skill_max=3.5, diversity=0.3)
    id_acc, agr_id, agr_ood, true_ood = exact_agl_inputs(config)
    report = build_report_from_matrices(id_acc, agr_id, agr_ood, [f"m{i}" for i in range(6)],
                                        true_ood_perf=true_ood,
                                        options=ReportOptions(clamp_eps=0.01))
    points = [r for r in export_scatter(report) if r["kind"] in ("accuracy", "agreement")]
    assert max(r["x_raw"] for r in points) > 0.99  # the clamp is in play
    for r in points:
        assert r["x_probit"] == probit(clamp_rate(r["x_raw"], 0.01))
        assert r["y_probit"] == probit(clamp_rate(r["y_raw"], 0.01))
    fit = report.agreement_fit
    rss = sum((r["y_probit"] - fit.predict(r["x_probit"])) ** 2
              for r in points if r["kind"] == "agreement")
    assert rss == pytest.approx(fit.residual_ss, rel=1e-12)


def test_scatter_csv_round_trip():
    pair, _ = _synth_pair()
    report = build_report(pair, options=ReportOptions(evaluation_mode=True))
    rows = export_scatter(report)
    text = scatter_to_csv(rows)
    parsed = list(csv.DictReader(io.StringIO(text)))
    assert len(parsed) == len(rows)
    assert tuple(parsed[0].keys()) == SCATTER_COLUMNS
    for raw, back in zip(rows, parsed):
        assert float(back["x_probit"]) == raw["x_probit"]  # %.17g is lossless
