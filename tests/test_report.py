import csv
import io
import json
import math
from dataclasses import replace

import numpy as np
import pytest

import aglkit.aline
import aglkit.baselines
import aglkit.report
from aglkit.datamodel import (
    METRIC_ACCURACY,
    METRIC_F1,
    ClassificationLog,
    SpanExample,
    SpanLog,
    SplitPair,
)
from aglkit.errors import LengthMismatch, ToolkitError, ZeroTruth
from aglkit.probit import LineFit, clamp_rate, probit
from aglkit.report import (
    ALINE_METHODS,
    ALL_METHODS,
    CONFIDENCE_METHODS,
    METHODS,
    SCATTER_COLUMNS,
    ReportOptions,
    build_report,
    build_report_from_matrices,
    export_scatter,
    mape,
    scatter_to_csv,
)
from aglkit.closed_form import exact_agl_inputs
from aglkit.synth import SynthConfig, generate

from conftest import calibrated_span_log, readme_table

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
    assert report.inputs.id_perf.tolist() == pytest.approx([id_f1, id_f1], abs=1e-15)
    assert report.estimates["atc.raw"].tolist() == [atc, atc]
    assert report.estimates["doc_feat.raw"].tolist() == pytest.approx([doc, doc], abs=1e-12)


def test_build_report_records_method_errors():
    pair, _ = _synth_pair(n_models=2)
    report = build_report(pair, methods=["aline_d", "naive_agreement"])
    assert "aline_d" in report.method_errors
    assert "InsufficientModels" in report.method_errors["aline_d"]
    assert "naive_agreement" in report.estimates


def test_readme_method_table_is_report_methods():
    """README "Report format" lists the methods as ``METHODS`` does, row by row and in
    order, with the estimate names each fills: a literal copy that also pins the derived
    tuples and ESTIMATE_NAMES."""
    rows = readme_table("Flag")
    assert [(flag, name, reads) for flag, name, _, reads in rows] == \
        [(flag, name, "yes" if reads_logits else "no")
         for name, (flag, reads_logits) in METHODS.items()]
    assert ALL_METHODS == tuple(name for _, name, _, _ in rows)
    assert CONFIDENCE_METHODS == tuple(name for _, name, _, reads in rows if reads == "yes")
    for _, name, names, reads in rows:
        assert names.split(", ") == ([f"{name}.raw", f"{name}.temp_scaled"]
                                     if reads == "yes" else [name])
    assert {n for _, _, names, _ in rows for n in names.split(", ")} == ESTIMATE_NAMES


def test_methods_that_read_logits_fail_on_logs_without_them():
    """One MissingLogits error per confidence method, and no estimate."""
    pair, _ = _synth_pair()
    bare = SplitPair(*([replace(log, logits=None) for log in logs]
                       for logs in (pair.id_logs, pair.ood_logs)), pair.metric)
    report = build_report(bare, methods=CONFIDENCE_METHODS)
    assert list(report.method_errors) == list(CONFIDENCE_METHODS)
    assert all(msg.startswith("MissingLogits: ") for msg in report.method_errors.values())
    assert not report.estimates


def test_build_report_records_an_unknown_method():
    pair, _ = _synth_pair()
    report = build_report(pair, methods=["bogus", "naive_agreement"])
    assert report.method_errors == {"bogus": "ToolkitError: unknown method 'bogus'"}
    assert report.estimates.keys() == {"naive_agreement"}
    assert report.estimates["naive_agreement"].shape == (3,)


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
    assert len(fits) == len(pair.id_logs)
    assert all(fit is log for fit, log in zip(fits, pair.id_logs))
    assert len(confidences) == 4 * len(pair.id_logs)


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
    # every method that reads no logits, in table order
    assert list(report.estimates) == [m for m, (_, reads_logits) in METHODS.items()
                                      if not reads_logits]
    assert report.agreement_fit.slope == pytest.approx(0.7, abs=1e-8)


@pytest.mark.parametrize("shape", [(2, 2), (3, 2)])
@pytest.mark.parametrize("split", ["id", "ood"])
def test_matrix_report_rejects_misshapen_agreement(shape, split):
    good = np.full((3, 3), 0.6)
    bad = np.full(shape, 0.7)
    agr_id, agr_ood = (bad, good) if split == "id" else (good, bad)
    with pytest.raises(LengthMismatch):
        build_report_from_matrices([0.8, 0.7, 0.6], agr_id, agr_ood, ["a", "b", "c"])


def test_matrix_report_rejects_misaligned_model_ids():
    with pytest.raises(LengthMismatch):
        build_report_from_matrices([0.8, 0.7, 0.6], np.full((3, 3), 0.7),
                                   np.full((3, 3), 0.6), ["a", "b"])
    # with misshapen matrices as well, the model_ids mismatch is named first
    with pytest.raises(LengthMismatch, match="2 model_ids for 3 models"):
        build_report_from_matrices([0.8, 0.7, 0.6], np.full((2, 2), 0.7),
                                   np.full((3, 2), 0.6), ["a", "b"])


@pytest.mark.parametrize("truth", [[0.6] * 4, [0.6] * 6, [[0.6] * 5]])
def test_matrix_report_rejects_misshapen_true_ood_perf(truth):
    id_acc, agr_id, agr_ood, _ = exact_agl_inputs(SynthConfig(n_models=5))
    with pytest.raises(LengthMismatch, match=r"true_ood_perf shape \(.*\) != \(5,\)"):
        build_report_from_matrices(id_acc, agr_id, agr_ood, [f"m{i}" for i in range(5)],
                                   true_ood_perf=truth)


def test_matrix_report_out_of_range_agreement_fails_only_aline():
    """One OOD agreement of 1.5 fails both ALine methods with DomainError; the
    naive estimate and the accuracy fit, which never read its probit, still run."""
    config = SynthConfig(n_models=4, line_slope=0.7, line_bias=-0.3)
    id_acc, agr_id, agr_ood, true_ood = exact_agl_inputs(config)
    agr_ood[1, 2] = agr_ood[2, 1] = 1.5
    report = build_report_from_matrices(id_acc, agr_id, agr_ood, [f"m{i}" for i in range(4)],
                                        true_ood_perf=true_ood)
    assert set(report.method_errors) == set(ALINE_METHODS)
    for method in ALINE_METHODS:
        assert report.method_errors[method].startswith("DomainError: rate 1.5 outside")
    assert report.estimates.keys() == {"naive_agreement"}
    assert report.agreement_fit is None
    assert isinstance(report.accuracy_fit, LineFit)


def test_matrix_report_with_equal_id_accuracies_has_no_accuracy_fit():
    """Equal ID accuracies leave the accuracy line undefined; the estimates, read off
    the agreement line, are still scored."""
    _, agr_id, agr_ood, true_ood = exact_agl_inputs(SynthConfig(n_models=4))
    report = build_report_from_matrices(np.full(4, 0.8), agr_id, agr_ood,
                                        [f"m{i}" for i in range(4)], true_ood_perf=true_ood)
    assert report.accuracy_fit is None
    assert isinstance(report.agreement_fit, LineFit)
    assert not report.method_errors
    assert report.mape_by_method.keys() == report.estimates.keys() == {
        "aline_s", "aline_d", "naive_agreement"}
    assert all(math.isfinite(value) for value in report.mape_by_method.values())
    assert json.loads(report.to_json())["fits"]["accuracy_fit"] is None


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


def test_export_scatter_axis_ticks_equal_scalar_probits():
    pair, _ = _synth_pair()
    rows = export_scatter(build_report(pair))
    ticks = [r for r in rows if r["kind"] == "axis_tick"]
    assert [r["tag"] for r in ticks] == [f"0.{k}" for k in range(1, 10)]
    for row, tick in zip(ticks, (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)):
        assert row["x_raw"] == row["y_raw"] == tick
        assert row["x_probit"] == row["y_probit"] == float(probit(tick))
        assert type(row["x_probit"]) is float


def test_report_transforms_each_rate_once(monkeypatch):
    """An evaluated report transforms ID performance, both agreements and the
    truth once each; a scatter adds only one call for the ticks, because it
    reads the probits the fits were made from, the truth's included."""
    calls = [_counting(monkeypatch, module, "probit") for module in (aglkit.aline, aglkit.report)]
    pair, _ = _synth_pair(n_models=4)
    report = build_report(pair, options=ReportOptions(evaluation_mode=True))
    assert not report.method_errors
    assert sum(map(len, calls)) == 4
    first = export_scatter(report)
    assert sum(map(len, calls)) == 5
    assert export_scatter(report) == first
    assert sum(map(len, calls)) == 6


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


def test_logs_built_from_lists_report_as_logs_built_from_arrays():
    """List labels and logits become arrays, so each model scores as it does from
    arrays rather than as one ``list == list`` bool."""
    id_logs, ood_logs, _ = generate(SynthConfig(n_models=4, n_examples_id=6,
                                                n_examples_ood=6, seed=3))

    def as_lists(logs):
        return [ClassificationLog(model_id=log.model_id, split_id=log.split_id,
                                  n_classes=log.n_classes, gold=log.gold.tolist(),
                                  predicted=log.predicted.tolist(), logits=log.logits.tolist())
                for log in logs]

    options = ReportOptions(evaluation_mode=True)
    from_arrays, from_lists = (
        build_report(SplitPair(ids, oods, METRIC_ACCURACY), options=options).to_json()
        for ids, oods in ((id_logs, ood_logs), (as_lists(id_logs), as_lists(ood_logs))))
    assert from_lists == from_arrays
    report = json.loads(from_arrays)
    assert len({row["id_perf"] for row in report["per_model"]}) > 1
    assert not report["method_errors"]
