import csv
import io
import json

import numpy as np
import pytest

import aglkit.baselines
from aglkit.datamodel import METRIC_ACCURACY, SplitPair
from aglkit.errors import LengthMismatch, ToolkitError, ZeroTruth
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
    assert set(report.estimates) == set(ALL_METHODS)
    assert not report.method_errors
    for method in ALL_METHODS:
        est = report.estimates[method]
        assert isinstance(est, np.ndarray)
        assert est.shape == (3,)
        assert np.all((est >= 0) & (est <= 1))
    for method in CONFIDENCE_METHODS:
        assert len(report.used_temperature[method]) == 3
    assert report.agreement_fit is not None
    assert report.accuracy_fit is not None
    assert set(report.mape_by_method) == set(ALL_METHODS)
    assert report.true_ood_perf is not None
    assert set(report.gates) == set(ALINE_METHODS)


def test_build_report_blind_mode():
    pair, _ = _synth_pair()
    report = build_report(pair, options=ReportOptions(evaluation_mode=False))
    assert report.true_ood_perf is None
    assert report.mape_by_method is None
    assert report.accuracy_fit is None
    for method in CONFIDENCE_METHODS:
        est = report.estimates[method]
        assert set(est) == {"raw", "temp_scaled"}
        assert est["raw"].shape == (3,)


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
    assert set(doc["mape"]) == set(ALL_METHODS)


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
