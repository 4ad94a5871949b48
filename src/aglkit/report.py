"""Aggregates estimates across methods into a scored, exportable report."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__ as toolkit_version
from .aline import METHOD_ALINE_D, METHOD_ALINE_S, AlineInput, aline_d, aline_s, gate
from .baselines import (
    METHOD_AC,
    METHOD_ATC,
    METHOD_DOC_FEAT,
    METHOD_NAIVE_AGREEMENT,
    confidence_scores,
    naive_agreement_estimate,
    with_and_without_temperature,
)
from .datamodel import SplitPair
from .errors import InsufficientModels, InvalidConfig, LengthMismatch, ToolkitError, ZeroTruth
from .metrics import agreement_matrix, performance
from .probit import CLAMP_EPS, LineFit, clamp_rate, fit_line, normal_cdf, probit

ALINE_METHODS = (METHOD_ALINE_S, METHOD_ALINE_D)
CONFIDENCE_METHODS = (METHOD_AC, METHOD_ATC, METHOD_DOC_FEAT)
ALL_METHODS = ALINE_METHODS + CONFIDENCE_METHODS + (METHOD_NAIVE_AGREEMENT,)

SCATTER_COLUMNS = ("kind", "tag", "x_raw", "y_raw", "x_probit", "y_probit")


def mape(estimates, truths) -> float:
    """Mean absolute percentage error, in percent."""
    est = np.asarray(estimates, dtype=np.float64)
    tru = np.asarray(truths, dtype=np.float64)
    if est.shape != tru.shape or est.ndim != 1 or len(est) < 1:
        raise LengthMismatch(f"shapes {est.shape} vs {tru.shape}")
    if np.any(tru == 0.0):
        raise ZeroTruth("truth vector contains a zero")
    return float(100.0 * np.mean(np.abs(est - tru) / tru))


@dataclass
class ReportOptions:
    gate_threshold: float = 0.95
    clamp_eps: float = CLAMP_EPS
    evaluation_mode: bool = False

    def __post_init__(self):
        if not 0.0 < self.clamp_eps < 0.5:  # false for NaN
            raise InvalidConfig(f"clamp_eps {self.clamp_eps} not in (0, 0.5)")
        if not 0.0 <= self.gate_threshold <= 1.0:
            raise InvalidConfig(f"gate_threshold {self.gate_threshold} not in [0, 1]")


@dataclass
class EstimateReport:
    model_ids: list[str]
    id_perf: np.ndarray
    true_ood_perf: np.ndarray | None
    agr_id: np.ndarray  # (n, n), kept for export_scatter, not serialized
    agr_ood: np.ndarray
    # name -> (n,) estimates, each confidence method as "<method>.raw" and
    # "<method>.temp_scaled"; no estimate reads OOD labels
    estimates: dict = field(default_factory=dict)
    method_errors: dict = field(default_factory=dict)
    agreement_fit: LineFit | None = None
    accuracy_fit: LineFit | None = None
    gates: dict = field(default_factory=dict)
    mape_by_method: dict | None = None  # name -> MAPE; all None if an OOD score is 0
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        per_model = []
        for i, mid in enumerate(self.model_ids):
            row = {"model_id": mid, "id_perf": float(self.id_perf[i]),
                   "estimates": {name: float(est[i]) for name, est in self.estimates.items()}}
            if self.true_ood_perf is not None:
                row["true_ood_perf"] = float(self.true_ood_perf[i])
            per_model.append(row)
        return {
            "per_model": per_model,
            "fits": {name: None if fit is None else asdict(fit) for name, fit in
                     (("agreement_fit", self.agreement_fit), ("accuracy_fit", self.accuracy_fit))},
            "gates": dict(sorted(self.gates.items())),
            "method_errors": dict(sorted(self.method_errors.items())),
            "mape": (None if self.mape_by_method is None
                     else dict(sorted(self.mape_by_method.items()))),
            "metadata": self.metadata,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def _build(model_ids, metric, splits, id_perf, true_ood, agr_id: np.ndarray,
           agr_ood: np.ndarray, methods, options: ReportOptions,
           pair: SplitPair | None = None) -> EstimateReport:
    """Run every requested method once; failures become per-method entries.

    ``true_ood`` (or None) switches evaluation on; ``pair`` carries the
    logs the confidence methods need.
    """
    report = EstimateReport(
        model_ids=model_ids, id_perf=id_perf, true_ood_perf=true_ood,
        agr_id=agr_id, agr_ood=agr_ood,
        metadata={"metric": metric, "id_split": splits[0], "ood_split": splits[1],
                  "gate_threshold": options.gate_threshold,
                  "clamp_eps": options.clamp_eps,
                  "evaluation_mode": true_ood is not None,
                  "toolkit_version": toolkit_version})
    aline_input = None
    if any(m in methods for m in ALINE_METHODS):
        aline_input = AlineInput(id_perf=id_perf, agr_id=agr_id, agr_ood=agr_ood,
                                 clamp_eps=options.clamp_eps)
    scores = None  # one temperature fit and four confidence vectors per model
    for method in methods:
        try:
            if method in ALINE_METHODS:
                estimator = aline_s if method == METHOD_ALINE_S else aline_d
                report.estimates[method], report.agreement_fit = estimator(aline_input)
                report.gates[method] = gate(report.agreement_fit, options.gate_threshold)
            elif method == METHOD_NAIVE_AGREEMENT:
                report.estimates[method] = naive_agreement_estimate(agr_ood)
            elif method in CONFIDENCE_METHODS:
                if scores is None:
                    scores = [confidence_scores(id_log, ood_log)
                              for id_log, ood_log in zip(pair.id_logs, pair.ood_logs)]
                report.estimates[f"{method}.raw"], report.estimates[f"{method}.temp_scaled"] = \
                    np.array([with_and_without_temperature(method, perf, s)
                              for perf, s in zip(id_perf.tolist(), scores)]).T
            else:
                raise ToolkitError(f"unknown method {method!r}")
        except ToolkitError as exc:
            report.method_errors[method] = f"{type(exc).__name__}: {exc}"

    if true_ood is not None:
        try:
            report.accuracy_fit = fit_line(probit(clamp_rate(id_perf, options.clamp_eps)),
                                           probit(clamp_rate(true_ood, options.clamp_eps)))
        except ToolkitError:
            report.accuracy_fit = None
        try:
            report.mape_by_method = {name: mape(est, true_ood)
                                     for name, est in report.estimates.items()}
        except ZeroTruth:  # a model scores 0 OOD: no percentage error is defined
            report.mape_by_method = dict.fromkeys(report.estimates)
    return report


def build_report(pair: SplitPair, methods=ALL_METHODS,
                 options: ReportOptions | None = None) -> EstimateReport:
    """Report for the logs of a split pair; OOD labels are read only in
    evaluation mode."""
    options = options or ReportOptions()
    id_perf = np.array([performance(log, pair.metric) for log in pair.id_logs])
    true_ood = None
    if options.evaluation_mode:
        true_ood = np.array([performance(log, pair.metric) for log in pair.ood_logs])
    return _build(pair.model_ids, pair.metric,
                  (pair.id_logs[0].split_id, pair.ood_logs[0].split_id),
                  id_perf, true_ood,
                  agreement_matrix(pair.id_logs, pair.metric),
                  agreement_matrix(pair.ood_logs, pair.metric),
                  list(methods), options, pair)


def build_report_from_matrices(id_perf, agr_id_values, agr_ood_values, model_ids,
                               metric="accuracy", true_ood_perf=None,
                               options: ReportOptions | None = None) -> EstimateReport:
    """Agreement-based report for precomputed performance/agreement matrices.

    Covers the estimators that need no logits (ALine-S, ALine-D, naive
    agreement); useful for closed-form fixtures and externally computed
    summaries. Passing ``true_ood_perf`` turns on evaluation.
    """
    model_ids = list(model_ids)
    id_perf = np.asarray(id_perf, dtype=np.float64)
    if len(model_ids) != len(id_perf):
        raise InsufficientModels(f"{len(model_ids)} model_ids for {len(id_perf)} models")
    return _build(model_ids, metric, ("id", "ood"), id_perf,
                  None if true_ood_perf is None else np.asarray(true_ood_perf),
                  np.asarray(agr_id_values, dtype=np.float64),
                  np.asarray(agr_ood_values, dtype=np.float64),
                  ALINE_METHODS + (METHOD_NAIVE_AGREEMENT,), options or ReportOptions())


def export_scatter(report: EstimateReport):
    """Rows for a Figure-style ID/OOD scatter: accuracy points, agreement
    points (from the report's agreement matrices), fitted-line endpoints,
    and probit-scaled axis ticks. Rates are clamped at the report's ε, as
    its fits were."""
    clamp_eps = report.metadata["clamp_eps"]
    ids = report.model_ids
    n = len(ids)
    i, j = np.triu_indices(n, k=1)
    truth = report.true_ood_perf
    x_raw = np.concatenate([report.id_perf, report.agr_id[i, j]])
    y_raw = np.concatenate([truth if truth is not None else np.full(n, np.nan),
                            report.agr_ood[i, j]])
    x_probit = probit(clamp_rate(x_raw, clamp_eps))
    y_probit = np.full(len(y_raw), np.nan)
    scored = slice(0 if truth is not None else n, None)  # no y for accuracy rows when blind
    y_probit[scored] = probit(clamp_rate(y_raw[scored], clamp_eps))
    kinds = ["accuracy"] * n + ["agreement"] * len(i)
    tags = list(ids) + [f"{ids[a]}|{ids[b]}" for a, b in zip(i, j)]
    rows = [dict(zip(SCATTER_COLUMNS, values)) for values in
            zip(kinds, tags, x_raw.tolist(), y_raw.tolist(),
                x_probit.tolist(), y_probit.tolist())]
    lo, hi = float(x_probit.min()), float(x_probit.max())
    for kind, fit in (("accuracy_fit", report.accuracy_fit),
                      ("agreement_fit", report.agreement_fit)):
        if fit is None:
            continue
        for tag, x in (("p0", lo), ("p1", hi)):
            y = fit.predict(x)
            rows.append({"kind": kind, "tag": tag,
                         "x_raw": float(normal_cdf(x)), "y_raw": float(normal_cdf(y)),
                         "x_probit": x, "y_probit": y})
    for tick in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
        p = float(probit(tick))
        rows.append({"kind": "axis_tick", "tag": f"{tick:.1f}",
                     "x_raw": tick, "y_raw": tick, "x_probit": p, "y_probit": p})
    return rows


def scatter_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=SCATTER_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: (f"{v:.17g}" if isinstance(v, float) else v)
                         for k, v in row.items()})
    return buf.getvalue()
