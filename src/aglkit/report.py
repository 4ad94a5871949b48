"""Aggregates estimates across methods into a scored, exportable report."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, field
from functools import cached_property

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
from .errors import InvalidConfig, LengthMismatch, ToolkitError, ZeroTruth
from .metrics import agreement_matrix, performance
from .probit import CLAMP_EPS, LineFit, clamp_rate, fit_line, normal_cdf, probit

# Every method, in report order: name -> (its --methods flag, whether it reads logits).
# It holds no estimator: _build calls each through this module's globals, at call time.
METHODS = {
    METHOD_ALINE_S: ("aline-s", False), METHOD_ALINE_D: ("aline-d", False),
    METHOD_AC: ("ac", True), METHOD_ATC: ("atc", True), METHOD_DOC_FEAT: ("doc-feat", True),
    METHOD_NAIVE_AGREEMENT: ("naive", False),
}
ALINE_METHODS = (METHOD_ALINE_S, METHOD_ALINE_D)
CONFIDENCE_METHODS = tuple(m for m, (_, reads_logits) in METHODS.items() if reads_logits)
ALL_METHODS = tuple(METHODS)

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
    inputs: AlineInput  # ID performance, both agreement matrices and the clamp
    true_ood_perf: np.ndarray | None
    # name -> (n,) estimates, each confidence method as "<method>.raw" and
    # "<method>.temp_scaled"; no estimate reads OOD labels
    estimates: dict = field(default_factory=dict)
    method_errors: dict = field(default_factory=dict)
    agreement_fit: LineFit | None = None
    accuracy_fit: LineFit | None = None
    gates: dict = field(default_factory=dict)
    mape_by_method: dict | None = None  # name -> MAPE; all None if an OOD score is 0
    metadata: dict = field(default_factory=dict)

    @cached_property
    def true_ood_probit(self):
        """Clamped probits of true_ood_perf (None when blind): accuracy fit and scatter."""
        truth = self.true_ood_perf
        return None if truth is None else probit(clamp_rate(truth, self.inputs.clamp_eps))

    def to_dict(self) -> dict:
        per_model = []
        for i, mid in enumerate(self.model_ids):
            row = {"model_id": mid, "id_perf": float(self.inputs.id_perf[i]),
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


def _build(model_ids, metric, splits, inputs: AlineInput, true_ood, methods,
           options: ReportOptions, pair: SplitPair | None = None) -> EstimateReport:
    """Run every requested method once; failures become per-method entries.

    ``true_ood`` (or None) switches evaluation on; ``pair`` carries the
    logs the confidence methods need.
    """
    report = EstimateReport(
        model_ids=model_ids, inputs=inputs, true_ood_perf=true_ood,
        metadata={"metric": metric, "id_split": splits[0], "ood_split": splits[1],
                  "gate_threshold": options.gate_threshold,
                  "clamp_eps": inputs.clamp_eps,
                  "evaluation_mode": true_ood is not None,
                  "toolkit_version": toolkit_version})
    scores = None  # one temperature fit and four confidence vectors per model
    for method in methods:
        try:
            if method not in METHODS:
                raise ToolkitError(f"unknown method {method!r}")
            if METHODS[method][1]:  # a confidence method: it reads the pair's logits
                if scores is None:
                    scores = [confidence_scores(id_log, ood_log)
                              for id_log, ood_log in zip(pair.id_logs, pair.ood_logs)]
                report.estimates[f"{method}.raw"], report.estimates[f"{method}.temp_scaled"] = \
                    np.array([with_and_without_temperature(method, perf, s)
                              for perf, s in zip(inputs.id_perf.tolist(), scores)]).T
            elif method == METHOD_NAIVE_AGREEMENT:
                report.estimates[method] = naive_agreement_estimate(inputs.agr_ood)
            else:
                estimator = aline_s if method == METHOD_ALINE_S else aline_d
                report.estimates[method], report.agreement_fit = estimator(inputs)
                report.gates[method] = gate(report.agreement_fit, options.gate_threshold)
        except ToolkitError as exc:
            report.method_errors[method] = f"{type(exc).__name__}: {exc}"

    if true_ood is not None:
        try:
            report.accuracy_fit = fit_line(inputs.id_probit, report.true_ood_probit)
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
    inputs = AlineInput(id_perf, agreement_matrix(pair.id_logs, pair.metric),
                        agreement_matrix(pair.ood_logs, pair.metric), options.clamp_eps)
    return _build(pair.model_ids, pair.metric,
                  (pair.id_logs[0].split_id, pair.ood_logs[0].split_id),
                  inputs, true_ood, list(methods), options, pair)


def build_report_from_matrices(id_perf, agr_id_values, agr_ood_values, model_ids,
                               metric="accuracy", true_ood_perf=None,
                               options: ReportOptions | None = None) -> EstimateReport:
    """Agreement-based report for precomputed performance/agreement matrices.

    Runs every method of ``METHODS`` that reads no logits (ALine-S, ALine-D,
    naive agreement), in table order; useful for closed-form fixtures and
    externally computed summaries. Passing ``true_ood_perf`` turns on evaluation.
    """
    model_ids, options = list(model_ids), options or ReportOptions()
    if len(model_ids) != len(id_perf):
        raise LengthMismatch(f"{len(model_ids)} model_ids for {len(id_perf)} models")
    true_ood = None if true_ood_perf is None else np.asarray(true_ood_perf)
    if true_ood is not None and true_ood.shape != (len(model_ids),):
        raise LengthMismatch(f"true_ood_perf shape {true_ood.shape} != ({len(model_ids)},)")
    return _build(model_ids, metric, ("id", "ood"),
                  AlineInput(id_perf, agr_id_values, agr_ood_values, options.clamp_eps), true_ood,
                  [m for m, (_, reads_logits) in METHODS.items() if not reads_logits], options)


def export_scatter(report: EstimateReport):
    """Rows for a Figure-style ID/OOD scatter: accuracy points, agreement
    points, fitted-line endpoints, and probit-scaled axis ticks. The points'
    probits are the ones the report's fits read, from ``report.inputs`` and
    ``report.true_ood_probit``; accuracy rows have no y when blind."""
    inp, ids, truth = report.inputs, report.model_ids, report.true_ood_perf
    i, j, x_agr, y_agr = inp.pairs
    blind = np.full(inp.n, np.nan)
    x_raw = np.concatenate([inp.id_perf, inp.agr_id[i, j]])
    y_raw = np.concatenate([blind if truth is None else truth, inp.agr_ood[i, j]])
    x_probit = np.concatenate([inp.id_probit, x_agr])
    y_probit = np.concatenate([blind if truth is None else report.true_ood_probit, y_agr])
    kinds = ["accuracy"] * inp.n + ["agreement"] * len(i)
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
    ticks = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    for tick, p in zip(ticks, probit(ticks).tolist()):
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
