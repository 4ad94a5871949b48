"""Command-line entry point: estimate / synth / validate.

Exit codes: 0 success, 2 input or validation error, 3 total estimation
failure (every requested method errored).
"""

from __future__ import annotations

import argparse
import os
import sys

from .datamodel import load_entries, load_split_pair
from .errors import ToolkitError
from .report import (
    ALL_METHODS,
    ReportOptions,
    build_report,
    export_scatter,
    scatter_to_csv,
)
from .synth import SynthConfig, write_ensemble

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_ESTIMATION_FAILURE = 3

_METHOD_FLAGS = {
    "aline-s": "aline_s",
    "aline-d": "aline_d",
    "ac": "ac",
    "atc": "atc",
    "doc-feat": "doc_feat",
    "naive": "naive_agreement",
}


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def cmd_estimate(args) -> int:
    try:
        # in order, once each: exit code 3 compares failures with this count
        methods = list(dict.fromkeys(_METHOD_FLAGS[m.strip()]
                                     for m in args.methods.split(",") if m.strip()))
    except KeyError as exc:
        return _fail(f"unknown method {exc.args[0]!r} (choose from {', '.join(_METHOD_FLAGS)})",
                     EXIT_INPUT_ERROR)
    if not methods:
        return _fail("no methods requested", EXIT_INPUT_ERROR)
    try:
        options = ReportOptions(gate_threshold=args.gate_threshold,
                                clamp_eps=args.clamp_eps,
                                evaluation_mode=args.eval)
        pair = load_split_pair(args.id_manifest, args.ood_manifest, args.metric)
        report = build_report(pair, methods, options)
    except ToolkitError as exc:
        return _fail(str(exc), EXIT_INPUT_ERROR)
    try:
        os.makedirs(args.out, exist_ok=True)
        report_path = os.path.join(args.out, "report.json")
        with open(report_path, "w") as fh:
            fh.write(report.to_json())
        print(f"wrote {report_path}")
        if args.scatter:
            scatter_path = os.path.join(args.out, "scatter.csv")
            with open(scatter_path, "w") as fh:
                fh.write(scatter_to_csv(export_scatter(report)))
            print(f"wrote {scatter_path}")
    except OSError as exc:
        return _fail(f"cannot write to --out {args.out}: {exc.strerror or exc}", EXIT_INPUT_ERROR)
    if len(report.method_errors) == len(methods):
        for method, msg in report.method_errors.items():
            print(f"method {method} failed: {msg}", file=sys.stderr)
        return EXIT_ESTIMATION_FAILURE
    return EXIT_OK


def cmd_synth(args) -> int:
    try:
        config = SynthConfig.from_file(args.config) if args.config else SynthConfig()
        config.seed = args.seed
        paths = write_ensemble(config, args.out)
    except (ToolkitError, OSError) as exc:
        return _fail(str(exc), EXIT_INPUT_ERROR)
    print(f"wrote {paths['manifest']}")
    print(f"wrote {paths['truth']}")
    return EXIT_OK


def cmd_validate(args) -> int:
    try:
        _, logs = load_entries(args.manifest)
    except ToolkitError as exc:
        return _fail(str(exc), EXIT_INPUT_ERROR)
    if not logs:
        return _fail(f"manifest {args.manifest} lists no entries", EXIT_INPUT_ERROR)
    print(f"ok: {len(logs)} logs validated")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="aglkit",
                                     description="OOD performance estimation from prediction logs")
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="run estimators over a split pair")
    est.add_argument("--id-manifest", required=True)
    est.add_argument("--ood-manifest", required=True)
    est.add_argument("--methods", default=",".join(k for k in _METHOD_FLAGS))
    est.add_argument("--out", required=True)
    est.add_argument("--metric", default=None)
    est.add_argument("--gate-threshold", type=float, default=ReportOptions.gate_threshold)
    est.add_argument("--clamp-eps", type=float, default=ReportOptions.clamp_eps)
    est.add_argument("--eval", action="store_true",
                     help="score estimates against OOD gold labels")
    est.add_argument("--scatter", action="store_true", help="also write scatter.csv")
    est.set_defaults(func=cmd_estimate)

    syn = sub.add_parser("synth", help="generate a synthetic ensemble")
    syn.add_argument("--config", default=None, help="key = value config file")
    syn.add_argument("--seed", type=int, required=True)
    syn.add_argument("--out", required=True)
    syn.set_defaults(func=cmd_synth)

    val = sub.add_parser("validate", help="validate a manifest and its logs")
    val.add_argument("--manifest", required=True)
    val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
