"""Command-line entry point: estimate / synth / validate.

Exit codes: 0 success, 2 input or validation error, 3 total estimation
failure (every requested method errored).
"""

from __future__ import annotations

import argparse
import os
import sys

from .datamodel import load_entries, load_split_pair
from .errors import InvalidConfig, ToolkitError
from .report import METHODS, ReportOptions, build_report, export_scatter, scatter_to_csv

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_ESTIMATION_FAILURE = 3


def cmd_estimate(args) -> int:
    by_flag = {flag: method for method, (flag, _) in METHODS.items()}
    try:
        # in order, once each: exit code 3 compares failures with this count
        methods = list(dict.fromkeys(by_flag[m.strip()]
                                     for m in args.methods.split(",") if m.strip()))
    except KeyError as exc:
        raise InvalidConfig(f"unknown method {exc.args[0]!r} "
                            f"(choose from {', '.join(by_flag)})") from None
    if not methods:
        raise InvalidConfig("no methods requested")
    options = ReportOptions(gate_threshold=args.gate_threshold, clamp_eps=args.clamp_eps,
                            evaluation_mode=args.eval)
    pair = load_split_pair(args.id_manifest, args.ood_manifest, args.metric)
    report = build_report(pair, methods, options)
    outputs = {"report.json": report.to_json}
    if args.scatter:
        outputs["scatter.csv"] = lambda: scatter_to_csv(export_scatter(report))
    os.makedirs(args.out, exist_ok=True)
    for name, render in outputs.items():
        path = os.path.join(args.out, name)
        with open(path, "w") as fh:
            fh.write(render())
        print(f"wrote {path}")
    if len(report.method_errors) == len(methods):
        for method, msg in report.method_errors.items():
            print(f"method {method} failed: {msg}", file=sys.stderr)
        return EXIT_ESTIMATION_FAILURE
    return EXIT_OK


def cmd_synth(args) -> int:
    from .synth import SynthConfig, write_ensemble  # here: estimate and validate never load it

    config = SynthConfig.from_file(args.config) if args.config else SynthConfig()
    config.seed = args.seed
    paths = write_ensemble(config, args.out)
    print(f"wrote {paths['manifest']}")
    print(f"wrote {paths['truth']}")
    return EXIT_OK


def cmd_validate(args) -> int:
    _, logs = load_entries(args.manifest)
    if not logs:
        raise InvalidConfig(f"manifest {args.manifest} lists no entries")
    print(f"ok: {len(logs)} logs validated")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="aglkit",
                                     description="OOD performance estimation from prediction logs")
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="run estimators over a split pair")
    est.add_argument("--id-manifest", required=True)
    est.add_argument("--ood-manifest", required=True)
    est.add_argument("--methods", default=",".join(flag for flag, _ in METHODS.values()))
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
    try:
        return args.func(args)
    except ToolkitError as exc:
        message = str(exc)
    except OSError as exc:  # every read raises a ToolkitError, so this is an --out write
        message = f"cannot write to --out {args.out}: {exc.strerror or exc}"
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
