"""Benchmark of ``aglkit estimate`` on one seeded workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; aglkit is imported from its ``src/``.
One run:

1. sets up the inputs ``SETUP_REPS`` times, each in a fresh process that
   imports aglkit and generates and writes the workload (``setup_s`` is the
   median), and checks the inputs come out byte-identical each time;
2. with ``--trace 0``, runs one estimate in a fresh process and reads its
   peak resident memory from the kernel (``peak_rss_mb``);
3. calls ``aglkit.cli.main`` in-process once to warm up, then again and
   again for ``--seconds`` (``estimate_s`` is the median wall time, from
   the manifest on disk to ``report.json`` written). With ``--trace 1``,
   every second call runs under the tracer instead, and one last call
   measures ALine-D's peak Python allocation;
4. checks every report against a recomputation from the generated arrays
   (``check.py``); an estimate that exits non-zero or fails the check
   counts as failed.

``setup_s`` and ``estimate_s`` are wall times scaled by calibration blocks
timed around each set-up and call, which take out most of the drift in the
machine's speed (``calibrate.py``); the unscaled times are printed and kept
in the record.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it repeat the
metrics for a reader, with the sample count and the input digest. The
full record, and with ``--trace 1`` every span, is written under
``.perfbench/out/``.
"""

from __future__ import annotations

import os

# Cap BLAS and OpenMP pools at the CPUs this process may use, before numpy
# loads here or in any child.
_NPROC = len(os.sched_getaffinity(0))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(_NPROC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import asdict  # noqa: E402

import calibrate  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = os.path.join(ROOT, ".perfbench", "out")
WORK_DIR = os.path.join(ROOT, ".perfbench", "work")

SETUP_REPS = 3
CHILD_TIMEOUT_S = 150

UNITS = {"estimate_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
LAYER_UNITS = {"_s": "s", "_calls": "count", "_mb": "MB", "bytes_read": "B",
               "bytes_written": "B"}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _require_sources():
    if not os.path.isfile(os.path.join(SRC, "aglkit", "__init__.py")):
        raise BenchError(f"no aglkit sources under {SRC}; run from a checkout of the repository")


def _import_aglkit():
    _require_sources()
    sys.path.insert(0, SRC)
    import aglkit
    if os.path.dirname(os.path.abspath(aglkit.__file__)) != os.path.join(SRC, "aglkit"):
        raise BenchError(f"imported aglkit from {aglkit.__file__}, not from {SRC}")


def _run_child(args, timeout=CHILD_TIMEOUT_S):
    """Run child.py; returns (exit code, stdout, peak RSS in MB of that child)."""
    proc = subprocess.Popen([sys.executable, CHILD, *args], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    deadline = time.monotonic() + timeout
    try:
        while True:
            # wait4 gives the rusage of this child alone, so earlier
            # children cannot raise the peak it reports
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                raise BenchError(f"child {args[0]} exceeded {timeout}s")
            time.sleep(0.02)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    out, err = proc.communicate()
    if proc.returncode != 0:
        sys.stderr.write(err.decode(errors="replace"))
    return proc.returncode, out.decode(), usage.ru_maxrss / 1024.0


def _digest(directory):
    """Total bytes and sha256 over every file under ``directory``, by path."""
    h = hashlib.sha256()
    total = 0
    for base, dirs, files in os.walk(directory):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                data = fh.read()
            h.update(os.path.relpath(path, directory).encode() + b"\0" + data)
            total += len(data)
    return total, h.hexdigest()


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def percentile_summary(samples):
    """Sample count, median, and the highest percentile with ten samples beyond it."""
    out = {"samples": len(samples), "median": statistics.median(samples)}
    if len(samples) > 10:
        k = len(samples) - 11
        out["tail"] = {"percentile": 100.0 * (k + 1) / len(samples),
                       "value": sorted(samples)[k]}
    return out


class Estimates:
    """In-process ``aglkit estimate`` calls and their output checks."""

    def __init__(self, workload, manifest, work, reference):
        from aglkit.cli import main
        self.main = main
        out = os.path.join(work, "out")
        self.argv = workload.cli_args(manifest, out)
        self.outputs = ["report.json"] + (["scatter.csv"] if workload.scatter else [])
        self.paths = [os.path.join(out, name) for name in self.outputs]
        self.reference = reference
        self.first = None
        self.attempted = 0
        self.problems = []

    def call(self, tracer=None):
        """One estimate; returns its wall time in seconds."""
        for path in self.paths:  # a call that writes nothing must not pass on old files
            if os.path.exists(path):
                os.remove(path)
        gc.collect()
        with contextlib.redirect_stdout(io.StringIO()), (tracer or contextlib.nullcontext()):
            start = time.perf_counter()
            try:
                if tracer is None:
                    code = self.main(self.argv)
                else:
                    code = tracer.span("cli.estimate", self.main, self.argv)
            except Exception as exc:  # a traceback is a failed estimate, not a failed run
                code = f"1 ({exc!r})"
            elapsed = time.perf_counter() - start
        self.check(code, self.paths)
        return elapsed

    def check(self, code, paths):
        self.attempted += 1
        if code != 0:
            self.problems.append(f"exit code {code}")
            return
        try:
            outputs = [_read(p) for p in paths]
        except OSError as exc:
            self.problems.append(f"output missing: {exc}")
            return
        if self.first is None:
            found = self.reference.problems(outputs[0])
            if found:
                self.problems.append("; ".join(found))
                return
            self.first = outputs
        elif outputs != self.first:
            self.problems.append("outputs differ from the first iteration's")

    @property
    def failed(self):
        return len(self.problems)


def _setup(workload, seed, work):
    inputs = os.path.join(work, "inputs")
    arrays = os.path.join(work, "arrays.npz")
    spec = json.dumps(asdict(workload))
    times, blocks, write_ensemble, digests = [], [calibrate.block_s()], [], set()
    for _ in range(SETUP_REPS):
        shutil.rmtree(inputs, ignore_errors=True)
        code, out, _ = _run_child(["setup", "--spec", spec, "--seed", str(seed),
                                   "--out", inputs, "--arrays", arrays])
        if code != 0:
            raise BenchError(f"set-up of {workload.name} exited with {code}")
        rec = json.loads(out.strip().splitlines()[-1])
        times.append(rec["setup_s"])
        write_ensemble.append(rec["write_ensemble_s"])
        digests.add(_digest(inputs))
        blocks.append(calibrate.block_s())
    if len(digests) != 1:
        raise BenchError(f"set-up of {workload.name} is not deterministic: {sorted(digests)}")
    setup = {"wall_s": times, "scaled_s": calibrate.scaled(times, blocks),
             "calibration_s": blocks}
    return rec["manifest"], arrays, setup, statistics.median(write_ensemble), digests.pop()


def _load_reference(arrays_path):
    import numpy as np

    from check import Reference
    with np.load(arrays_path) as data:
        arrays = {k: data[k] for k in data.files}
    arrays["metric"] = str(arrays["metric"])
    return Reference(arrays)


def _layer_metrics(tracer, root, write_ensemble_s):
    total, own, calls, counts = tracer.summary(root)
    estimate_traced_s = total["cli.estimate"]
    m = {
        "datamodel.load_log_s": total["datamodel.load_log"],
        "datamodel.load_log_calls": calls["datamodel.load_log"],
        "datamodel.validate_log_s": total["datamodel.validate_log"],
        "datamodel.bytes_read": counts["datamodel.bytes_read"],
        "metrics.performance_s": total["metrics.performance"],
        "metrics.agreement_matrix_s": total["metrics.agreement_matrix"],
        "metrics.agreement_calls": calls["metrics.agreement"],
        "probit.probit_calls": calls["probit.probit"],
        "probit.probit_s": total["probit.probit"],
        "probit.fit_line_calls": calls["probit.fit_line"],
        "probit.fit_line_s": total["probit.fit_line"],
        "aline.agreement_line_calls": calls["aline.agreement_line"],
        "aline.aline_s_s": total["aline.aline_s"],
        "aline.aline_d_s": total["aline.aline_d"],
        "baselines.fit_temperature_calls": calls["baselines.fit_temperature"],
        "baselines.fit_temperature_s": total["baselines.fit_temperature"],
        "baselines.confidence_calls": calls["baselines.confidence"],
        "baselines.confidence_s": total["baselines.confidence"],
        "baselines.with_and_without_temperature_s": own["baselines.with_and_without_temperature"],
        "report.build_report_s": own["report.build_report"],
        "report.to_json_s": total["report.to_json"],
        "report.export_scatter_s": total["report.export_scatter"],
        "report.scatter_to_csv_s": total["report.scatter_to_csv"],
        "report.bytes_written": counts["report.bytes_written"],
        "synth.write_ensemble_s": write_ensemble_s,
        "cli.estimate_traced_s": estimate_traced_s,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in own.items() if k.split(".")[0] == layer)
    return m


def _layer_unit(name):
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    raise BenchError(f"no unit for per-layer metric {name}")


def run(workload, seed, seconds, trace, work, out_dir=OUT_DIR):
    """One benchmark run; returns (result line, full record)."""
    _require_sources()
    manifest, arrays, setup, write_ensemble_s, (n_bytes, sha) = _setup(workload, seed, work)
    peak_rss_mb = parent_peak_mb = rss_code = None
    if not trace:
        # A child's ru_maxrss starts from its parent's RSS at the spawn, so
        # the child runs before this process loads aglkit or any log; the
        # parent's peak up to here is recorded to show it stayed below.
        parent_peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rss_out = os.path.join(work, "rss-out")
        rss_code, _, peak_rss_mb = _run_child(["estimate", *workload.cli_args(manifest, rss_out)])

    _import_aglkit()
    est = Estimates(workload, manifest, work, _load_reference(arrays))
    if rss_code is not None:
        est.check(rss_code, [os.path.join(rss_out, name) for name in est.outputs])
    est.call()  # warm-up: lazy imports, allocator and page cache

    traced_flags, times, blocks = [], [], [calibrate.block_s()]
    tracer = Tracer()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(times) < 1 + trace:
        # with --trace 1, every second call runs under the tracer
        traced_flags.append(bool(trace) and len(times) % 2 == 1)
        times.append(est.call(tracer if traced_flags[-1] else None))
        blocks.append(calibrate.block_s())
    scaled = calibrate.scaled(times, blocks)
    untraced = [t for t, f in zip(times, traced_flags) if not f]
    estimate = percentile_summary(untraced)
    estimate["scaled"] = percentile_summary([t for t, f in zip(scaled, traced_flags) if not f])
    traced_scaled = [t for t, f in zip(scaled, traced_flags) if f]

    record = {"workload": asdict(workload), "seed": seed, "seconds": seconds, "trace": trace,
              "inputs": {"bytes": n_bytes, "sha256": sha}, "estimate_s": estimate,
              "samples_s": times, "traced": traced_flags, "calibration_s": blocks,
              "setup": setup, "parent_peak_rss_mb": parent_peak_mb,
              "problems": est.problems, "environment": environment()}
    if trace:
        peak = Tracer(measure_peak=True)
        est.call(peak)
        roots = tracer.root_indices()
        durations = [tracer.ends[k] - tracer.starts[k] for k in roots]
        median_root = roots[durations.index(statistics.median_low(durations))]
        values = _layer_metrics(tracer, median_root, write_ensemble_s)
        values["trace.overhead_s"] = (statistics.median(traced_scaled)
                                      - estimate["scaled"]["median"])
        values["aline.aline_d_peak_mb"] = peak.peak_bytes / 2**20
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in sorted(values.items())}
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir, f"{workload.name}-seed{seed}-spans.json")
        tracer.write(spans_path)
        record["spans"] = os.path.relpath(spans_path, ROOT)
    else:
        values = {"estimate_s": estimate["scaled"]["median"], "peak_rss_mb": peak_rss_mb,
                  "setup_s": statistics.median(setup["scaled_s"])}
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    if est.first is not None:
        record["mape_pct"] = est.reference.mape_pct(est.first[0])
    result = {"correct": est.failed == 0 and est.first is not None,
              "attempted": est.attempted, "failed": est.failed, "metrics": metrics}
    record["result"] = result
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{workload.name}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    return result, record


def environment():
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": _NPROC, "machine": platform.machine()}


def _print_summary(result, record):
    est = record["estimate_s"]
    tail = (f", p{est['tail']['percentile']:.0f} {est['tail']['value']:.4f} s"
            if "tail" in est else "")
    print(f"workload {record['workload']['name']} seed {record['seed']}: {est['samples']} "
          f"timed estimates, wall time median {est['median']:.4f} s{tail}")
    if "setup" in record:
        print(f"set-up wall time median {statistics.median(record['setup']['wall_s']):.4f} s "
              f"over {len(record['setup']['wall_s'])} set-ups")
    print(f"inputs: {record['inputs']['bytes']} bytes, sha256 {record['inputs']['sha256']}")
    print(f"failed_frac {result['failed'] / result['attempted']:.4f} "
          f"({result['failed']} of {result['attempted']} estimates)")
    for problem in record["problems"]:
        print(f"failed: {problem}")
    for method, value in record.get("mape_pct", {}).items():
        print(f"{method} MAPE {value:.4f} % (against the generated OOD labels)")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    work = os.path.join(WORK_DIR, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    try:
        result, record = run(WORKLOADS[args.workload], args.seed, args.seconds,
                             bool(args.trace), work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    _print_summary(result, record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    sys.exit(main())
