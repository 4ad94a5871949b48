"""Spans around aglkit's public functions, recorded from outside the program.

Each traced function is replaced, for the duration of a ``Tracer`` block,
in every module namespace that looks it up by name: ``aglkit.cli`` calls
``load_split_pair`` through its own global, ``aglkit.aline`` calls its own
imported ``probit``, and so on. Spans (name, start, end, parent) stay in
memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
import tracemalloc
from collections import defaultdict

# (span name, module that defines the function, attribute, modules that look it up)
TRACED = (
    ("datamodel.load_split_pair", "aglkit.datamodel", "load_split_pair", ("aglkit.cli",)),
    ("datamodel.read_manifest", "aglkit.datamodel", "read_manifest", ("aglkit.datamodel",)),
    ("datamodel.load_log", "aglkit.datamodel", "load_log", ("aglkit.datamodel",)),
    ("datamodel.validate_log", "aglkit.datamodel", "validate_log", ("aglkit.datamodel",)),
    ("metrics.performance", "aglkit.metrics", "performance", ("aglkit.report",)),
    ("metrics.agreement_matrix", "aglkit.metrics", "agreement_matrix", ("aglkit.report",)),
    ("metrics.agreement", "aglkit.metrics", "agreement", ("aglkit.metrics",)),
    ("probit.probit", "aglkit.probit", "probit", ("aglkit.aline", "aglkit.report")),
    ("probit.fit_line", "aglkit.probit", "fit_line", ("aglkit.aline", "aglkit.report")),
    ("aline.agreement_line", "aglkit.aline", "agreement_line", ("aglkit.aline",)),
    ("aline.aline_s", "aglkit.aline", "aline_s", ("aglkit.report",)),
    ("aline.aline_d", "aglkit.aline", "aline_d", ("aglkit.report",)),
    ("baselines.with_and_without_temperature", "aglkit.baselines",
     "with_and_without_temperature", ("aglkit.report",)),
    ("baselines.naive_agreement_estimate", "aglkit.baselines", "naive_agreement_estimate",
     ("aglkit.report",)),
    ("baselines.fit_temperature", "aglkit.baselines", "fit_temperature", ("aglkit.baselines",)),
    ("baselines.confidence", "aglkit.baselines", "confidence", ("aglkit.baselines",)),
    ("report.build_report", "aglkit.report", "build_report", ("aglkit.cli",)),
    ("report.to_json", "aglkit.report", "EstimateReport.to_json", ()),
    ("report.export_scatter", "aglkit.report", "export_scatter", ("aglkit.cli",)),
    ("report.scatter_to_csv", "aglkit.report", "scatter_to_csv", ("aglkit.cli",)),
)

# span name -> (counter, amount taken from the call's arguments and result)
COUNTERS = {
    "datamodel.read_manifest": ("datamodel.bytes_read", lambda args, out: os.path.getsize(args[0])),
    "datamodel.load_log": ("datamodel.bytes_read", lambda args, out: os.path.getsize(args[0])),
    "report.to_json": ("report.bytes_written", lambda args, out: len(out.encode())),
    "report.scatter_to_csv": ("report.bytes_written", lambda args, out: len(out.encode())),
}

LAYERS = ("cli", "datamodel", "metrics", "probit", "aline", "baselines", "report")
PEAK_SPAN = "aline.aline_d"


class Tracer:
    """Records spans of one or more ``aglkit estimate`` calls.

    Use as a context manager; the patches are removed on exit. With
    ``measure_peak`` set, ``aline_d`` runs under ``tracemalloc`` and its
    peak is kept in ``peak_bytes``; that slows the call, so its timings are
    not meant to be used.
    """

    def __init__(self, measure_peak=False):
        self.names = []  # name of span k
        self.starts = []
        self.ends = []
        self.parents = []  # index of the enclosing span, -1 at the root
        self.measure_peak = measure_peak
        self.peak_bytes = 0
        self.amounts = {}  # span index -> (counter, amount)
        self._stack = []
        self._restore = []

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        k = len(self.names)
        self.names.append(name)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self._stack.append(k)
        peak = self.measure_peak and name == PEAK_SPAN
        if peak:
            tracemalloc.start()
        self.starts[k] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            if name in COUNTERS:
                counter, amount = COUNTERS[name]
                self.amounts[k] = (counter, amount(args, out))
            return out
        finally:
            self.ends[k] = time.perf_counter()
            if peak:
                self.peak_bytes = max(self.peak_bytes, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            self._stack.pop()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced

    def __enter__(self):
        for name, home, attr, users in TRACED:
            if "." in attr:  # a method: patch the class
                cls_name, meth = attr.split(".")
                owner = getattr(importlib.import_module(home), cls_name)
                targets = [(owner, meth)]
            else:
                targets = [(importlib.import_module(m), attr) for m in users]
            for owner, key in targets:
                original = getattr(owner, key)
                self._restore.append((owner, key, original))
                setattr(owner, key, self._wrap(name, original))
        return self

    def __exit__(self, *exc):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()
        return False

    def root_indices(self):
        return [k for k, p in enumerate(self.parents) if p == -1]

    def summary(self, root):
        """Per-name inclusive time, self time and calls, and counter totals,
        of span ``root`` and the spans below it.

        Self time is a span's duration minus the time its direct children
        cover; the self times of all spans under a root add up to the
        root's duration.
        """
        inner = defaultdict(float)  # span index -> time covered by its children
        members = {root}
        for k in range(root + 1, len(self.names)):
            p = self.parents[k]
            if p not in members:
                break
            members.add(k)
            inner[p] += self.ends[k] - self.starts[k]
        total = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        counts = defaultdict(int)
        for k in sorted(members):
            if k in self.amounts:
                counter, amount = self.amounts[k]
                counts[counter] += amount
            dur = self.ends[k] - self.starts[k]
            name = self.names[k]
            total[name] += dur
            own[name] += dur - inner[k]
            calls[name] += 1
        return total, own, calls, counts

    def write(self, path):
        """Write every span as JSON: names once, spans as index rows."""
        names = sorted(set(self.names))
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], s, e, p] for n, s, e, p in
                zip(self.names, self.starts, self.ends, self.parents)]
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"names": names, "columns": ["name", "start", "end", "parent"],
                       "spans": rows}, fh)
