"""Spans and counters recorded around the library's public functions.

Each function is wrapped under the name its caller looks it up by
(for example `cluster_sieve.inference.run_kmeans`), so the library is
traced without being edited. Layer boundaries record spans (name,
start, end, parent span, test id). The two leaf functions called once
per inequality (the solvers and the interval intersection) record a
call count and busy time per test instead, which keeps the trace small
and its overhead low.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute looked up by the caller, span name)
SPANS = (
    ("simulation", "gen_data", "simulation.gen_data"),
    ("simulation", "test_known_sigma", "inference.test"),
    ("simulation", "test_unknown_sigma", "inference.test"),
    ("simulation", "test_bonferroni", "inference.test"),
    ("inference", "run_kmeans", "kmeans.run"),
    ("inference", "select_pairs", "selection.select"),
    ("truncation", "select_pairs", "selection.select"),
    ("inference", "build_projection", "projection.build"),
    ("inference", "known_path", "truncation.path"),
    ("inference", "unknown_path", "truncation.path"),
    ("truncation", "known_path", "truncation.path"),
    ("truncation", "unknown_path", "truncation.path"),
    ("inference", "known_sigma_truncation", "truncation.clustering"),
    ("inference", "unknown_sigma_truncation", "truncation.clustering"),
    ("inference", "selection_truncation_known", "truncation.selection"),
    ("inference", "selection_truncation_unknown", "truncation.selection"),
    ("inference", "truncated_survival_info", "distributions.tail"),
    ("cli", "read_matrix", "cli.read"),
)
COUNTERS = (
    ("truncation", "solve_quad_leq", "truncation.solver"),
    ("truncation", "solve_sqrt_leq", "truncation.solver"),
    ("truncation", "interval_intersect", "core.intersect"),
    ("inference", "interval_intersect", "core.intersect"),
    ("distributions", "interval_intersect", "core.intersect"),
)
# Entry points the benchmark calls itself; wrapped in the inference
# module as well, since only calib_small reaches them via simulation.
ENTRY = ("test_known_sigma", "test_unknown_sigma", "test_bonferroni")


class Tracer:
    """Installs wrappers on enter, restores the originals on exit."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, test id]
        self.counts = defaultdict(lambda: [0, 0.0])  # (test id, name) -> [calls, s]
        self.traces = defaultdict(list)  # test id -> (n, K, J) per run_kmeans call
        self.missing = []
        self.test_id = None
        self._stack = []
        self._saved = []

    def _span(self, name, fn):
        def wrapped(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            rec = [name, time.perf_counter(), None, parent, self.test_id]
            self.spans.append(rec)
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if name == "kmeans.run":
                self.traces[self.test_id].append((out.n, out.K, out.J))
            return out

        return wrapped

    def _counter(self, name, fn):
        def wrapped(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                c = self.counts[(self.test_id, name)]
                c[0] += 1
                c[1] += time.perf_counter() - t0

        return wrapped

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span of its own (for the benchmark's roots)."""
        return self._span(name, fn)(*args, **kwargs)

    def __enter__(self):
        table = [(m, a, n, self._span) for m, a, n in SPANS]
        table += [("inference", a, "inference.test", self._span) for a in ENTRY]
        table += [(m, a, n, self._counter) for m, a, n in COUNTERS]
        for mod_name, attr, name, make in table:
            mod = sys.modules[f"cluster_sieve.{mod_name}"]
            fn = getattr(mod, attr, None)
            if fn is None:
                if (mod_name, attr) not in self.missing:
                    self.missing.append((mod_name, attr))
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, make(name, fn))
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()
        return False

    def per_test(self, test_ids):
        """Per (test id, span name): busy seconds and span count; per
        test id: self seconds of the inference entry point, i.e. its
        spans minus the time covered by their direct children."""
        wanted = set(test_ids)
        busy = defaultdict(float)
        calls = defaultdict(int)
        child = defaultdict(float)
        for name, t0, t1, parent, tid in self.spans:
            if tid not in wanted:
                continue
            busy[(tid, name)] += t1 - t0
            calls[(tid, name)] += 1
            if parent is not None:
                child[parent] += t1 - t0
        self_s = defaultdict(float)
        for idx, (name, t0, t1, parent, tid) in enumerate(self.spans):
            if tid in wanted and name == "inference.test":
                self_s[tid] += (t1 - t0) - child[idx]
        return busy, calls, self_s

    def dump(self):
        return {
            "spans": [
                {"name": n, "start": a, "end": b, "parent": p, "test": t}
                for n, a, b, p, t in self.spans
            ],
            "counters": [
                {"test": t, "name": n, "calls": c, "seconds": s}
                for (t, n), (c, s) in self.counts.items()
            ],
            "unwrapped": [f"{m}.{a}" for m, a in self.missing],
        }
