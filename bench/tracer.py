"""Span recorder for the traced run.

Wraps the public functions of the icci modules at every module
attribute that refers to them, so calls made inside the package (for
example ``sweep.check_channel`` calling ``vertices``) are seen as well
as calls made by the benchmark.  Spans stay in memory as
(name, start, end, parent, child_time) and are written when the run
ends.  Nothing is wrapped in the untraced run.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import defaultdict

import numpy as np

# (module, function, span name); build_inner and build_outer share one span name
TIMED = (
    ("icci.sweep", "sample_gains", "sweep.sample_gains"),
    ("icci.sweep", "check_channel", "sweep.check_channel"),
    ("icci.sweep", "run_gap_sweep", "sweep.run_gap_sweep"),
    ("icci.bounds", "inner_coeffs", "bounds.inner_coeffs"),
    ("icci.bounds", "outer_coeffs", "bounds.outer_coeffs"),
    ("icci.bounds", "gap_deltas", "bounds.gap_deltas"),
    ("icci.region", "build_inner", "region.build"),
    ("icci.region", "build_outer", "region.build"),
    ("icci.region", "vertices", "region.vertices"),
    ("icci.region", "containment_slack", "region.containment_slack"),
    ("icci.region", "within_bits_slack", "region.within_bits_slack"),
    ("icci.region", "region_as_dict", "region.region_as_dict"),
    ("icci.gaussian_mi", "mi_discrepancy", "gaussian_mi.mi_discrepancy"),
    ("icci.gdof", "per_user_dof_optimum", "gdof.per_user_dof_optimum"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TIMED))
# per-layer metrics that must repeat exactly between runs of the same code
EXACT_COUNTS = tuple(f"{name}.calls" for name in SPAN_NAMES) + (
    "region.vertices.out",
    "region.vertices.triples",
    "region.vertices.yield",
    "gaussian_mi.guard_trips",
)


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._open_child: list[float] = []   # child time of each open span
        self._open_index: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn, covariance_error):
        spans, counts = self.spans, self.counts
        open_child, open_index = self._open_child, self._open_index
        clock = time.perf_counter
        is_vertices = name == "region.vertices"

        def traced(*args, **kwargs):
            parent = open_index[-1] if open_index else -1
            index = len(spans)
            spans.append(None)
            open_index.append(index)
            open_child.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except covariance_error:
                counts["gaussian_mi.guard_trips"] += 1
                raise
            finally:
                end = clock()
                open_index.pop()
                child = open_child.pop()
                if open_child:
                    open_child[-1] += end - start
                spans[index] = (name, start, end, parent, child)
            if is_vertices:
                counts["region.vertices.out"] += len(result)
                counts["region.vertices.triples"] += math.comb(len(args[0].halfspaces) + 3, 3)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace each timed function wherever an icci module holds it."""
        from icci.gaussian_mi import CovarianceError

        modules = [m for n, m in sys.modules.items() if n == "icci" or n.startswith("icci.")]
        for module_name, attr, name in TIMED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original, CovarianceError)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._restore):
            setattr(module, key, original)
        self._restore.clear()

    def layer_metrics(self, wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        vertex_us: list[float] = []
        for name, start, end, _parent, child in self.spans:
            calls[name] += 1
            self_s[name] += (end - start) - child
            if name == "region.vertices":
                vertex_us.append((end - start) * 1e6)
        out: dict[str, tuple[float, str]] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_s[name], "s")
            out[f"{name}.share"] = (self_s[name] / wall_s, "fraction")
        n = calls["region.vertices"]
        out["region.vertices.p99_us"] = (float(np.percentile(vertex_us, 99)) if vertex_us else 0.0, "us")
        out["region.vertices.out"] = (self.counts["region.vertices.out"] / n if n else 0.0, "count")
        out["region.vertices.triples"] = (self.counts["region.vertices.triples"] / n if n else 0.0, "count")
        triples = self.counts["region.vertices.triples"]
        out["region.vertices.yield"] = (self.counts["region.vertices.out"] / triples if triples else 0.0, "fraction")
        out["gaussian_mi.guard_trips"] = (self.counts["gaussian_mi.guard_trips"], "count")
        return out

    def write(self, path) -> None:
        """Spans as JSON lines: name, start and end (s, relative to the
        first span), parent span index (-1 for none)."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, _child in self.spans:
                handle.write(json.dumps([name, start - origin, end - origin, parent]) + "\n")

