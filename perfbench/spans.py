"""Span recorder for traced runs, and the wrappers that feed it.

A span holds a name, start, end, parent span and run id (the pass it belongs
to).  Spans stay in memory and are written once, when the run ends.  Self time
is derived from the spans afterwards: a span's duration minus the durations of
its direct children.

The program is not edited.  Each layer function is wrapped where its caller
looks it up, because `growth`, `cli` and `minors` import names by value, and
the wrappers are removed again after every traced job call.  Scalar
arithmetic is counted, not spanned: a span per `Scalar.__add__` would cost
more than the addition it measures and bury every other layer's self time.

Metric and span names start with the layer: the module name, except that
`unitcount._kernels` is called `kernels` (metric names must start with a
letter).  Layer `bench` is the benchmark's own code between calls.
"""

from __future__ import annotations

import gzip
import json
import math
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

from unitcount import _kernels, cli, equations, families, growth, matrices, minors
from unitcount.scalars import Scalar

_now = time.perf_counter_ns


class Recorder:
    """In-memory spans (parallel lists) plus per-pass counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.run: list[int] = []
        self._stack: list[int] = []
        self.run_id = 0
        self.counters: dict[str, float] = {}
        self.point_us: list[int] = []

    def new_pass(self, run_id: int) -> None:
        """Start a pass: later spans carry run_id; counters start at zero.
        Cleared in place, because the wrappers hold these objects."""
        self.run_id = run_id
        self.counters.clear()
        self.point_us.clear()

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(_now())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = _now()
        self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def spans_of_run(self, run_id: int) -> range:
        first = next((i for i, r in enumerate(self.run) if r == run_id), len(self.run))
        last = first
        while last < len(self.run) and self.run[last] == run_id:
            last += 1
        return range(first, last)

    def self_times(self, span_range: range) -> dict[str, float]:
        """Seconds of self time per span name over the given spans."""
        child = {i: 0 for i in span_range}
        for i in span_range:
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, float] = {}
        for i in span_range:
            name = self.names[self.name_id[i]]
            own = self.end[i] - self.start[i] - child[i]
            out[name] = out.get(name, 0.0) + own / 1e9
        return out

    def inclusive_times(self, span_range: range) -> dict[str, float]:
        """Seconds per span name, counting only spans not nested in a span of
        the same name (so recursion and re-entry are not counted twice)."""
        out: dict[str, float] = {}
        for i in span_range:
            nid = self.name_id[i]
            p = self.parent[i]
            while p >= 0 and self.name_id[p] != nid:
                p = self.parent[p]
            if p >= 0:
                continue
            name = self.names[nid]
            out[name] = out.get(name, 0.0) + (self.end[i] - self.start[i]) / 1e9
        return out

    def write(self, path: Path) -> None:
        spans = [
            [self.name_id[i], self.start[i], self.end[i], self.parent[i], self.run[i]]
            for i in range(len(self.start))
        ]
        doc = {"fields": ["name", "start_ns", "end_ns", "parent", "run"],
               "names": self.names, "spans": spans}
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))


def _spanned(rec: Recorder, fn, name: str, after=None):
    nid = rec.intern(name)

    def wrapper(*args, **kwargs):
        idx = rec.begin(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.finish(idx)
        if after is not None:
            after(args, result)
        return result

    return wrapper


_SCALAR_OPS = ("__add__", "__sub__", "__mul__", "__neg__", "__truediv__",
               "inverse", "square", "__pow__")


class Tracer:
    """Installs the layer wrappers around one job call and removes them after."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self._plan = self._build_plan()

    def _build_plan(self):
        rec = self.rec
        count = rec.count

        def after_supports(args, ok):
            count("supports_calls")
            count("supports_true", 1 if ok else 0)

        def after_kernel(args, raw):
            count("kernel_matrices", raw["total"])

        def after_generic(args, raw):
            count("generic_matrices", raw["total"])

        def after_result(args, hist):
            count("hist_keys", len(hist))

        def after_sweep(args, hist):
            count("sweeps")

        def after_count(args, value):
            eq, elements = args[0], args[1]
            count("tuples", len(elements) ** eq.n)

        def after_audit(args, summary):
            count("audit_samples", summary.samples)
            count("audit_nonsingular", summary.nonsingular_checked)

        def after_run(args, result):
            count("growth_points", len(result.points))
            count("growth_budget_exceeded", 1 if result.budget_exceeded else 0)
            for p in result.points:
                rec.point_us.append(p.elapsed_us)

        def after_materialize(args, elements):
            count("elements", len(elements))

        def counted(name):
            return lambda args, result: count(name)

        orig_add = _kernels._HistAccumulator.add

        def hist_add(acc, keys, counts):
            count("hist_rows", keys.shape[0])
            return orig_add(acc, keys, counts)

        orig_tally = equations._tally_sums

        def tally_top(terms, start, table):
            # Recursive calls go straight to the original function.
            equations._tally_sums = orig_tally
            try:
                orig_tally(terms, start, table)
            finally:
                equations._tally_sums = tally_top
            count("chunks")
            rec.counters["table_entries"] = max(
                rec.counters.get("table_entries", 0), len(table)
            )

        def sweep_wrapper(fn):
            inner = _spanned(rec, fn, "matrices.sweep", after_sweep)

            def wrapper(*args, **kwargs):
                try:
                    return inner(*args, **kwargs)
                except matrices.BudgetExceededError:
                    count("budget_exceeded")
                    raise

            return wrapper

        plan = [
            (_kernels, "supports", "kernels.supports", after_supports),
            (_kernels, "sweep_square", "kernels.sweep", after_kernel),
            (_kernels, "_block_histogram", "kernels.hist", None),
            (_kernels._HistAccumulator, "_compact", "kernels.hist", None),
            (_kernels._HistAccumulator, "result", "kernels.hist", after_result),
            (matrices, "_generic_shard", "matrices.generic", after_generic),
            (matrices, "_finalize", "matrices.finalize", None),
            (minors, "det", "matrices.det", counted("det_calls")),
            (minors, "laplace_report", "minors.laplace", counted("laplace_calls")),
            (minors, "audit_prop_zero_cofactors", "minors.audit", after_audit),
            (equations, "count_solutions", "equations.count", after_count),
            (growth, "count_solutions", "equations.count", after_count),
            (equations, "count_system_sum_squares", "equations.system", None),
            (growth, "count_system_sum_squares", "equations.system", None),
            (equations, "classify_by_vanishing_subsums", "equations.classify", None),
            (growth, "run_experiment", "growth.run", after_run),
            (growth, "analyze", "growth.analyze", None),
            (growth, "emit", "growth.emit", None),
            (families, "materialize", "families.materialize", after_materialize),
            (growth, "materialize", "families.materialize", after_materialize),
            (cli, "main", "cli.main", None),
        ]
        for fn_name in ("fast_det2_count", "fast_charpoly2_count", "fast_power_sums2_count"):
            plan.append((growth, fn_name, "matrices.conv2", counted("conv2_calls")))
        patches = []
        for owner, attr, span, after in plan:
            patches.append((owner, attr, _spanned(rec, getattr(owner, attr), span, after)))
        patches.append((matrices, "sweep", sweep_wrapper(matrices.sweep)))
        patches.append((cli, "sweep", sweep_wrapper(cli.sweep)))
        patches.append((_kernels._HistAccumulator, "add", hist_add))
        patches.append((equations, "_tally_sums", tally_top))
        for op in _SCALAR_OPS:
            patches.append((Scalar, op, _counting(rec, getattr(Scalar, op))))
        return patches

    @contextmanager
    def installed(self):
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in self._plan]
        for owner, attr, wrapper in self._plan:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)


def _counting(rec: Recorder, fn):
    counters = rec.counters

    def wrapper(*args):
        counters["scalar_ops"] = counters.get("scalar_ops", 0) + 1
        return fn(*args)

    return wrapper


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


LAYERS = ("kernels", "matrices", "equations", "minors", "growth", "families", "cli", "bench")


def layer_metrics(rec: Recorder, run_id: int, scale: float = 1.0) -> dict[str, float]:
    """Per-layer metrics of one traced pass (counters must belong to it).

    `*_s` are seconds in a layer's spans: inclusive for named calls, self time
    for `*.self_s`, `matrices.sweep_self_s` and `kernels.hist_s`.  Less obvious
    ones: kernels.matrices counts matrices through `sweep_square`;
    kernels.keys_per_matrix is key rows emitted by the per-block np.unique per
    kernel matrix; kernels.hist_keys the distinct keys of the final kernel
    histograms; kernels.hit_ratio is sweeps whose `supports` proof held per
    sweep.  equations.tuples_per_s counts the A^n tuples each count_solutions
    decides; equations.chunks counts its hash tables and table_entries is
    the largest one.  growth.point_s.* are quantiles of GrowthPoint.elapsed_us.
    Every time is multiplied by `scale` (raw to calibrated seconds).
    """
    span_range = rec.spans_of_run(run_id)
    own = {k: v * scale for k, v in rec.self_times(span_range).items()}
    incl = {k: v * scale for k, v in rec.inclusive_times(span_range).items()}
    c = rec.counters
    g = c.get
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, seconds in own.items():
        layer_self[name.split(".", 1)[0]] += seconds
    points = sorted(rec.point_us)
    kernel_s = incl.get("kernels.sweep", 0.0)
    generic_s = incl.get("matrices.generic", 0.0)
    count_s = incl.get("equations.count", 0.0)
    audit_s = incl.get("minors.audit", 0.0)
    out = {
        "kernels.sweep_s": kernel_s,
        "kernels.matrices": g("kernel_matrices", 0),
        "kernels.matrices_per_s": _ratio(g("kernel_matrices", 0), kernel_s),
        "kernels.hist_s": own.get("kernels.hist", 0.0),
        "kernels.hist_keys": g("hist_keys", 0),
        "kernels.keys_per_matrix": _ratio(g("hist_rows", 0), g("kernel_matrices", 0)),
        "kernels.supports_calls": g("supports_calls", 0),
        "kernels.hit_ratio": _ratio(g("supports_true", 0), g("sweeps", 0)),
        "matrices.sweep_self_s": own.get("matrices.sweep", 0.0),
        "matrices.generic_s": generic_s,
        "matrices.generic_matrices_per_s": _ratio(g("generic_matrices", 0), generic_s),
        "matrices.finalize_s": incl.get("matrices.finalize", 0.0),
        "matrices.conv2_s": incl.get("matrices.conv2", 0.0),
        "matrices.conv2_calls": g("conv2_calls", 0),
        "matrices.det_calls": g("det_calls", 0),
        "matrices.det_s": incl.get("matrices.det", 0.0),
        "matrices.budget_exceeded": g("budget_exceeded", 0) + g("growth_budget_exceeded", 0),
        "equations.count_s": count_s,
        "equations.tuples_per_s": _ratio(g("tuples", 0), count_s),
        "equations.table_entries": g("table_entries", 0),
        "equations.chunks": g("chunks", 0),
        "equations.system_s": incl.get("equations.system", 0.0),
        "equations.classify_s": incl.get("equations.classify", 0.0),
        "minors.audit_s": audit_s,
        "minors.samples_per_s": _ratio(g("audit_samples", 0), audit_s),
        "minors.laplace_calls": g("laplace_calls", 0),
        "minors.laplace_s": incl.get("minors.laplace", 0.0),
        "minors.nonsingular_ratio": _ratio(g("audit_nonsingular", 0), g("audit_samples", 0)),
        "scalars.ops": g("scalar_ops", 0),
        "growth.run_s": incl.get("growth.run", 0.0),
        "growth.points": g("growth_points", 0),
        "growth.point_s.p50": _quantile(points, 0.5) / 1e6 * scale,
        "growth.point_s.p90": _quantile(points, 0.9) / 1e6 * scale,
        "growth.analyze_s": incl.get("growth.analyze", 0.0),
        "growth.emit_s": incl.get("growth.emit", 0.0),
        "families.materialize_s": incl.get("families.materialize", 0.0),
        "families.elements": g("elements", 0),
        "cli.csv_rows": g("csv_rows", 0),
        "trace.spans": len(span_range),
        "trace.self_sum_s": sum(layer_self.values()),
    }
    for layer, seconds in layer_self.items():
        out[f"{layer}.self_s"] = seconds
    return out


def _quantile(sorted_values: list[int], q: float) -> float:
    """Nearest-rank quantile; 0 for an empty list."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(len(sorted_values) * q))
    return float(sorted_values[rank - 1])


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
