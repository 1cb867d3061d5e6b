"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, op): the parent is the index of the
enclosing span (-1 for an op's root span) and op is the index of the
operation that caused it.  Spans stay in memory and are written out once,
when the run ends.  The untraced run uses NULL_TRACER, whose spans are a
shared no-op context, so the timed code path is the same in both runs.
"""

from __future__ import annotations

import json
import time
from contextlib import nullcontext

# Per-layer metrics: (name, unit, better).  A ".s" metric is the mean self
# time per traced pass of the span with that name; ".calls" counts its spans
# per pass.  The other counts are computed from array sizes and call
# arguments, per pass.
PER_LAYER = (
    ("empirical.value_vector.s", "s", "lower"),
    ("empirical.sort.s", "s", "lower"),
    ("empirical.kolmogorov.s", "s", "lower"),
    ("empirical.wasserstein1.s", "s", "lower"),
    ("empirical.star_discrepancy.s", "s", "lower"),
    ("empirical.values", "count", "lower"),
    ("empirical.ref_knots_scanned", "count", "lower"),
    ("limitlaw.limit_cdf_conv.s", "s", "lower"),
    ("limitlaw.conv_knots", "count", "lower"),
    ("limitlaw.limit_cdf_invert.s", "s", "lower"),
    ("limitlaw.invert_cells", "count", "lower"),
    ("limitlaw.cf_truncated.s", "s", "lower"),
    ("limitlaw.cf_depth", "count", "lower"),
    ("limitlaw.invert_envelope", "prob", "lower"),
    ("limitlaw.conv_vertical_slack", "prob", "lower"),
    ("window_bounds.optimize_window.s", "s", "lower"),
    ("window_bounds.optimize_window.calls", "count", "lower"),
    ("window_bounds.candidates", "count", "lower"),
    ("window_bounds.resolve_regime.s", "s", "lower"),
    ("qadditive.digit_stats.s", "s", "lower"),
    ("qadditive.digit_stats.calls", "count", "lower"),
    ("qadditive.ew_diagnose.s", "s", "lower"),
    ("qadditive.ew_diagnose.calls", "count", "lower"),
    ("mixed_radix.expand.s", "s", "lower"),
    ("mixed_radix.expand.calls", "count", "lower"),
    ("mixed_radix.compress.s", "s", "lower"),
    ("mixed_radix.compress.calls", "count", "lower"),
    ("markov_digits.build_chain.s", "s", "lower"),
    ("markov_digits.covariance_decay.s", "s", "lower"),
    ("markov_digits.window_variance.s", "s", "lower"),
    ("markov_digits.digits_sampled", "count", "lower"),
    ("experiments.run_experiment.self_s", "s", "lower"),
    ("experiments.build_reference.s", "s", "lower"),
    ("experiments.rows_to_csv.s", "s", "lower"),
    ("experiments.write_cf_trace.s", "s", "lower"),
    ("experiments.rows", "count", "lower"),
    ("experiments.csv_bytes", "B", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
)

# Computed counts: an operation's inspection adds to these, per pass.
COUNTS = ("empirical.values", "empirical.ref_knots_scanned",
          "limitlaw.conv_knots", "limitlaw.invert_cells", "limitlaw.cf_depth",
          "window_bounds.candidates", "markov_digits.digits_sampled",
          "experiments.rows", "experiments.csv_bytes")

# Recorded values: the widest seen in a pass, so a widened envelope shows.
WIDEST = ("limitlaw.invert_envelope", "limitlaw.conv_vertical_slack")

ROOT = "op"          # name of each operation's root span


class NullTracer:
    """Tracer of the untraced run: every span is the same no-op context."""

    active = False
    _null = nullcontext()

    def span(self, name: str):
        return self._null

    def begin_op(self, op: int) -> None:
        pass


NULL_TRACER = NullTracer()


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        parent = tr._stack[-1] if tr._stack else -1
        self.index = len(tr.spans)
        tr.spans.append([self.name, time.perf_counter(), 0.0, parent, tr._op])
        tr._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][2] = time.perf_counter()
        tr._stack.pop()
        return False


class Tracer:
    """Records nested spans; self time is a span minus its direct children."""

    active = True

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def begin_op(self, op: int) -> None:
        self._op = op

    def self_times(self) -> tuple[dict, dict]:
        """(total self time by span name, span count by name)."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for (name, t0, t1, _, _), c in zip(self.spans, child):
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0 - c)
            calls[name] = calls.get(name, 0) + 1
        return self_s, calls

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)


def layer_metrics(tracer: Tracer, passes: int, counts: dict, widest: dict,
                  traced_run_s: float, untraced_run_s: float) -> dict:
    """Every PER_LAYER metric from one traced run of `passes` passes."""
    self_s, calls = tracer.self_times()
    root = self_s.get(ROOT, 0.0)
    total = sum(self_s.values())
    values = {
        "trace.coverage": (total - root) / total if total > 0 else 0.0,
        "trace.overhead": traced_run_s / untraced_run_s - 1.0,
        "experiments.run_experiment.self_s":
            self_s.get("experiments.run_experiment", 0.0) / passes,
    }
    for name, _, _ in PER_LAYER:
        if name in values:
            continue
        if name in COUNTS:
            values[name] = counts.get(name, 0)
        elif name in WIDEST:
            values[name] = widest.get(name, 0.0)
        elif name.endswith(".calls"):
            values[name] = calls.get(name[:-len(".calls")], 0) // passes
        else:
            values[name] = self_s.get(name[:-len(".s")], 0.0) / passes
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
