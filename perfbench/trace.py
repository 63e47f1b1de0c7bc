"""Span tracing from the benchmark's own files, and the per-layer metrics.

For the traced run only, the benchmark replaces the public names that one
package module takes from another with wrappers that record a span: name,
start, end, parent and op id.  Spans are kept in memory and folded into
per-name self times in batches between ops; the raw spans of the first
``SAMPLE_OPS`` ops are kept to be written out when the run ends.

A span's layer is the part of its name before the first dot: the package
modules ``approximation``, ``kernels``, ``coefficients``, ``reference``,
``analysis`` and ``cli``, plus ``bench`` for the benchmark's own loop.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import contextmanager

SAMPLE_OPS = 50
FOLD_SPANS = 1 << 16

LAYERS = ("approximation", "kernels", "coefficients", "reference", "analysis", "cli")

#: (module the caller lives in, name it looks up, span name).  Each module
#: looks these names up in its own globals at call time, so replacing them
#: there catches every cross-module call.  Names a module no longer has are
#: skipped, and their layer reports zero calls.
CROSS_MODULE_CALLS = (
    ("approximation", "kernel_sinh", "kernels.kernel_sinh"),
    ("approximation", "kernel_cosh", "kernels.kernel_cosh"),
    ("approximation", "kernel_sin", "kernels.kernel_sin"),
    ("approximation", "kernel_cos", "kernels.kernel_cos"),
    ("approximation", "make_nodes", "kernels.make_nodes"),
    ("approximation", "derive_expansion", "coefficients.derive_expansion"),
    ("cli", "ApproxRequest", "approximation.ApproxRequest"),
    ("cli", "approx_I", "approximation.approx_I"),
    ("cli", "approx_J", "approximation.approx_J"),
    ("cli", "ref_I", "reference.ref_I"),
    ("cli", "ref_J", "reference.ref_J"),
    ("cli", "fit_error_slope", "analysis.fit_error_slope"),
    ("analysis", "hp_approx", "analysis.hp_approx"),
    ("analysis", "hp_ref", "analysis.hp_ref"),
)

_EVALUATE_SPANS = ("approximation.evaluate", "approximation.approx_I",
                   "approximation.approx_J")


def self_times(spans):
    """Self time of each span: its duration minus what its children cover.

    ``spans`` is a list of ``(name, start, end, parent, op_id)`` records
    where ``parent`` is the index of the parent span or -1.  Child intervals
    are clipped to the parent and merged, so overlapping children are not
    subtracted twice.
    """
    children = [[] for _ in spans]
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for (_, start, end, _, _), kids in zip(spans, children):
        covered = 0
        reach = start
        for k_start, k_end in sorted(kids):
            k_start = max(k_start, reach)
            k_end = min(k_end, end)
            if k_end > k_start:
                covered += k_end - k_start
                reach = k_end
        out.append((end - start) - covered)
    return out


class Tracer:
    """Records the spans of one traced phase and folds them into totals."""

    def __init__(self):
        self.spans = []
        self.stack = [-1]
        self.op_id = 0
        self.self_ns = Counter()
        self.calls = Counter()
        self.sample = []
        self.op_p = []
        self.ops = 0
        self.points = 0
        self.rows = 0
        self.op_ns = 0
        self.transcendentals = 0
        self.requests = 0
        self.fallbacks = 0

    def wrap(self, name, fn):
        """``fn`` with a span named ``name`` around every call."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            record = [name, clock(), 0, stack[-1], self.op_id]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    def wrap_request(self, cls):
        """Traced request constructor that also counts small-|z| fallbacks."""
        traced = self.wrap("approximation.ApproxRequest", cls)

        def request(*args, **kwargs):
            req = traced(*args, **kwargs)
            self.requests += 1
            if abs(req.z) < req.eps:
                self.fallbacks += 1
            return req

        return request

    def end_op(self, op):
        """Close the op just finished; fold the spans once enough pile up."""
        self.op_p.append(op.points[0][2])
        self.ops += 1
        self.points += len(op.points)
        self.rows += op.rows
        self.op_id += 1
        if len(self.spans) >= FOLD_SPANS:
            self.fold()

    def fold(self):
        """Fold the recorded spans into per-name totals and clear them."""
        spans = self.spans
        first_op = self.op_id - len(self.op_p)
        for record, own in zip(spans, self_times(spans)):
            self.self_ns[record[0]] += own
            self.calls[record[0]] += 1
            if record[3] < 0:
                self.op_ns += record[2] - record[1]
            elif record[0].startswith("kernels.kernel_"):
                # Computed, not counted: a kernel call costs p sinh/cosh
                # (sin/cos) evaluations, one at z and one per interior node.
                self.transcendentals += self.op_p[record[4] - first_op]
            if record[4] < SAMPLE_OPS:
                self.sample.append(tuple(record))
        spans.clear()
        self.op_p.clear()

    def layer_ns(self, layer):
        return sum(ns for name, ns in self.self_ns.items()
                   if name.split(".", 1)[0] == layer)

    def layer_calls(self, layer):
        return sum(count for name, count in self.calls.items()
                   if name.split(".", 1)[0] == layer)


@contextmanager
def cross_module_spans(tracer, package="besselhyp"):
    """Install span wrappers on the loaded package modules; restore on exit."""
    saved = []
    try:
        for module_name, attr, span in CROSS_MODULE_CALLS:
            module = sys.modules.get(f"{package}.{module_name}")
            if module is None or not hasattr(module, attr):
                continue
            original = getattr(module, attr)
            saved.append((module, attr, original))
            if attr == "ApproxRequest":
                setattr(module, attr, tracer.wrap_request(original))
            else:
                setattr(module, attr, tracer.wrap(span, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, cache_delta):
    """Per-layer metrics of one traced phase.

    ``cache_delta`` is ``(hits, misses)`` of ``derive_expansion``'s cache over
    the phase, or ``(0, 0)`` when it has no cache.
    """
    points = tracer.points
    total = tracer.op_ns
    us = 1e-3
    evaluate_calls = sum(tracer.calls[name] for name in _EVALUATE_SPANS)
    evaluate_ns = sum(tracer.self_ns[name] for name in _EVALUATE_SPANS)
    kernel_calls = sum(count for name, count in tracer.calls.items()
                       if name.startswith("kernels.kernel_"))
    hits, misses = cache_delta
    layer_ns = {layer: tracer.layer_ns(layer) for layer in LAYERS}
    return {
        "approximation.request_us": (
            _ratio(tracer.self_ns["approximation.ApproxRequest"],
                   tracer.calls["approximation.ApproxRequest"]) * us, "us"),
        "approximation.evaluate_self_us": (_ratio(evaluate_ns, evaluate_calls) * us, "us"),
        "approximation.fallback_frac": (_ratio(tracer.fallbacks, tracer.requests), "frac"),
        "approximation.share": (_ratio(layer_ns["approximation"], total), "frac"),
        "kernels.calls_per_point": (_ratio(kernel_calls, points), "calls/point"),
        "kernels.us_per_point": (_ratio(layer_ns["kernels"], points) * us, "us"),
        "kernels.share": (_ratio(layer_ns["kernels"], total), "frac"),
        "kernels.transcendentals_per_point": (
            _ratio(tracer.transcendentals, points), "calls/point"),
        "coefficients.derive_calls_per_point": (
            _ratio(tracer.layer_calls("coefficients"), points), "calls/point"),
        "coefficients.cache_hit_ratio": (_ratio(hits, hits + misses), "frac"),
        "coefficients.us_per_point": (_ratio(layer_ns["coefficients"], points) * us, "us"),
        "reference.calls_per_point": (
            _ratio(tracer.layer_calls("reference"), points), "calls/point"),
        "reference.us_per_call": (
            _ratio(layer_ns["reference"], tracer.layer_calls("reference")) * us, "us"),
        "reference.share": (_ratio(layer_ns["reference"], total), "frac"),
        "cli.self_us_per_row": (_ratio(layer_ns["cli"], tracer.rows) * us, "us"),
        "cli.share": (_ratio(layer_ns["cli"], total), "frac"),
        "analysis.us_per_call": (
            _ratio(layer_ns["analysis"], tracer.layer_calls("analysis")) * us, "us"),
        "analysis.share": (_ratio(layer_ns["analysis"], total), "frac"),
        "trace.layer_sum_frac": (_ratio(sum(layer_ns.values()), total), "frac"),
    }
