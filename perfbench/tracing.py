"""In-memory span tracer that wraps ``privest`` layer entry points from outside.

The runners in ``privest.experiments`` and ``privest.estimators`` look up
their channel kernels, aggregation and basis helpers, SGD engines and
generator ``sample`` methods at call time, so replacing those attributes for
the length of a traced pass records a span around every call without editing
the library.  A span is ``(name, start, end, parent, work, extra)``, where
``work`` counts the records, rows or entries the call handled and ``extra`` is
the output size in bytes for a channel kernel and the number of grid rows
read for a prefix-mean aggregation; both are computed from array shapes.
A wrap point that no longer exists raises ``MissingWrapPoint`` so a
refactor cannot silently drop a layer from the trace.
"""

import time
from contextlib import contextmanager

import numpy as np
from privest import estimators, experiments


class MissingWrapPoint(RuntimeError):
    """A layer entry point the tracer must wrap is gone from the library."""


def _rows(args, result):
    return np.shape(args[0])[0], np.asarray(result).nbytes


def _prefix(args, result):
    # rows materialised by the running sum vs grid rows actually read
    return np.shape(args[0])[0], len(args[1])


def _basis(args, result):
    return np.size(result), 0


def _sgd(args, result):
    # lockstep engines take (reps, n[, d]) streams: one step per record
    shape = np.shape(args[0])
    return shape[0] * shape[1], 0


def _sample(args, result):
    return int(args[1]), 0


_KERNELS = {
    "_linf_ball_batch": "mechanisms.linf_ball",
    "_l2_ball_batch": "mechanisms.l2_ball",
    "_laplace_vector_batch": "mechanisms.laplace_vector",
    "_naive_median_batch": "mechanisms.naive_median",
    "_truncated_laplace_batch": "mechanisms.truncated_laplace_scalar",
    "_sign_rr_batch": "mechanisms.sign_rr",
}


def wrap_points(generator_classes):
    """(owner, attribute, span name, counter) for every traced entry point."""
    points = [
        (experiments, "_prefix_means", "experiments.prefix_means", _prefix),
        (experiments, "trig_basis_matrix", "estimators.trig_basis", _basis),
        (experiments, "_median_sgd_paths", "estimators.median_sgd_paths", _sgd),
        (experiments, "_logistic_sgd_paths", "estimators.logistic_sgd_paths", _sgd),
    ]
    for attr, name in _KERNELS.items():
        # experiments never calls sign RR directly; only the SGD engine does
        if attr != "_sign_rr_batch":
            points.append((experiments, attr, name, _rows))
        if attr != "_naive_median_batch":
            points.append((estimators, attr, name, _rows))
    for cls in generator_classes:
        points.append((cls, "sample", "generators.sample", _sample))
    return points


class Tracer:
    """Collects nested spans for one pass at a time."""

    def __init__(self, points):
        for owner, attr, _, _ in points:
            if not hasattr(owner, attr):
                raise MissingWrapPoint(f"{getattr(owner, '__name__', owner)}.{attr} is gone")
        self.points = points
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, 0, 0)

    def _wrap(self, fn, name, counter):
        # span() inlined: sgd-stream makes ~100k wrapped calls per pass
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                work = (0, 0) if result is None else counter(args, result)
                spans[index] = (name, start, end, parent) + work

        return traced

    @contextmanager
    def installed(self):
        """Replace every wrap point for the duration of the block, then restore."""
        saved = []
        try:
            for owner, attr, name, counter in self.points:
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, name, counter))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans, privatized, records):
    """Per-layer self times and shape-derived counts of one traced pass."""
    own = self_times(spans)

    def total(prefix, values):
        return sum(v for (name, *_), v in zip(spans, values) if name.startswith(prefix))

    work = [s[4] for s in spans]
    extra = [s[5] for s in spans]
    gen_s = total("generators.", own)
    prefix_rows = total("experiments.prefix_means", work)
    prefix_read = total("experiments.prefix_means", extra)
    out_bytes = [b if s[0].startswith("mechanisms.") else 0 for s, b in zip(spans, extra)]
    return {
        "generators.self_s": gen_s,
        "generators.Mrecords_s": total("generators.", work) / gen_s / 1e6 if gen_s else 0.0,
        "mechanisms.self_s": total("mechanisms.", own),
        "mechanisms.records": privatized,
        "mechanisms.calls_per_record": privatized / records,
        "mechanisms.out_MB": sum(out_bytes) / 1e6,
        "mechanisms.max_out_MB": max(out_bytes, default=0) / 1e6,
        "experiments.prefix_means_s": total("experiments.prefix_means", own),
        "experiments.prefix_rows_used_frac": prefix_read / prefix_rows if prefix_rows else 0.0,
        "experiments.runner_self_s": total("experiments.run_experiment", own),
        "experiments.emit_s": total("experiments.emit_csv", own),
        "estimators.self_s": total("estimators.", own),
        # every span but the root "pass", whose own time is benchmark glue
        "trace.self_sum_s": sum(own) - own[0],
    }
