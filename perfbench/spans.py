"""Spans recorded around the package's public calls, from outside it.

A span is `[name, parent, start, end, note]`: `parent` is the index of the
enclosing span (-1 at the top) and `note` an optional value taken from the
call, such as the learner action of a step or the element count of the
matrix a kernel call reads. Spans stay in memory until `dump` writes them.
A layer's self time is its span's duration minus that of its direct
children.
"""

from __future__ import annotations

import gzip
from contextlib import contextmanager
from time import perf_counter

from mtbudget import active_set, harness, learners


class Tracer:
    """Collects spans from the functions it wraps, in call order."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, note=None):
        """`fn` with every call recorded as a span named `name`."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if note is not None:
                span[4] = note(args, result)
            return result
        return traced

    def dump(self, path, header=""):
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("# %s\nname\tparent\tstart\tend\tnote\n" % header)
            for name, parent, t0, t1, note in self.spans:
                fh.write("%s\t%d\t%.9f\t%.9f\t%s\n" % (name, parent, t0, t1,
                                                       "" if note is None else note))


def self_times(spans):
    """Per span name: (count, total duration, self duration)."""
    child = [0.0] * len(spans)
    for _, parent, t0, t1, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out = {}
    for (name, _, t0, t1, _), c in zip(spans, child):
        count, total, own = out.get(name, (0, 0.0, 0.0))
        out[name] = (count + 1, total + (t1 - t0), own + (t1 - t0 - c))
    return out


def _action(args, outcome):
    return outcome.action


def _elements(args, result):
    return args[0].size


@contextmanager
def traced(tracer):
    """Route the package's layer boundaries through `tracer` while active.

    `dense_kernel_vector` is imported by name into `active_set` and
    `learners`, so it is wrapped in both namespaces. Learner steps are
    wrapped per instance, on the learner `run_stream` makes.
    """
    real_make_learner = harness.make_learner

    def make_learner(config, dim):
        learner = real_make_learner(config, dim)
        learner.step = tracer.wrap("learners.step", learner.step, _action)
        return learner

    targets = [(harness, "run_stream", "harness.run_stream", None),
               (learners, "compute_phi", "learners.compute_phi", None),
               (active_set, "dense_kernel_vector", "kernels.kernel_vector", _elements),
               (learners, "dense_kernel_vector", "kernels.kernel_vector", _elements)]
    for method, layer in (("predict", "predict"), ("projection", "projection"),
                          ("insert", "insert"), ("evict", "evict"),
                          ("leave_one_out_residuals", "loo")):
        targets.append((active_set.ActiveSet, method, "active_set." + layer, None))
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in targets]
    saved.append((harness, "make_learner", real_make_learner))
    try:
        for owner, attr, name, note in targets:
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), note))
        harness.make_learner = make_learner
        yield tracer
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)
