"""Single-pass streaming evaluation with online micro F-measure."""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from operator import itemgetter

import numpy as np

from .data import DatasetStream
from .errors import EmptyStream, TaskOutOfRange
from .graph import TaskGraph
from .kernels import KernelSpec
from .learners import LearnerConfig, make_learner

_prediction = itemgetter(0)     # of a learner's StepOutcome

# Steps a learner on dense queries scores as one block.
WINDOW = 64


def _f_measure(tp, fp, fn):
    denom = 2 * tp + fp + fn
    return 2.0 * tp / denom if denom else 0.0


@dataclass
class StreamMetrics:
    """Per-task confusion counts (tp, fp, fn, tn), the micro-averaged
    counters derived from them, and the run's other outputs."""

    mistakes: int = 0
    per_task: np.ndarray = field(default_factory=lambda: np.zeros((0, 4), dtype=np.int64))
    trajectory: list = field(default_factory=list)  # (step, f_measure, |S|)
    final_active: int = 0

    @property
    def counts(self):
        """Micro (tp, fp, fn, tn): the column sums of `per_task`."""
        return tuple(int(c) for c in self.per_task.sum(axis=0))

    @property
    def steps(self):
        return sum(self.counts)

    @property
    def f_measure(self):
        tp, fp, fn, _ = self.counts
        return _f_measure(tp, fp, fn)


def run_stream(stream: DatasetStream, config: LearnerConfig,
               epochs=1) -> StreamMetrics:
    """Drive one learner over a binarized stream; predictions are scored
    with the pre-update state of each step. The run reads the stream's
    prepared input for the config's kernel (`DatasetStream.prepared`),
    which holds each example's query in the form (sparse or dense) the
    stream's density favours, so a sparse stream is never densified; a
    later run with the same kernel builds nothing. Every learner on dense
    queries, the Perceptron battery included, takes them a window of up to
    WINDOW rows of the prepared arrays at a time and is stepped only at its
    mistakes (`step_window`); sparse queries go one `step` per example.

    The loop keeps whether each step predicted +1, and |S| at each
    trajectory mark (every 1% of the steps, and the last); the confusion
    counts and the trajectory's F are tallied from them afterwards."""
    if len(stream) == 0:
        raise EmptyStream("cannot run a learner on an empty stream")
    if not stream.binary:
        raise ValueError("stream still has real labels; binarize first")
    if epochs < 1:
        raise ValueError("epochs must be >= 1, got %r" % epochs)
    k = config.graph.k
    if stream.k > k:
        raise TaskOutOfRange("the stream has %d tasks but the graph has only %d"
                             % (stream.k, k))
    learner = make_learner(config, dim=stream.d)
    prepared = stream.prepared(config.kernel)
    total = len(stream) * epochs
    every = max(1, total // 100)
    marks = list(range(every, total, every)) + [total]
    run = _run_windows if prepared.X is not None else _run_each
    positive, sizes = run(learner, prepared, marks)
    # cell 0..3 = tp, fp, fn, tn, from the prediction's and the label's sign
    cell = 2 * ~positive + np.tile(stream.labels != 1, epochs)
    per_task = np.bincount(4 * np.tile(prepared.tasks, epochs) + cell,
                           minlength=4 * k).reshape(k, 4)
    # the counts up to each mark: a bincount by segment between marks, summed
    segment = np.arange(total) // every
    upto = np.bincount(4 * segment + cell, minlength=4 * len(marks))
    upto = upto.reshape(-1, 4).cumsum(axis=0).tolist()
    trajectory = [(mark, _f_measure(tp, fp, fn), size)
                  for mark, (tp, fp, fn, _), size in zip(marks, upto, sizes)]
    return StreamMetrics(mistakes=learner.mistakes, per_task=per_task,
                         trajectory=trajectory, final_active=learner.active_size)


def _run_each(learner, prepared, marks):
    """Step the learner once per example, over as many passes of the
    prepared queries as the last mark needs. Returns whether each step
    predicted +1, and |S| at each mark."""
    step = learner.step
    qs = chain.from_iterable(repeat(prepared.queries))
    ys = chain.from_iterable(repeat(prepared.labels))
    predictions = array("b")
    sizes = []
    done = 0
    for mark in marks:
        predictions.extend(map(_prediction, map(step, islice(qs, mark - done),
                                                islice(ys, mark - done))))
        sizes.append(learner.active_size)
        done = mark
    return np.frombuffer(predictions, dtype=np.int8) == 1, sizes


def _run_windows(learner, prepared, marks):
    """`_run_each` for dense queries: the learner steps through
    windows of at most WINDOW examples, cut at each pass's end, each the
    prepared input's rows as views (see `step_window`)."""
    n, total = len(prepared.queries), marks[-1]
    positive = []
    sizes = []
    done = seen = 0
    while done < total:
        i = done % n
        m = min(WINDOW, total - done, n - i)
        inside = bisect_right(marks, done + m, lo=seen)
        scores, at = learner.step_window(prepared.rows(i, i + m),
                                         [mark - done for mark in marks[seen:inside]])
        positive.append(scores >= 0)
        sizes += at
        done, seen = done + m, inside
    return np.concatenate(positive), sizes


def baseline_active_size(stream: DatasetStream, kernel: KernelSpec) -> int:
    """Final active-set size (= mistake count) of the k-Perceptron battery.
    Its run prepares the stream for `kernel`, so a learner's run with the
    same kernel reuses that input."""
    config = LearnerConfig("perceptron_battery", TaskGraph.edgeless(stream.k),
                           kernel=kernel)
    return run_stream(stream, config).final_active


def resolve_budget(spec, stream: DatasetStream, kernel: KernelSpec) -> int:
    """Absolute integer or `<pct>%` of the baseline active-set size."""
    text = str(spec).strip()
    if text.endswith("%"):
        frac = float(text[:-1]) / 100.0
        if not (np.isfinite(frac) and frac > 0):
            raise ValueError("budget fraction %r must be finite and positive"
                             % text)
        base = baseline_active_size(stream, kernel)
        return max(1, int(np.ceil(frac * base)))
    value = int(text)
    if value < 1:
        raise ValueError("budget must be positive")
    return value
