"""Single-pass streaming evaluation with online micro F-measure."""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .data import DatasetStream
from .errors import EmptyStream, TaskOutOfRange
from .graph import TaskGraph
from .kernels import KernelSpec
from .learners import LearnerConfig, make_learner

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
    which holds the rows in the form (sparse or dense) the stream's density
    favours, so a sparse stream is never densified; a later run with the
    same kernel builds nothing.

    One loop hands the learner each pass's rows, as views of the prepared
    input: dense rows in windows of up to WINDOW rows to `step_window`,
    which steps only at the window's mistakes, and sparse rows a pass at
    a time to `_step_rows`, one `step` per row. Both return the score each
    row predicted from and |S| after each row; the confusion counts, the
    trajectory's F at its marks (every 1% of the steps, and the last) and
    |S| there are read from them afterwards."""
    if len(stream) == 0:
        raise EmptyStream("cannot run a learner on an empty stream")
    if not stream.binary:
        raise ValueError("stream still has real labels; binarize first")
    if isinstance(epochs, bool) or not isinstance(epochs, numbers.Integral):
        raise ValueError("epochs must be an integer >= 1, got %r" % (epochs,))
    if epochs < 1:
        raise ValueError("epochs must be >= 1, got %r" % epochs)
    k = config.graph.k
    if stream.k > k:
        raise TaskOutOfRange("the stream has %d tasks but the graph has only %d"
                             % (stream.k, k))
    learner = make_learner(config, dim=stream.d)
    prepared = stream.prepared(config.kernel)
    n = len(stream)
    if prepared.X is not None:
        width, step = WINDOW, learner.step_window
    else:
        width, step = n, lambda rows: _step_rows(learner, rows)
    total = n * epochs
    scores, sizes = np.empty(total), np.empty(total, dtype=np.int64)
    for done in range(0, total, n):
        for i in range(0, n, width):
            j = min(i + width, n)
            at = slice(done + i, done + j)
            scores[at], sizes[at] = step(prepared.rows(i, j))
    every = max(1, total // 100)
    marks = np.append(np.arange(every, total, every), total)
    # cell 0..3 = tp, fp, fn, tn, from the prediction's and the label's sign
    cell = 2 * ~(scores >= 0) + np.tile(stream.labels != 1, epochs)
    per_task = np.bincount(4 * np.tile(prepared.tasks, epochs) + cell,
                           minlength=4 * k).reshape(k, 4)
    # the counts up to each mark: a bincount by segment between marks, summed
    segment = np.arange(total) // every
    upto = np.bincount(4 * segment + cell, minlength=4 * len(marks))
    upto = upto.reshape(-1, 4).cumsum(axis=0).tolist()
    trajectory = [(mark, _f_measure(tp, fp, fn), size) for mark, (tp, fp, fn, _), size
                  in zip(marks.tolist(), upto, sizes[marks - 1].tolist())]
    return StreamMetrics(mistakes=learner.mistakes, per_task=per_task,
                         trajectory=trajectory, final_active=learner.active_size)


def _step_rows(learner, rows):
    """`step_window` for sparse rows: one `step` per row, on its Query cut
    just then, reading |S| only after a mistake, the one step that can
    change it."""
    scores, sizes = [], []
    size, query = learner.active_size, rows.query
    for r, y in enumerate(rows.labels):
        _, score, mistake, _ = learner.step(query(r), y)
        if mistake:
            size = learner.active_size
        scores.append(score)
        sizes.append(size)
    return np.array(scores), np.array(sizes)


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
    percent = text.endswith("%")
    try:
        value = float(text[:-1]) if percent else int(text)
    except ValueError:
        raise ValueError("budget must be a positive integer or a percentage such "
                         "as 10%%, got %r" % text) from None
    if not percent:
        if value < 1:
            raise ValueError("budget must be positive")
        return value
    frac = value / 100.0
    if not (np.isfinite(frac) and frac > 0):
        raise ValueError("budget fraction %r must be finite and positive" % text)
    return max(1, int(np.ceil(frac * baseline_active_size(stream, kernel))))
