"""Single-pass streaming evaluation with online micro F-measure."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import DatasetStream
from .errors import TaskOutOfRange
from .graph import TaskGraph
from .kernels import KernelSpec, make_queries
from .learners import LearnerConfig, make_learner


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
        denom = 2 * tp + fp + fn
        return 2.0 * tp / denom if denom else 0.0


def run_stream(stream: DatasetStream, config: LearnerConfig,
               epochs=1) -> StreamMetrics:
    """Drive one learner over a binarized stream; predictions are scored
    with the pre-update state of each step. Each example's query is built
    once, in the form (sparse or dense) the stream's density favours, so a
    sparse stream is never densified."""
    if not stream.binary:
        raise ValueError("stream still has real labels; binarize first")
    if epochs < 1:
        raise ValueError("epochs must be >= 1, got %r" % epochs)
    if stream.k > config.graph.k:
        raise TaskOutOfRange("the stream has %d tasks but the graph has only %d"
                             % (stream.k, config.graph.k))
    learner = make_learner(config, dim=stream.d)
    metrics = StreamMetrics(per_task=np.zeros((config.graph.k, 4), dtype=np.int64))
    queries = make_queries(stream, config.kernel)
    labels = stream.labels.astype(np.int64).tolist()
    total = len(queries) * epochs
    every = max(1, total // 100)
    step = 0
    for _ in range(epochs):
        for query, y in zip(queries, labels):
            outcome = learner.step(query, y)
            step += 1
            # column tp, fp, fn or tn
            metrics.per_task[query.task - 1,
                             2 * (outcome.prediction != 1) + (y != 1)] += 1
            if step % every == 0 or step == total:
                metrics.trajectory.append((step, metrics.f_measure,
                                           learner.active_size))
    metrics.mistakes = learner.mistakes
    metrics.final_active = learner.active_size
    return metrics


def baseline_active_size(stream: DatasetStream, kernel: KernelSpec) -> int:
    """Final active-set size (= mistake count) of the k-Perceptron battery."""
    if len(stream) == 0:
        return 0
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
