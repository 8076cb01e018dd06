"""Windowed stepping: `run_stream` on dense queries scores each window of
examples from kernel blocks and steps a learner, the Perceptron battery
included, only at its mistakes. It must give what stepping the same
learner one example at a time gives: the same decisions and outputs, and
scores within 1e-12 per unit of the largest weight (the battery's weights
are +-1; mtforg, whose shrinks amplify rounding, by its decisions only).
A score sums weight times kernel terms with |kernel| <= 1, and the block
product rounds kernel values differently from a per-example column, so
the difference scales with the weights: mtbprj2 on a span that saturates
(20 features, B = 40, three passes) grows a weight to 38 and differs by
2.1e-12, while no other case here passes 4e-13.

A window is a slice of the stream's prepared input (`DatasetStream.prepared`),
which a second run with the same kernel reads again."""

from collections import Counter

import numpy as np
import pytest

from mtbudget import active_set, harness, learners
from mtbudget.data import DatasetStream, generate_synthetic
from mtbudget.graph import TaskGraph
from mtbudget.kernels import KernelSpec, make_queries
from mtbudget.learners import LearnerConfig, make_learner
from support import queries_in

KERNELS = ["linear:norm", "poly:2:1:norm", "gauss:0.5"]
GRAPHS = {"complete": TaskGraph.complete(3), "edgeless": TaskGraph.edgeless(3)}
# (n, epochs, budget): n < 64 over three passes, and n not a multiple of 64
# at a budget that evicts from the first window on or one that grows the
# capacity (16, 32, 41) inside the first window
CASES = [(40, 3, 12), (150, 1, 12), (150, 3, 40)]
# (learner, kernel, graph): the battery's tasks are independent, so it runs
# on the edgeless graph only
LEARNERS = [(algo, kernel, graph)
            for algo in ["mtbprj", "mtbprj2", "mtrbp", "mtforg"]
            for kernel in KERNELS for graph in sorted(GRAPHS)]
LEARNERS += [("perceptron_battery", kernel, "edgeless") for kernel in KERNELS]


def windowed_run(stream, config, epochs, monkeypatch):
    """`run_stream`'s metrics, the score of every step its windows took,
    the learner, and per window what happened inside it."""
    with monkeypatch.context() as patch:
        return _windowed_run(stream, config, epochs, patch)


def _windowed_run(stream, config, epochs, monkeypatch):
    runs = []
    real = harness.make_learner

    def make(config, dim):
        learner = real(config, dim)
        scores, events = [], []
        step_window = learner.step_window
        if config.algorithm == "perceptron_battery":
            append = learner._append

            def recorded_append(t, n, query, y):
                events[-1]["append"] += 1
                return append(t, n, query, y)

            def capacity():     # of every task's store
                return [store.sq.size for store in learner._stores]

            learner._append = recorded_append
        else:
            s = learner.active_set
            insert, evict = s.insert, s.evict

            def recorded_insert(query, weight, force=False):
                hi = s._hi
                slot = insert(query, weight, force)
                events[-1]["reuse"] += slot < hi
                return slot

            def recorded_evict(r):
                events[-1]["evict"] += 1
                return evict(r)

            def capacity():
                return s._cap

            s.insert, s.evict = recorded_insert, recorded_evict

        def recorded_window(window):
            events.append(Counter())
            cap = capacity()
            window_scores, sizes = step_window(window)
            scores.append(window_scores.copy())
            events[-1]["grew"] = capacity() != cap
            return window_scores, sizes

        learner.step_window = recorded_window
        runs.append((learner, scores, events))
        return learner

    monkeypatch.setattr(harness, "make_learner", make)
    metrics = harness.run_stream(stream, config, epochs=epochs)
    (learner, scores, events), = runs
    return metrics, np.concatenate(scores), learner, events


def stepped_run(stream, config, epochs):
    """The outputs of `run_stream`, recounted from one `step` per example
    of a fresh learner: per-task counts, trajectory, scores and the learner."""
    learner = make_learner(config, stream.d)
    queries = queries_in(make_queries(stream, config.kernel))
    labels = stream.labels.astype(np.int64).tolist()
    total = len(queries) * epochs
    every = max(1, total // 100)
    per_task = np.zeros((config.graph.k, 4), dtype=np.int64)
    trajectory, scores = [], []
    for step in range(1, total + 1):
        query, y = queries[(step - 1) % len(queries)], labels[(step - 1) % len(queries)]
        out = learner.step(query, y)
        scores.append(out.score)
        per_task[query.task, 2 * (out.prediction != 1) + (y != 1)] += 1
        if step % every == 0 or step == total:
            tp, fp, fn = per_task.sum(axis=0)[:3].tolist()
            f = 2.0 * tp / (2 * tp + fp + fn) if tp + fp + fn else 0.0
            trajectory.append((step, f, learner.active_size))
    return per_task, trajectory, np.array(scores), learner


@pytest.mark.filterwarnings("ignore:mtforg mistake bound")
@pytest.mark.parametrize("n, epochs, budget", CASES)
@pytest.mark.parametrize("algo, kernel, graph", LEARNERS)
def test_windows_match_stepping_each_example(monkeypatch, algo, kernel, graph, n,
                                             epochs, budget):
    stream, _ = generate_synthetic(3, 20, n, 0.6, 0.2, seed=n + budget)
    config = LearnerConfig(algo, GRAPHS[graph], budget, eta=0.05,
                           kernel=KernelSpec.parse(kernel), seed=3)
    per_task, trajectory, want, reference = stepped_run(stream, config, epochs)
    kept = []
    for _ in range(2):      # the second run reads the input the first prepared
        metrics, scores, learner, events = windowed_run(stream, config, epochs,
                                                        monkeypatch)
        kept.append(stream.prepared(config.kernel))
        assert np.array_equal(scores >= 0, want >= 0)      # every prediction
        assert np.array_equal(np.asarray(metrics.per_task), per_task)
        assert metrics.trajectory == trajectory
        assert metrics.mistakes == learner.mistakes == reference.mistakes
        assert metrics.final_active == learner.active_size == reference.active_size
        battery = algo == "perceptron_battery"
        if algo != "mtforg":
            scale = 1.0 if battery else max(
                1.0, float(np.max(np.abs(reference.active_set.weights))))
            assert np.max(np.abs(scores - want)) <= 1e-12 * scale
        # the windows did what the case is for: a window never spans two passes
        assert len(events) == -(-n // 64) * epochs
        if battery:     # two appends to one of the 3 tasks in a window; growth
            assert any(e["append"] > 3 for e in events)
            assert any(e["grew"] for e in events) == (n == 150)
        elif budget == 12:
            assert any(e["evict"] and e["reuse"] for e in events)
        else:
            assert events[0]["grew"]
    assert kept[0] is kept[1]


@pytest.mark.parametrize("algo, dense", [("mtrbp", True), ("mtrbp", False),
                                         ("perceptron_battery", True),
                                         ("perceptron_battery", False)])
def test_dense_queries_take_windows_and_sparse_ones_step_each(monkeypatch, algo, dense):
    """Every learner on dense queries takes windows and is stepped at its
    mistakes only; sparse queries step one example at a time."""
    calls = Counter()
    real = harness.make_learner

    def make(config, dim):
        learner = real(config, dim)
        step, step_window = learner.step, learner.step_window

        def counted_step(query, y):
            calls["step"] += 1
            return step(query, y)

        def counted_window(window):
            calls["window"] += 1
            return step_window(window)

        learner.step, learner.step_window = counted_step, counted_window
        return learner

    monkeypatch.setattr(harness, "make_learner", make)
    rng = np.random.default_rng(0)
    n, d = 100, 20 if dense else 200     # one nonzero per row: sparse at d = 200
    ids = rng.integers(1, d + 1, n) if not dense else None
    rows = (np.arange(n + 1) * (d if dense else 1),
            np.tile(np.arange(1, d + 1), n) if dense else ids,
            rng.normal(size=n * d if dense else n), np.arange(n) % 3 + 1)
    stream = DatasetStream(rows, rng.choice([-1.0, 1.0], n), 3, d)
    graph = TaskGraph.edgeless(3) if algo == "perceptron_battery" else TaskGraph.complete(3)
    metrics = harness.run_stream(stream, LearnerConfig(algo, graph, 10))
    if not dense:
        assert calls == Counter(step=n)
    else:
        assert calls["window"] == 2 and calls["step"] == metrics.mistakes


@pytest.mark.filterwarnings("ignore:mtforg mistake bound")
@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("algo", ["mtbprj", "mtbprj2", "mtrbp", "mtforg"])
def test_window_blocks_are_views_of_the_prepared_rows(monkeypatch, algo, kernel):
    """A window's queries reach the kernel block as a slice of the prepared
    n x d' array, not as a copy of its rows, and in one call per window."""
    stream, _ = generate_synthetic(3, 20, 150, 0.6, 0.2, seed=7)
    config = LearnerConfig(algo, GRAPHS["complete"], 12, eta=0.05,
                           kernel=KernelSpec.parse(kernel), seed=3)
    blocks = []
    real = active_set.dense_kernel_vector

    def recorded(X, sq_norms, q, q_sq, spec):
        if q.ndim == 2:
            blocks.append(X)
        return real(X, sq_norms, q, q_sq, spec)

    monkeypatch.setattr(active_set, "dense_kernel_vector", recorded)
    harness.run_stream(stream, config)
    rows = stream.prepared(config.kernel).X
    assert len(blocks) == 3     # windows of 64, 64 and 22 rows
    assert all(np.shares_memory(block, rows) for block in blocks)


@pytest.mark.parametrize("kernel", KERNELS)
def test_battery_windows_compute_no_kernel_at_a_mistake(monkeypatch, kernel):
    """A battery window makes one kernel call for its rows with one another,
    on views of the prepared array, and at most one per task of the window
    that holds support vectors. Its mistakes reach the instance's `step`,
    which perfbench's tracer wraps, once each as an insert, and no kernel
    is computed inside it: the step reads the kept score."""
    stream, _ = generate_synthetic(3, 20, 150, 0.6, 0.2, seed=7)
    config = LearnerConfig("perceptron_battery", GRAPHS["edgeless"],
                           kernel=KernelSpec.parse(kernel))
    windows, steps, inside = [], [], []
    real_kernel, real_make = learners.dense_kernel_vector, harness.make_learner

    def recorded_kernel(X, sq_norms, q, q_sq, spec):
        (inside[-1] if inside else windows[-1]["calls"]).append((X, q))
        return real_kernel(X, sq_norms, q, q_sq, spec)

    def make(config, dim):
        learner = real_make(config, dim)
        step, step_window = learner.step, learner.step_window

        def counted_step(query, y):
            inside.append([])
            out = step(query, y)
            steps.append((out.action, inside.pop()))
            return out

        def counted_window(window):
            held = {t for t in window.tasks.tolist() if learner._count[t]}
            windows.append({"tasks": len(held), "calls": []})
            return step_window(window)

        learner.step, learner.step_window = counted_step, counted_window
        return learner

    monkeypatch.setattr(learners, "dense_kernel_vector", recorded_kernel)
    monkeypatch.setattr(harness, "make_learner", make)
    metrics = harness.run_stream(stream, config)
    rows = stream.prepared(config.kernel).X
    assert len(windows) == 3
    for window in windows:
        assert 1 <= len(window["calls"]) <= 1 + window["tasks"]
        X, q = window["calls"][0]
        assert np.shares_memory(X, rows) and np.shares_memory(q, rows)
    assert windows[-1]["tasks"] == 3
    assert len(steps) == metrics.mistakes > 0
    assert steps == [("insert", [])] * metrics.mistakes
