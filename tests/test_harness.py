import numpy as np
import pytest

from mtbudget.data import DatasetStream, generate_synthetic
from mtbudget.errors import TaskOutOfRange
from mtbudget.graph import TaskGraph
from mtbudget.harness import (StreamMetrics, baseline_active_size,
                              resolve_budget, run_stream)
from mtbudget.kernels import KernelSpec
from mtbudget.learners import LearnerConfig, make_learner
from support import labelled

SPEC = KernelSpec("linear", normalize=True)


def small_stream(n=300, k=3, d=8, seed=0, noise=0.2):
    stream, _ = generate_synthetic(k, d, n, 0.7, noise, seed=seed)
    return stream


class TestFMeasure:
    def test_formula_cases(self):
        m = StreamMetrics(tp=3, fp=1, fn=2, tn=10)
        assert m.f_measure == pytest.approx(6.0 / 9.0)
        assert StreamMetrics(tn=5).f_measure == 0.0
        assert StreamMetrics(tp=5).f_measure == 1.0

    def test_counts_sum_to_steps(self):
        stream = small_stream()
        cfg = LearnerConfig("mtrbp", TaskGraph.complete(3), budget=20,
                            kernel=SPEC)
        m = run_stream(stream, cfg)
        assert m.steps == len(stream)
        # a zero-score step with a positive label updates but classifies
        # correctly, so mistakes can exceed fp + fn
        assert m.mistakes >= m.fp + m.fn
        assert m.per_task.sum() == len(stream)
        assert m.per_task.shape == (3, 4)
        assert (m.per_task.sum(axis=0)
                == np.array([m.tp, m.fp, m.fn, m.tn])).all()


class TestCausality:
    def test_predictions_precede_updates(self):
        """Metrics must replay from pre-update scores, so an independent
        replay of the same learner on the same stream agrees step by step."""
        stream = small_stream(seed=1)
        cfg = LearnerConfig("mtbprj", TaskGraph.complete(3), budget=15,
                            eta=0.1, kernel=SPEC)
        learner = make_learner(cfg, stream.d)
        tp = fp = fn = tn = 0
        for query, y in labelled(stream.instances, stream.labels, stream.d, SPEC):
            pred = learner.step(query, y).prediction
            if pred == 1 and y == 1:
                tp += 1
            elif pred == 1:
                fp += 1
            elif y == 1:
                fn += 1
            else:
                tn += 1
        m = run_stream(stream, cfg)
        assert (m.tp, m.fp, m.fn, m.tn) == (tp, fp, fn, tn)

    def test_suffix_independence(self):
        """Prefix metrics cannot depend on later examples."""
        stream = small_stream(seed=2, n=200)
        cfg = LearnerConfig("mtforg", TaskGraph.complete(3), budget=100,
                            kernel=SPEC)
        half = DatasetStream(stream.instances[:100], stream.labels[:100],
                             stream.k, stream.d)
        shuffled = DatasetStream(
            stream.instances[:100] + stream.instances[100:][::-1],
            np.concatenate([stream.labels[:100], stream.labels[100:][::-1]]),
            stream.k, stream.d)
        m_half = run_stream(half, cfg)
        learner = make_learner(cfg, stream.d)
        mist = 0
        examples = labelled(shuffled.instances, shuffled.labels, shuffled.d, SPEC)
        for i, e in enumerate(examples):
            if i == 100:
                break
            mist += int(learner.step(*e).mistake)
        assert mist == m_half.mistakes


class TestTrajectory:
    def test_sampling_interval(self):
        stream = small_stream(n=250)
        cfg = LearnerConfig("mtrbp", TaskGraph.complete(3), budget=20,
                            kernel=SPEC)
        m = run_stream(stream, cfg)
        steps = [t[0] for t in m.trajectory]
        interval = max(1, 250 // 100)
        assert steps == list(range(interval, 251, interval))
        for _, f, size in m.trajectory:
            assert 0.0 <= f <= 1.0 and 0 <= size <= 20

    def test_final_active_matches_learner(self):
        stream = small_stream(n=150)
        cfg = LearnerConfig("mtbprj2", TaskGraph.complete(3), budget=10,
                            kernel=SPEC)
        m = run_stream(stream, cfg)
        assert m.final_active == m.trajectory[-1][2] <= 10


class TestBinaryLabels:
    def test_real_labels_rejected(self):
        stream = small_stream(n=20)
        real = DatasetStream(stream.instances, stream.labels * 0.5, stream.k,
                             stream.d)
        cfg = LearnerConfig("mtrbp", TaskGraph.complete(3), budget=5,
                            kernel=SPEC)
        with pytest.raises(ValueError, match="binarize"):
            run_stream(real, cfg)


class TestTaskCount:
    @pytest.mark.parametrize("algo", ["mtbprj", "perceptron_battery"])
    def test_graph_with_fewer_tasks_rejected(self, algo):
        stream = small_stream(n=60, k=3)
        cfg = LearnerConfig(algo, TaskGraph.edgeless(2), budget=5, kernel=SPEC)
        with pytest.raises(TaskOutOfRange, match="3 tasks .* only 2"):
            run_stream(stream, cfg)


class TestEpochs:
    def test_multiple_epochs_see_more_steps(self):
        stream = small_stream(n=100)
        cfg = LearnerConfig("mtrbp", TaskGraph.complete(3), budget=15,
                            kernel=SPEC)
        m = run_stream(stream, cfg, epochs=3)
        assert m.steps == 300


class TestBaseline:
    def test_matches_battery_mistakes(self):
        stream = small_stream(seed=3)
        base = baseline_active_size(stream, SPEC)
        cfg = LearnerConfig("perceptron_battery", TaskGraph.edgeless(3),
                            kernel=SPEC)
        m = run_stream(stream, cfg)
        assert base == m.mistakes == m.final_active


class TestResolveBudget:
    def test_absolute_integer_passthrough(self):
        stream = small_stream(n=50)
        assert resolve_budget("37", stream, SPEC) == 37
        assert resolve_budget(37, stream, SPEC) == 37

    def test_percentage_of_baseline(self):
        stream = small_stream(seed=4)
        base = baseline_active_size(stream, SPEC)
        assert resolve_budget("25%", stream, SPEC) == int(np.ceil(0.25 * base))
        assert resolve_budget("100%", stream, SPEC) == base

    def test_minimum_is_one(self):
        stream = small_stream(n=30, noise=0.0)
        assert resolve_budget("1%", stream, SPEC) >= 1

    def test_rejects_garbage(self):
        stream = small_stream(n=30)
        with pytest.raises(ValueError):
            resolve_budget("fast", stream, SPEC)
