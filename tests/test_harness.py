import gc
import json
import weakref

import numpy as np
import pytest

from mtbudget import cli, data, kernels
from mtbudget.data import (DatasetStream, binarize_by_percentile, generate_synthetic,
                           parse_dataset, rescale_features)
from mtbudget.errors import EmptyStream, TaskOutOfRange
from mtbudget.graph import TaskGraph
from mtbudget.harness import (StreamMetrics, baseline_active_size,
                              resolve_budget, run_stream)
from mtbudget.kernels import KernelSpec
from mtbudget.learners import ALGORITHMS, LearnerConfig, make_learner
from support import labelled, queries_in

SPEC = KernelSpec("linear", normalize=True)


def small_stream(n=300, k=3, d=8, seed=0, noise=0.2):
    stream, _ = generate_synthetic(k, d, n, 0.7, noise, seed=seed)
    return stream


class TestFMeasure:
    def test_formula_cases(self):
        m = StreamMetrics(per_task=np.array([[3, 1, 2, 10]]))
        assert m.f_measure == pytest.approx(6.0 / 9.0)
        assert StreamMetrics(per_task=np.array([[0, 0, 0, 5]])).f_measure == 0.0
        assert StreamMetrics(per_task=np.array([[5, 0, 0, 0]])).f_measure == 1.0
        # the micro counts sum the tasks' rows
        m = StreamMetrics(per_task=np.array([[3, 1, 2, 10], [1, 0, 4, 2]]))
        assert m.counts == (4, 1, 6, 12) and m.steps == 23
        assert m.f_measure == pytest.approx(8.0 / 15.0)

    def test_counts_sum_to_steps(self):
        stream = small_stream()
        cfg = LearnerConfig("mtrbp", TaskGraph.complete(3), budget=20,
                            kernel=SPEC)
        m = run_stream(stream, cfg)
        assert m.steps == len(stream)
        # a zero-score step with a positive label updates but classifies
        # correctly, so mistakes can exceed fp + fn
        _, fp, fn, _ = m.counts
        assert m.mistakes >= fp + fn
        assert m.per_task.sum() == len(stream)
        assert m.per_task.shape == (3, 4)


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
        assert m.counts == (tp, fp, fn, tn)

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


def sparse_stream(n, k=3, d=100, nnz=4, seed=0):
    """Rows with 4 of 100 features set, below kernels.SPARSE_DENSITY, so
    that their queries stay sparse; labels from a random hyperplane."""
    rng = np.random.default_rng(seed)
    ids = np.concatenate([np.sort(rng.choice(d, nnz, replace=False)) + 1 for _ in range(n)])
    values = rng.normal(size=n * nnz)
    scores = (values * rng.normal(size=d)[ids - 1]).reshape(n, nnz).sum(axis=1)
    return DatasetStream((np.arange(n + 1) * nnz, ids, values, np.arange(n) % k + 1),
                         np.where(scores >= 0, 1.0, -1.0), k, d)


@pytest.mark.filterwarnings("ignore:mtforg mistake bound")
@pytest.mark.parametrize("n", [57, 250, 1000])
@pytest.mark.parametrize("epochs", [1, 3])
@pytest.mark.parametrize("algo, sparse", [pytest.param(algo, sparse, id=algo + "-sparse" * sparse)
                                          for sparse in (False, True) for algo in ALGORITHMS])
def test_tallies_match_a_naive_recount(algo, sparse, epochs, n):
    """`run_stream` tallies after its loop; a naive loop that counts as it
    steps a fresh learner must give the same outputs, |S| at each mark
    included, on dense queries (windows) and on sparse ones (`_step_rows`).
    n = 57 marks every step, and 250 at 3 epochs leaves a tail mark at the
    last step (750 is not a multiple of 7)."""
    stream = sparse_stream(n, seed=n) if sparse else small_stream(n=n, seed=n)
    graph = TaskGraph.edgeless(3) if algo == "perceptron_battery" else TaskGraph.complete(3)
    cfg = LearnerConfig(algo, graph, budget=12, eta=0.1, kernel=SPEC)
    learner = make_learner(cfg, stream.d)
    prepared = kernels.make_queries(stream, SPEC)
    assert (prepared.X is None) == sparse
    examples = list(zip(queries_in(prepared), stream.labels))
    total = n * epochs
    every = max(1, total // 100)
    per_task = [[0, 0, 0, 0] for _ in range(3)]
    trajectory = []
    step = inserts = 0
    for _ in range(epochs):
        for query, y in examples:
            out = learner.step(query, int(y))
            step += 1
            inserts += out.action == "insert"
            if out.prediction == 1:
                cell = 0 if y == 1 else 1
            else:
                cell = 2 if y == 1 else 3
            per_task[query.task][cell] += 1
            if step % every == 0 or step == total:
                tp = sum(row[0] for row in per_task)
                fp = sum(row[1] for row in per_task)
                fn = sum(row[2] for row in per_task)
                f = 2.0 * tp / (2 * tp + fp + fn) if tp + fp + fn else 0.0
                # the battery never evicts, so its |S| counts its inserts
                size = inserts if algo == "perceptron_battery" else len(learner.active_set)
                trajectory.append((step, f, size))
    m = run_stream(stream, cfg, epochs=epochs)
    assert m.per_task.tolist() == per_task
    assert m.mistakes == learner.mistakes
    assert m.final_active == trajectory[-1][2]
    assert m.trajectory == trajectory
    assert trajectory[-1][0] == total and len(trajectory) == -(-total // every)


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
    @pytest.mark.parametrize("epochs", [0, -1])
    def test_no_epoch_rejected(self, epochs):
        cfg = LearnerConfig("mtrbp", TaskGraph.complete(3), budget=15,
                            kernel=SPEC)
        with pytest.raises(ValueError, match="epochs must be >= 1"):
            run_stream(small_stream(n=20), cfg, epochs=epochs)

    def test_multiple_epochs_see_more_steps(self):
        stream = small_stream(n=100)
        cfg = LearnerConfig("mtrbp", TaskGraph.complete(3), budget=15,
                            kernel=SPEC)
        m = run_stream(stream, cfg, epochs=3)
        assert m.steps == 300


class TestEmptyStream:
    """A stream with no examples has no F-measure or trajectory to report."""

    EMPTY = DatasetStream((np.zeros(1), np.zeros(0), np.zeros(0), np.zeros(0)),
                          np.zeros(0), 2, 3)

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_run_stream_rejects_it(self, algo):
        cfg = LearnerConfig(algo, TaskGraph.complete(2), budget=100, kernel=SPEC)
        with pytest.raises(EmptyStream, match="empty stream"):
            run_stream(self.EMPTY, cfg, epochs=2)

    def test_baseline_and_percent_budget_reject_it(self):
        with pytest.raises(EmptyStream):
            baseline_active_size(self.EMPTY, SPEC)
        with pytest.raises(EmptyStream):
            resolve_budget("5%", self.EMPTY, SPEC)


class TestBaseline:
    def test_matches_battery_mistakes(self):
        stream = small_stream(seed=3)
        base = baseline_active_size(stream, SPEC)
        cfg = LearnerConfig("perceptron_battery", TaskGraph.edgeless(3),
                            kernel=SPEC)
        m = run_stream(stream, cfg)
        assert base == m.mistakes == m.final_active


@pytest.fixture
def builds(monkeypatch):
    """The kernel of every build of a stream's prepared input."""
    specs = []
    real = data.make_queries

    def counted(stream, spec):
        specs.append(spec)
        return real(stream, spec)

    monkeypatch.setattr(data, "make_queries", counted)
    return specs


class TestPreparedOnce:
    """A stream keeps one prepared input, and runs with its kernel reuse it."""

    def test_percent_budget_run_builds_once(self, builds, capsys):
        code = cli.main(["run", "--algo", "mtbprj", "--graph", "complete",
                         "--budget", "10%", "--synth", "k=3,d=20,n=300"])
        assert code == 0 and json.loads(capsys.readouterr().out)["budget_resolved"] > 0
        assert builds == [SPEC]

    def test_second_run_with_the_kernel_builds_nothing(self, builds):
        stream = small_stream()
        config = LearnerConfig("mtrbp", TaskGraph.complete(3), budget=12, kernel=SPEC)
        first = run_stream(stream, config)
        second = run_stream(stream, config)
        assert builds == [SPEC]
        assert first.trajectory == second.trajectory

    def test_another_kernel_rebuilds_and_replaces_it(self, builds):
        stream = small_stream(d=20)
        specs = [KernelSpec.parse(text) for text in
                 ("linear:norm", "poly:2:1:norm", "gauss:0.5", "linear:norm")]
        graph = TaskGraph.complete(3)
        old = None
        for spec in specs:
            config = LearnerConfig("mtbprj2", graph, budget=12, kernel=spec)
            got = run_stream(stream, config)
            want = run_stream(small_stream(d=20), config)
            assert (got.trajectory, got.mistakes) == (want.trajectory, want.mistakes)
            assert np.array_equal(got.per_task, want.per_task)
            # the stream holds the newer input only: the older one's rows are freed
            kept = [v for v in vars(stream).values() if isinstance(v, kernels.Prepared)]
            assert [p.spec for p in kept] == [spec]
            gc.collect()
            assert old is None or old() is None
            old = weakref.ref(kept[0].X)
            del kept
        assert builds == [spec for spec in specs for _ in range(2)]


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

    @pytest.mark.parametrize("spec", ["inf%", "nan%", "-inf%", "0%"])
    def test_rejects_fraction_that_is_not_finite_and_positive(self, spec):
        with pytest.raises(ValueError, match="budget fraction '%s'" % spec):
            resolve_budget(spec, small_stream(n=30), SPEC)


@pytest.mark.filterwarnings("ignore:mtforg mistake bound")
@pytest.mark.parametrize("d, nnz", [(80, 4), (8, 8)])     # sparse, dense queries
def test_no_row_objects_on_the_run_path(tmp_path, monkeypatch, d, nnz):
    """`mtbudget run`'s chain builds no SparseVector or MultitaskInstance."""
    rng = np.random.default_rng(1)
    path = tmp_path / "s.mtsvm"
    with open(path, "w") as fh:
        for row in range(240):
            ids = np.sort(rng.choice(d, nnz, replace=False)) + 1
            feats = " ".join("%d:%.17g" % (i, v)
                             for i, v in zip(ids, rng.lognormal(size=nnz)))
            fh.write("%d %.17g %s\n" % (row % 3 + 1, rng.standard_normal(), feats))
    built = []
    for cls in (kernels.SparseVector, kernels.MultitaskInstance):
        def counting(self, *args, real=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            real(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting)
    stream = binarize_by_percentile(rescale_features(parse_dataset(path)))
    budget = resolve_budget("50%", stream, SPEC)
    for algo in ALGORITHMS:
        run_stream(stream, LearnerConfig(algo, TaskGraph.complete(3), budget,
                                         kernel=SPEC))
    assert built == []
    assert (kernels.make_queries(stream, SPEC).query(0).idx is None) == (d == nnz)
    assert len(stream.instances) == 240 and len(built) == 480   # the counter counts
