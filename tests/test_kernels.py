import re

import numpy as np
import pytest

from mtbudget.data import DatasetStream
from mtbudget.errors import NumericalFailure, ZeroNormInstance
from mtbudget.graph import TaskGraph, build_interaction_model
from mtbudget.kernels import (KernelSpec, MultitaskInstance, Query, SparseVector,
                              dense_kernel_vector, make_queries)
from support import base_kernel, dense_of, inverse_of, mt_kernel, queries_of, sparse_dot


def sv(*pairs):
    return SparseVector.from_pairs(list(pairs))


def rand_instance(rng, d=6, k=3):
    return MultitaskInstance(SparseVector.from_dense(rng.normal(size=d)),
                             int(rng.integers(1, k + 1)))


class TestSparseVector:
    def test_sorted_invariant(self):
        with pytest.raises(ValueError):
            SparseVector(np.array([3, 1]), np.array([1.0, 2.0]))

    def test_dot_matches_dense(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = rng.normal(size=8) * (rng.random(8) < 0.6)
            b = rng.normal(size=8) * (rng.random(8) < 0.6)
            assert sparse_dot(SparseVector.from_dense(a), SparseVector.from_dense(b)) \
                == pytest.approx(float(a @ b), abs=1e-12)

    def test_empty(self):
        assert sparse_dot(sv(), sv((1, 2.0))) == 0.0
        assert sparse_dot(sv(), sv()) == 0.0


class TestKernelSpecParse:
    @pytest.mark.parametrize("text", ["linear", "linear:norm", "poly:2:1",
                                      "poly:3:0.5:norm", "gauss:0.5", "gauss:2:norm"])
    def test_round_trip(self, text):
        spec = KernelSpec.parse(text)
        assert KernelSpec.parse(spec.to_string()) == spec

    def test_bad_specs(self):
        for text in ["", "poly:2", "gauss", "rbf:1", "poly:0:1"]:
            with pytest.raises(ValueError):
                KernelSpec.parse(text)

    @pytest.mark.parametrize("text, number", [("poly:2.5:1:norm", "'2.5'"),
                                              ("poly:2:one", "'one'"),
                                              ("gauss:x", "'x'")])
    def test_malformed_number_names_the_spec(self, text, number):
        with pytest.raises(ValueError, match="^cannot parse kernel spec '%s': .*%s$"
                           % (re.escape(text), re.escape(number))):
            KernelSpec.parse(text)

    @pytest.mark.parametrize("text", ["gauss:nan", "gauss:inf", "gauss:nan:norm",
                                      "poly:2:nan:norm", "poly:2:inf"])
    def test_non_finite_parameter_rejected(self, text):
        # a NaN gamma or offset turns every score into NaN, and an infinite
        # gamma every kernel column into 0
        with pytest.raises(ValueError, match="must be finite"):
            KernelSpec.parse(text)


class TestBaseKernel:
    def test_gaussian_unit_diagonal(self):
        rng = np.random.default_rng(1)
        spec = KernelSpec("gaussian", gamma=0.7)
        a = SparseVector.from_dense(rng.normal(size=5))
        assert base_kernel(a, a, spec) == pytest.approx(1.0)

    def test_normalized_linear_diagonal(self):
        spec = KernelSpec("linear", normalize=True)
        a = sv((1, 3.0), (4, -2.0))
        assert base_kernel(a, a, spec) == pytest.approx(1.0)

    def test_normalized_poly_hand_value(self):
        spec = KernelSpec("polynomial", degree=2, offset=1.0, normalize=True)
        a, b = sv((1, 1.0)), sv((2, 1.0))
        # (0+1)^2 / sqrt(2^2 * 2^2)
        assert base_kernel(a, b, spec) == pytest.approx(0.25)

    def test_zero_norm_raises(self):
        spec = KernelSpec("linear", normalize=True)
        with pytest.raises(ZeroNormInstance):
            base_kernel(sv(), sv((1, 1.0)), spec)

    def test_gaussian_value(self):
        spec = KernelSpec("gaussian", gamma=2.0)
        a, b = sv((1, 1.0)), sv((1, 0.0), (2, 1.0))
        # squared distance 2 (explicit zero is fine)
        assert base_kernel(a, b, spec) == pytest.approx(np.exp(-4.0))


class TestMtKernel:
    """The oracles' multitask kernel on an M inverted from I + L, and
    build_interaction_model's c_G against it."""

    def setup_method(self):
        self.graph = TaskGraph.complete(3)
        self.M = inverse_of(self.graph)
        self.spec = KernelSpec("linear", normalize=True)

    def test_same_instance_edgeless(self):
        M = inverse_of(TaskGraph.edgeless(2))
        a = MultitaskInstance(sv((1, 2.0)), 1)
        assert mt_kernel(a, a, M, self.spec) == pytest.approx(1.0)

    def test_cross_task_complete(self):
        x = sv((1, 1.0), (2, 1.0))
        a = MultitaskInstance(x, 1)
        b = MultitaskInstance(x, 2)
        assert mt_kernel(a, b, self.M, self.spec) == pytest.approx(0.25)

    def test_unrelated_tasks_zero(self):
        M = inverse_of(TaskGraph.from_edges(4, [(1, 2), (3, 4)]))
        x = sv((1, 1.0))
        a = MultitaskInstance(x, 1)
        b = MultitaskInstance(x, 3)
        assert mt_kernel(a, b, M, self.spec) == pytest.approx(0.0, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            a, b = rand_instance(rng), rand_instance(rng)
            assert mt_kernel(a, b, self.M, self.spec) == pytest.approx(
                mt_kernel(b, a, self.M, self.spec), abs=1e-12)

    def test_gram_psd(self):
        rng = np.random.default_rng(4)
        insts = [rand_instance(rng) for _ in range(20)]
        G = np.array([[mt_kernel(a, b, self.M, self.spec) for b in insts]
                      for a in insts])
        assert np.min(np.linalg.eigvalsh(G)) >= -1e-9

    def test_self_kernel_below_cg(self):
        rng = np.random.default_rng(6)
        cG = build_interaction_model(self.graph).cG
        for _ in range(30):
            a = rand_instance(rng)
            assert np.sqrt(mt_kernel(a, a, self.M, self.spec)) <= cG + 1e-12

    def test_single_task_reduction(self):
        M = inverse_of(TaskGraph.edgeless(1))
        rng = np.random.default_rng(8)
        for _ in range(20):
            a, b = rand_instance(rng, k=1), rand_instance(rng, k=1)
            assert mt_kernel(a, b, M, self.spec) == pytest.approx(
                base_kernel(a.x, b.x, self.spec), abs=1e-12)


class TestExampleTypes:
    def test_task_validation(self):
        with pytest.raises(ValueError):
            MultitaskInstance(sv((1, 1.0)), 0)


class TestDenseFastPaths:
    @pytest.mark.parametrize("text", ["linear:norm", "poly:2:1:norm", "poly:2:0:norm",
                                      "poly:3:1:norm", "gauss:0.7"])
    def test_vector_matches_base_kernel(self, text):
        """Folded queries against folded stored vectors: a dense query reads
        every stored row, a sparse one the rows at its nonzeros."""
        spec = KernelSpec.parse(text)
        for d in (5, 400):      # dense queries, then sparse ones
            rng = np.random.default_rng(10)
            pool = rng.choice(d, 5, replace=False) + 1
            rows = [SparseVector(np.sort(rng.choice(pool, 4, replace=False)),
                                 rng.normal(size=4)) for _ in range(7)]
            queries = queries_of([MultitaskInstance(x, 1) for x in rows], d, spec)
            assert all((q.idx is None) == (d == 5) for q in queries)
            *stored, q = queries
            X = np.array([dense_of(s, d, spec).x for s in stored]).T
            got = dense_kernel_vector(X if q.idx is None else X[q.idx],
                                      np.array([s.sq for s in stored]), q.x, q.sq, spec)
            for i, r in enumerate(rows[:-1]):
                assert got[i] == pytest.approx(base_kernel(r, rows[-1], spec), abs=1e-12)


class TestQueryConstruction:
    @pytest.mark.parametrize("text", ["linear:norm", "poly:2:1:norm", "gauss:0.7"])
    @pytest.mark.parametrize("d", [5, 400])     # dense queries, then sparse ones
    def test_queries_are_whole_query_tuples(self, text, d):
        """`make_queries` builds its Querys without the class constructor,
        which checks the field count; each must still be the tuple that
        constructor builds."""
        rng = np.random.default_rng(4)
        rows = [MultitaskInstance(SparseVector(np.sort(rng.choice(d, 3, replace=False)) + 1,
                                               rng.normal(size=3)), t)
                for t in (1, 2, 2, 3)]
        queries = make_queries(DatasetStream(rows, np.ones(4), 3, d),
                               KernelSpec.parse(text)).queries
        assert len(queries) == 4
        for q, inst in zip(queries, rows):
            assert type(q) is Query and len(q) == len(Query._fields) == 4
            assert q == Query(q.idx, q.x, q.sq, q.task) == Query(*q)
            assert (q.idx is None) == (d == 5) and q.task == inst.task - 1
            assert isinstance(q.sq, float) and type(q.task) is int

    @pytest.mark.parametrize("d", [8, 2000])    # dense queries, then sparse ones
    def test_query_task_is_the_prepared_zero_based_task(self, d):
        """The stream's one-based task ids become indices in `make_queries`
        alone: each Query holds the task its row has in `Prepared.tasks`."""
        rng = np.random.default_rng(7)
        rows = [MultitaskInstance(SparseVector(np.sort(rng.choice(d, 4, replace=False)) + 1,
                                               rng.normal(size=4)), int(t))
                for t in rng.integers(1, 6, size=40)]
        stream = DatasetStream(rows, np.ones(len(rows)), 5, d)
        prepared = make_queries(stream, KernelSpec.parse("linear:norm"))
        assert (prepared.X is None) == (d == 2000)
        assert np.array_equal(prepared.tasks, stream.tasks - 1)
        assert all(q.task == prepared.tasks[r] for r, q in enumerate(prepared.queries))
        assert {q.task for q in prepared.queries} == set(range(5))


class TestSelfKernelRange:
    @pytest.mark.parametrize("text, d", [("poly:2000:1:norm", 10),   # overflows
                                         ("poly:600:1:norm", 10),    # its square does
                                         ("linear:norm", 300)])      # sparse form
    def test_non_finite_square_names_example(self, text, d):
        # unit rows: (1 + 1)^2000 ended in an OverflowError traceback;
        # (1 + 1)^600 is finite, but sqrt(self * self) of the normalization
        # overflowed and every kernel value came out 0
        rng = np.random.default_rng(0)
        rows = [MultitaskInstance(SparseVector.from_dense(r / np.linalg.norm(r)), 2)
                for r in rng.normal(size=(3, 10))]
        if text == "linear:norm":
            rows[1] = MultitaskInstance(sv((4, 1e100)), 2)
        stream = DatasetStream(rows, np.ones(3), 2, d)
        name = r"example %d \(task 2\): kernel %s" % (2 if text == "linear:norm" else 1,
                                                      text)
        with pytest.raises(NumericalFailure, match=name):
            make_queries(stream, KernelSpec.parse(text))

    def test_large_finite_degree_still_runs(self):
        stream = DatasetStream([MultitaskInstance(sv((1, 1.0), (2, 1.0)), 1)],
                               np.ones(1), 1, 2)
        spec = KernelSpec.parse("poly:300:1:norm")
        (q,) = make_queries(stream, spec).queries
        # (3 ** 300) ** 2 is finite: the query folds to (1, 1, 1) / sqrt(3)
        assert np.allclose(q.x, np.full(3, 3.0 ** -0.5), rtol=0, atol=1e-15)
        self_kernel = dense_kernel_vector(q.x[:, None], np.ones(1), q.x, q.sq, spec)
        assert self_kernel[0] == pytest.approx(1.0, abs=1e-12)
