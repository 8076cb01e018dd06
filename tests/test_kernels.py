import numpy as np
import pytest

from mtbudget.errors import ZeroNormInstance
from mtbudget.graph import TaskGraph, build_interaction_model
from mtbudget.kernels import (KernelSpec, MultitaskInstance, SparseVector,
                              base_kernel, dense_gram, dense_kernel_vector,
                              dense_self_raw, mt_kernel)


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
            assert SparseVector.from_dense(a).dot(SparseVector.from_dense(b)) \
                == pytest.approx(float(a @ b), abs=1e-12)

    def test_empty(self):
        assert sv().dot(sv((1, 2.0))) == 0.0
        assert sv().sq_norm() == 0.0


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
    def setup_method(self):
        self.model = build_interaction_model(TaskGraph.complete(3))
        self.spec = KernelSpec("linear", normalize=True)

    def test_same_instance_edgeless(self):
        model = build_interaction_model(TaskGraph.edgeless(2))
        a = MultitaskInstance(sv((1, 2.0)), 1)
        assert mt_kernel(a, a, model, self.spec) == pytest.approx(1.0)

    def test_cross_task_complete(self):
        x = sv((1, 1.0), (2, 1.0))
        a = MultitaskInstance(x, 1)
        b = MultitaskInstance(x, 2)
        assert mt_kernel(a, b, self.model, self.spec) == pytest.approx(0.25)

    def test_unrelated_tasks_zero(self):
        model = build_interaction_model(TaskGraph.from_edges(4, [(1, 2), (3, 4)]))
        x = sv((1, 1.0))
        a = MultitaskInstance(x, 1)
        b = MultitaskInstance(x, 3)
        assert mt_kernel(a, b, model, self.spec) == pytest.approx(0.0, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            a, b = rand_instance(rng), rand_instance(rng)
            assert mt_kernel(a, b, self.model, self.spec) == pytest.approx(
                mt_kernel(b, a, self.model, self.spec), abs=1e-12)

    def test_gram_psd(self):
        rng = np.random.default_rng(4)
        insts = [rand_instance(rng) for _ in range(20)]
        G = np.array([[mt_kernel(a, b, self.model, self.spec) for b in insts]
                      for a in insts])
        assert np.min(np.linalg.eigvalsh(G)) >= -1e-9

    def test_self_kernel_below_cg(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            a = rand_instance(rng)
            assert np.sqrt(mt_kernel(a, a, self.model, self.spec)) \
                <= self.model.cG + 1e-12

    def test_single_task_reduction(self):
        model = build_interaction_model(TaskGraph.edgeless(1))
        rng = np.random.default_rng(8)
        for _ in range(20):
            a, b = rand_instance(rng, k=1), rand_instance(rng, k=1)
            assert mt_kernel(a, b, model, self.spec) == pytest.approx(
                base_kernel(a.x, b.x, self.spec), abs=1e-12)


class TestExampleTypes:
    def test_task_validation(self):
        with pytest.raises(ValueError):
            MultitaskInstance(sv((1, 1.0)), 0)


class TestDenseFastPaths:
    @pytest.mark.parametrize("text", ["linear:norm", "poly:2:1:norm", "gauss:0.7"])
    def test_vector_matches_base_kernel(self, text):
        spec = KernelSpec.parse(text)
        rng = np.random.default_rng(10)
        rows = rng.normal(size=(6, 5))
        q = rng.normal(size=5)
        self_raw = np.array([dense_self_raw(r, spec) for r in rows])
        sq = np.array([float(r @ r) for r in rows])
        got = dense_kernel_vector(rows.T, self_raw, sq, q, dense_self_raw(q, spec),
                                  float(q @ q), spec)
        for i, r in enumerate(rows):
            expect = base_kernel(SparseVector.from_dense(r),
                                 SparseVector.from_dense(q), spec)
            assert got[i] == pytest.approx(expect, abs=1e-12)

    @pytest.mark.parametrize("text", ["linear:norm", "poly:2:1:norm", "gauss:0.7"])
    def test_gram_matches_base_kernel(self, text):
        spec = KernelSpec.parse(text)
        rng = np.random.default_rng(12)
        rows = rng.normal(size=(5, 4))
        self_raw = np.array([dense_self_raw(r, spec) for r in rows])
        sq = np.array([float(r @ r) for r in rows])
        G = dense_gram(rows.T, self_raw, sq, spec)
        for i in range(5):
            for j in range(5):
                expect = base_kernel(SparseVector.from_dense(rows[i]),
                                     SparseVector.from_dense(rows[j]), spec)
                assert G[i, j] == pytest.approx(expect, abs=1e-12)
