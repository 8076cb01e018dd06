import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mtbudget.active_set import RIDGE, ActiveSet
from mtbudget.errors import BudgetFull
from mtbudget.graph import TaskGraph, build_interaction_model
from mtbudget.kernels import (KernelSpec, MultitaskInstance, SparseVector,
                              base_kernel, make_queries, mt_kernel)

SPEC = KernelSpec("linear", normalize=True)
MODEL = build_interaction_model(TaskGraph.complete(3))


def rand_instance(rng, d=6, k=3):
    return MultitaskInstance(SparseVector.from_dense(rng.normal(size=d)),
                             int(rng.integers(1, k + 1)))


def make_set(budget=10, dim=6, mode="multitask", spec=SPEC, model=MODEL):
    return ActiveSet(budget, dim, spec, model, kernel_mode=mode)


def dense_gram_oracle(s):
    n = len(s)
    if s.kernel_mode == "multitask":
        return np.array([[mt_kernel(s.instance(i), s.instance(j), s.model, s.spec)
                          for j in range(n)] for i in range(n)])
    return np.array([[base_kernel(s.instance(i).x, s.instance(j).x, s.spec)
                      for j in range(n)] for i in range(n)])


class TestPredict:
    def test_empty(self):
        s = make_set()
        assert s.predict(MultitaskInstance(SparseVector.from_pairs([(1, 1.0)]), 1)) == 0.0

    def test_single_entry_edgeless(self):
        model = build_interaction_model(TaskGraph.edgeless(2))
        s = make_set(model=model)
        q = MultitaskInstance(SparseVector.from_pairs([(1, 2.0)]), 1)
        s.insert(q, 1.0)
        assert s.predict(q) == pytest.approx(1.0)

    def test_cross_task_complete(self):
        s = make_set()
        x = SparseVector.from_pairs([(1, 1.0), (2, 1.0)])
        s.insert(MultitaskInstance(x, 1), 1.0)
        assert s.predict(MultitaskInstance(x, 2)) == pytest.approx(0.25)

    def test_per_task_mode(self):
        s = make_set(mode="single")
        x = SparseVector.from_pairs([(1, 1.0)])
        s.insert(MultitaskInstance(x, 1), np.array([0.5, 0.25, 0.25]))
        assert s.predict(MultitaskInstance(x, 2)) == pytest.approx(0.25)


class TestProjection:
    def test_duplicate_entry(self):
        s = make_set()
        rng = np.random.default_rng(0)
        q = rand_instance(rng)
        s.insert(q, 1.0)
        alphas, resid = s.projection(q)
        assert alphas == pytest.approx([1.0], abs=1e-6)
        assert resid == pytest.approx(0.0, abs=1e-6)

    def test_empty_residual_is_self_kernel_sqrt(self):
        model = build_interaction_model(TaskGraph.edgeless(2))
        s = make_set(model=model)
        rng = np.random.default_rng(1)
        _, resid = s.projection(rand_instance(rng, k=2))
        assert resid == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_entries(self):
        s = make_set()
        a = MultitaskInstance(SparseVector.from_pairs([(1, 1.0)]), 1)
        b = MultitaskInstance(SparseVector.from_pairs([(2, 1.0)]), 1)
        s.insert(a, 1.0)
        s.insert(b, 1.0)
        alphas, resid = s.projection(b)
        assert alphas == pytest.approx([0.0, 1.0], abs=1e-9)
        assert resid == pytest.approx(0.0, abs=1e-6)

    def test_matches_least_squares_oracle(self):
        rng = np.random.default_rng(2)
        s = make_set()
        for _ in range(8):
            s.insert(rand_instance(rng), rng.normal())
        G = dense_gram_oracle(s)
        for _ in range(10):
            q = rand_instance(rng)
            col = np.array([mt_kernel(s.instance(i), q, s.model, s.spec)
                            for i in range(len(s))])
            alphas, resid = s.projection(q)
            al2, *_ = np.linalg.lstsq(G, col, rcond=None)
            kqq = mt_kernel(q, q, s.model, s.spec)
            resid2 = np.sqrt(max(kqq - col @ al2, 0.0))
            assert alphas == pytest.approx(al2, abs=1e-6)
            assert resid == pytest.approx(resid2, abs=1e-6)

    def test_residual_monotone_in_entries(self):
        rng = np.random.default_rng(3)
        s = make_set(budget=12)
        probes = [rand_instance(rng) for _ in range(5)]
        prev = [s.projection(p)[1] for p in probes]
        for _ in range(8):
            s.insert(rand_instance(rng), 1.0)
            cur = [s.projection(p)[1] for p in probes]
            for a, b in zip(cur, prev):
                assert a <= b + 1e-9
            prev = cur


class TestInsert:
    def test_first_insert(self):
        s = make_set()
        rng = np.random.default_rng(4)
        q = rand_instance(rng)
        s.insert(q, 1.0)
        kqq = mt_kernel(q, q, s.model, s.spec)
        assert s.gram[0, 0] == pytest.approx(kqq)
        assert s.gram_inv[0, 0] == pytest.approx(1.0 / kqq)

    def test_budget_full_raises(self):
        s = make_set(budget=2)
        rng = np.random.default_rng(5)
        s.insert(rand_instance(rng), 1.0)
        s.insert(rand_instance(rng), 1.0)
        with pytest.raises(BudgetFull):
            s.insert(rand_instance(rng), 1.0)
        s.insert(rand_instance(rng), 1.0, force=True)  # provisional slot
        assert len(s) == 3

    def test_near_duplicate_triggers_ridge(self):
        s = make_set()
        rng = np.random.default_rng(6)
        q = rand_instance(rng)
        s.insert(q, 1.0)
        s.insert(q, -1.0)
        assert s.regularized
        assert np.max(np.abs(s.gram @ s.gram_inv - np.eye(2))) <= 1e-6

    def test_orthogonal_block(self):
        s = make_set()
        a = MultitaskInstance(SparseVector.from_pairs([(1, 1.0)]), 1)
        b = MultitaskInstance(SparseVector.from_pairs([(2, 1.0)]), 1)
        s.insert(a, 1.0)
        s.insert(b, 1.0)
        M11 = MODEL.inverse[0, 0]
        assert s.gram_inv == pytest.approx(np.eye(2) / M11, abs=1e-9)

    def test_reuses_projection_only_for_same_query_and_task(self):
        rng = np.random.default_rng(14)
        s = make_set(budget=4)
        for _ in range(3):
            s.insert(rand_instance(rng), 1.0)
        q = rand_instance(rng)
        query = make_queries([q], 6, SPEC)[0]
        s.projection(q, query)
        s.evict(1)      # the projection's terms no longer describe the set
        s.insert(q, 1.0, query=query)
        s.projection(q, query)
        s.insert(MultitaskInstance(q.x, q.task % 3 + 1), 1.0, query=query)
        G = dense_gram_oracle(s)
        assert np.max(np.abs(s.gram - G)) <= 1e-12
        assert np.max(np.abs(s.gram_inv - np.linalg.inv(G))) <= 1e-9


class TestLeaveOneOut:
    def test_duplicates_have_zero_residual(self):
        s = make_set()
        rng = np.random.default_rng(7)
        q = rand_instance(rng)
        s.insert(q, 1.0)
        s.insert(q, 1.0)
        assert np.all(s.leave_one_out_residuals() <= 1e-4)

    def test_orthogonal_unit_entries(self):
        model = build_interaction_model(TaskGraph.edgeless(2))
        s = make_set(model=model)
        s.insert(MultitaskInstance(SparseVector.from_pairs([(1, 1.0)]), 1), 1.0)
        s.insert(MultitaskInstance(SparseVector.from_pairs([(2, 1.0)]), 1), 1.0)
        assert s.leave_one_out_residuals() == pytest.approx([1.0, 1.0], abs=1e-9)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(8)
        s = make_set()
        for _ in range(5):
            s.insert(rand_instance(rng), rng.normal())
        G = dense_gram_oracle(s)
        loo = s.leave_one_out_residuals()
        for j in range(5):
            idx = [i for i in range(5) if i != j]
            sub = G[np.ix_(idx, idx)]
            col = G[idx, j]
            resid = np.sqrt(max(G[j, j] - col @ np.linalg.solve(sub, col), 0.0))
            assert loo[j] == pytest.approx(resid, abs=1e-6)


class TestEvict:
    def test_single_entry(self):
        s = make_set()
        rng = np.random.default_rng(9)
        s.insert(rand_instance(rng), 1.0)
        gammas = s.evict(0)
        assert len(s) == 0 and gammas.size == 0

    def test_duplicate_back_projection(self):
        s = make_set()
        rng = np.random.default_rng(10)
        q = rand_instance(rng)
        s.insert(q, 1.0)
        s.insert(q, 1.0)
        gammas = s.evict(0)
        assert gammas == pytest.approx([1.0], abs=1e-4)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        s = make_set()
        for _ in range(6):
            s.insert(rand_instance(rng), rng.normal())
        G = dense_gram_oracle(s)
        r = 2
        gammas = s.evict(r)
        idx = [i for i in range(6) if i != r]
        sub = G[np.ix_(idx, idx)]
        assert np.max(np.abs(s.gram_inv - np.linalg.inv(sub))) <= 1e-6
        assert gammas == pytest.approx(np.linalg.solve(sub, G[idx, r]), abs=1e-6)


class TestRandomizedMaintenance:
    def test_insert_evict_interleaving(self):
        rng = np.random.default_rng(12)
        s = make_set(budget=20, dim=16)
        for _ in range(500):
            if len(s) == 0 or (len(s) < 20 and rng.random() < 0.6):
                s.insert(rand_instance(rng, d=16), rng.normal())
            else:
                s.evict(int(rng.integers(len(s))))
            if len(s):
                n = len(s)
                assert np.max(np.abs(s.gram @ s.gram_inv - np.eye(n))) <= 1e-6
            assert len(s) <= 20

        G = dense_gram_oracle(s)
        assert np.max(np.abs(G - s.gram)) <= 1e-9


# -- the deferred border of a full-budget insert ----------------------------

BORDER_TOL = 1e-9
BORDER_SPECS = {"linear": SPEC,
                "poly": KernelSpec("polynomial", degree=2, offset=1.0, normalize=True),
                "gauss": KernelSpec("gaussian", gamma=0.1)}
BORDER_OPS = st.lists(
    st.tuples(st.sampled_from(["over", "insert", "evict", "project", "gram_inv",
                               "loo", "duplicate"]),
              st.sampled_from([None, "project", "gram_inv"]),
              st.integers(0, 2 ** 32 - 1)),
    min_size=3, max_size=25)


def brute_loo(G):
    """Distance of each entry to the span of the others, from the Gram."""
    n = len(G)
    out = []
    for j in range(n):
        idx = [i for i in range(n) if i != j]
        col = G[idx, j]
        out.append(np.sqrt(max(G[j, j] - col @ np.linalg.solve(G[np.ix_(idx, idx)], col),
                               0.0)))
    return np.array(out)


def check_loo(s):
    got = s.leave_one_out_residuals()
    assert np.max(np.abs(got - brute_loo(dense_gram_oracle(s)))) <= BORDER_TOL


def check_inverse(s):
    G = dense_gram_oracle(s)
    assert np.max(np.abs(s.gram_inv - np.linalg.inv(G))) <= BORDER_TOL
    assert np.max(np.abs(s.gram @ s.gram_inv - np.eye(len(s)))) <= BORDER_TOL


def check_projection(s, q):
    alphas, resid = s.projection(q)
    G = dense_gram_oracle(s)
    if s.kernel_mode == "multitask":
        col = np.array([mt_kernel(s.instance(j), q, s.model, s.spec)
                        for j in range(len(s))])
        kqq = mt_kernel(q, q, s.model, s.spec)
    else:
        col = np.array([base_kernel(s.instance(j).x, q.x, s.spec)
                        for j in range(len(s))])
        kqq = base_kernel(q.x, q.x, s.spec)
    want = np.linalg.solve(G, col)
    assert np.max(np.abs(alphas - want)) <= BORDER_TOL
    assert abs(resid ** 2 - max(kqq - col @ want, 0.0)) <= BORDER_TOL


def evict_and_check(s, r):
    G = dense_gram_oracle(s)
    idx = [i for i in range(len(s)) if i != r]
    gammas = s.evict(r)
    assert np.max(np.abs(gammas - np.linalg.solve(G[np.ix_(idx, idx)], G[idx, r]))) \
        <= BORDER_TOL


class TestDeferredBorder:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=BORDER_OPS, budget=st.integers(2, 8),
           mode=st.sampled_from(["multitask", "single"]),
           kernel=st.sampled_from(sorted(BORDER_SPECS)))
    def test_full_budget_sequences_match_brute_force(self, ops, budget, mode, kernel):
        """Over-budget inserts leave H^-1's border pending until the
        eviction; the LOO residuals read it, and projections, gram_inv and
        in-budget inserts fold it in first. Every figure must match a
        brute-force inverse of the oracle Gram."""
        s = make_set(budget=budget, dim=16, mode=mode, spec=BORDER_SPECS[kernel])

        def weight(rng):
            return rng.normal(size=3) if mode == "single" else rng.normal()

        def fill(rng):
            while len(s) < budget:      # each insert folds in the last border
                s.insert(rand_instance(rng, d=16), weight(rng))

        for step, (op, reader, seed) in enumerate(ops):
            rng = np.random.default_rng((seed, step))   # no repeats across steps
            if op in ("over", "duplicate"):
                fill(rng)
                if op == "duplicate":
                    # an exact copy sits on the Schur floor: the inverse is
                    # rebuilt with a ridge, so the run ends after checking it
                    twin = int(rng.integers(budget))
                    s.insert(s.instance(twin), weight(rng), force=True)
                    assert s.regularized
                    assert np.max(np.abs(s.gram - dense_gram_oracle(s)
                                         - RIDGE * np.eye(budget + 1))) <= BORDER_TOL
                    assert s.leave_one_out_residuals()[[twin, budget]].max() <= 1e-4
                    evict_and_check(s, twin)
                    return
                s.insert(rand_instance(rng, d=16), weight(rng), force=True)
                check_loo(s)
                if reader == "project":
                    check_projection(s, rand_instance(rng, d=16))
                elif reader == "gram_inv":
                    check_inverse(s)
                evict_and_check(s, int(rng.integers(budget + 1)))
                check_loo(s)
            elif op == "insert" and len(s) < budget:
                s.insert(rand_instance(rng, d=16), weight(rng))
                check_loo(s)
            elif op == "evict" and len(s) > 1:
                evict_and_check(s, int(rng.integers(len(s))))
            elif op == "project" and len(s):
                check_projection(s, rand_instance(rng, d=16))
            elif op == "gram_inv" and len(s):
                check_inverse(s)
            elif op == "loo" and len(s):
                check_loo(s)
            assert len(s) <= budget
