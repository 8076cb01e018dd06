import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mtbudget.active_set import ActiveSet
from mtbudget.errors import BudgetFull, NumericalFailure
from mtbudget.graph import TaskGraph, build_interaction_model
from mtbudget.kernels import KernelSpec, MultitaskInstance, SparseVector
from support import (base_kernel, entry_queries, entry_query, entry_tasks, entry_weights,
                     gram_inv, in_entry_order, instance_of, inverse_of, mt_kernel,
                     query_of)

SPEC = KernelSpec("linear", normalize=True)
MODEL = build_interaction_model(TaskGraph.complete(3))
M = inverse_of(TaskGraph.complete(3))     # MODEL's M, for the oracles


def rand_query(rng, d=6, k=3, spec=SPEC):
    return query_of(MultitaskInstance(SparseVector.from_dense(rng.normal(size=d)),
                                      int(rng.integers(1, k + 1))), d, spec)


def pairs_query(pairs, task, dim=6):
    return query_of(MultitaskInstance(SparseVector.from_pairs(pairs), task), dim, SPEC)


def make_set(budget=10, dim=6, mode="multitask", spec=SPEC, model=MODEL):
    return ActiveSet(budget, dim, spec, model, kernel_mode=mode)


def oracle(s, a, b):
    """The configured kernel of two queries, by brute force; a multitask
    set must use MODEL."""
    a, b = instance_of(a, s.spec), instance_of(b, s.spec)
    if s.kernel_mode == "multitask":
        assert s.model is MODEL
        return mt_kernel(a, b, M, s.spec)
    return base_kernel(a.x, b.x, s.spec)


def dense_gram_oracle(s):
    entries = entry_queries(s)
    return np.array([[oracle(s, a, b) for b in entries] for a in entries])


def inverse_error(s, G=None):
    """max |G H^-1 - I| of the set's inverse against the oracle Gram G."""
    G = dense_gram_oracle(s) if G is None else G
    return np.max(np.abs(G @ gram_inv(s) - np.eye(len(s))))


def near_twin(rng, q, resid_sq=4e-10, spec=SPEC):
    """A query of q's task whose squared residual against q alone is
    about `resid_sq`: just above the Schur floor of 1e-10 by default."""
    x = instance_of(q, spec).x.to_dense(q.x.size)
    u = rng.normal(size=x.size)
    u -= (u @ x) / (x @ x) * x
    tilt = np.sqrt(resid_sq / M[q.task, q.task])
    u *= np.linalg.norm(x) * np.tan(np.arcsin(tilt)) / np.linalg.norm(u)
    return query_of(MultitaskInstance(SparseVector.from_dense(x + u), q.task + 1),
                    x.size, spec)


@pytest.mark.parametrize("kw, message", [
    (dict(budget=0), "budget must be positive"),
    (dict(kernel_mode="shared"), "bad kernel_mode 'shared'"),
    (dict(keeps="inverse_gram"), "bad keeps 'inverse_gram'"),
    (dict(keeps="gram"), "bad keeps 'gram'"),
    # no learner uses it, and a window's moves are written for scalar weights
    (dict(kernel_mode="single", keeps=None), "kernel_mode 'single' needs keeps='inverse'"),
])
def test_bad_configuration_is_refused(kw, message):
    args = dict(budget=4, dim=6, spec=SPEC, model=MODEL) | kw
    with pytest.raises(ValueError, match=message):
        ActiveSet(**args)


class TestPredict:
    def test_empty(self):
        s = make_set()
        assert s.predict(pairs_query([(1, 1.0)], 1)) == 0.0

    def test_single_entry_edgeless(self):
        model = build_interaction_model(TaskGraph.edgeless(2))
        s = make_set(model=model)
        q = pairs_query([(1, 2.0)], 1)
        s.insert(q, 1.0)
        assert s.predict(q) == pytest.approx(1.0)

    def test_cross_task_complete(self):
        s = make_set()
        x = [(1, 1.0), (2, 1.0)]
        s.insert(pairs_query(x, 1), 1.0)
        assert s.predict(pairs_query(x, 2)) == pytest.approx(0.25)

    def test_per_task_mode(self):
        s = make_set(mode="single")
        x = [(1, 1.0)]
        s.insert(pairs_query(x, 1), np.array([0.5, 0.25, 0.25]))
        assert s.predict(pairs_query(x, 2)) == pytest.approx(0.25)


class TestProjection:
    def test_duplicate_entry(self):
        s = make_set()
        rng = np.random.default_rng(0)
        q = rand_query(rng)
        s.insert(q, 1.0)
        alphas, resid = s.projection(q)
        assert in_entry_order(s, alphas) == pytest.approx([1.0], abs=1e-6)
        assert resid == pytest.approx(0.0, abs=1e-6)

    def test_empty_residual_is_self_kernel_sqrt(self):
        model = build_interaction_model(TaskGraph.edgeless(2))
        s = make_set(model=model)
        rng = np.random.default_rng(1)
        _, resid = s.projection(rand_query(rng, k=2))
        assert resid == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_entries(self):
        s = make_set()
        a = pairs_query([(1, 1.0)], 1)
        b = pairs_query([(2, 1.0)], 1)
        s.insert(a, 1.0)
        s.insert(b, 1.0)
        alphas, resid = s.projection(b)
        assert in_entry_order(s, alphas) == pytest.approx([0.0, 1.0], abs=1e-9)
        assert resid == pytest.approx(0.0, abs=1e-6)

    def test_matches_least_squares_oracle(self):
        rng = np.random.default_rng(2)
        s = make_set()
        for _ in range(8):
            s.insert(rand_query(rng), rng.normal())
        G = dense_gram_oracle(s)
        for _ in range(10):
            q = rand_query(rng)
            col = np.array([oracle(s, entry_query(s, i), q) for i in range(len(s))])
            alphas, resid = s.projection(q)
            alphas = in_entry_order(s, alphas)
            al2, *_ = np.linalg.lstsq(G, col, rcond=None)
            kqq = oracle(s, q, q)
            resid2 = np.sqrt(max(kqq - col @ al2, 0.0))
            assert alphas == pytest.approx(al2, abs=1e-6)
            assert resid == pytest.approx(resid2, abs=1e-6)

    def test_residual_monotone_in_entries(self):
        rng = np.random.default_rng(3)
        s = make_set(budget=12)
        probes = [rand_query(rng) for _ in range(5)]
        prev = [s.projection(p)[1] for p in probes]
        for _ in range(8):
            s.insert(rand_query(rng), 1.0)
            cur = [s.projection(p)[1] for p in probes]
            for a, b in zip(cur, prev):
                assert a <= b + 1e-9
            prev = cur


class TestInsert:
    def test_first_insert(self):
        s = make_set()
        rng = np.random.default_rng(4)
        q = rand_query(rng)
        s.insert(q, 1.0)
        kqq = oracle(s, q, q)
        assert (dense_gram_oracle(s) @ gram_inv(s))[0, 0] == pytest.approx(1.0)
        assert gram_inv(s)[0, 0] == pytest.approx(1.0 / kqq)

    def test_budget_full_raises(self):
        s = make_set(budget=2)
        rng = np.random.default_rng(5)
        s.insert(rand_query(rng), 1.0)
        s.insert(rand_query(rng), 1.0)
        with pytest.raises(BudgetFull):
            s.insert(rand_query(rng), 1.0)
        s.insert(rand_query(rng), 1.0, force=True)  # provisional slot
        assert len(s) == 3

    def test_duplicate_is_refused_and_leaves_the_set_unchanged(self):
        s = make_set()
        rng = np.random.default_rng(6)
        q, other = rand_query(rng), rand_query(rng)
        s.insert(q, 1.0)
        s.insert(other, 0.5)
        def state():
            return (gram_inv(s), entry_weights(s),
                    in_entry_order(s, s.leave_one_out_residuals()))
        before = state()
        with pytest.raises(NumericalFailure, match="below the floor"):
            s.insert(q, -1.0)
        assert len(s) == 2 and entry_query(s, 0) is q and entry_query(s, 1) is other
        for got, want in zip(state(), before):
            assert np.array_equal(got, want)
        assert inverse_error(s) <= 1e-6

    def test_orthogonal_block(self):
        s = make_set()
        a = pairs_query([(1, 1.0)], 1)
        b = pairs_query([(2, 1.0)], 1)
        s.insert(a, 1.0)
        s.insert(b, 1.0)
        assert gram_inv(s) == pytest.approx(np.eye(2) / M[0, 0], abs=1e-9)

    def test_reuses_projection_only_for_same_query_and_task(self):
        rng = np.random.default_rng(14)
        s = make_set(budget=4)
        for _ in range(3):
            s.insert(rand_query(rng), 1.0)
        q = rand_query(rng)
        s.projection(q)
        s.evict(1)      # the projection's terms no longer describe the set
        s.insert(q, 1.0)
        s.projection(q)
        # an equal query of another task is another query
        s.insert(q._replace(task=(q.task + 1) % 3), 1.0)
        G = dense_gram_oracle(s)
        assert inverse_error(s, G) <= 1e-12
        assert np.max(np.abs(gram_inv(s) - np.linalg.inv(G))) <= 1e-9


class TestLeaveOneOut:
    def test_duplicates_have_zero_residual(self):
        s = make_set()
        rng = np.random.default_rng(7)
        q = rand_query(rng)
        s.insert(q, 1.0)
        s.insert(near_twin(rng, q), 1.0)
        assert np.all(in_entry_order(s, s.leave_one_out_residuals()) <= 1e-4)

    def test_orthogonal_unit_entries(self):
        model = build_interaction_model(TaskGraph.edgeless(2))
        s = make_set(model=model)
        s.insert(pairs_query([(1, 1.0)], 1), 1.0)
        s.insert(pairs_query([(2, 1.0)], 1), 1.0)
        assert in_entry_order(s, s.leave_one_out_residuals()) == pytest.approx(
            [1.0, 1.0], abs=1e-9)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(8)
        s = make_set()
        for _ in range(5):
            s.insert(rand_query(rng), rng.normal())
        G = dense_gram_oracle(s)
        loo = in_entry_order(s, s.leave_one_out_residuals())
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
        s.insert(rand_query(rng), 1.0)
        gammas = s.evict(0)
        assert len(s) == 0 and in_entry_order(s, gammas).size == 0

    def test_duplicate_back_projection(self):
        s = make_set()
        rng = np.random.default_rng(10)
        q = rand_query(rng)
        s.insert(q, 1.0)
        s.insert(near_twin(rng, q), 1.0)
        gammas = s.evict(0)
        assert in_entry_order(s, gammas) == pytest.approx([1.0], abs=1e-4)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        s = make_set()
        for _ in range(6):
            s.insert(rand_query(rng), rng.normal())
        G = dense_gram_oracle(s)
        r = 2
        gammas = in_entry_order(s, s.evict(r))
        idx = [i for i in range(6) if i != r]
        sub = G[np.ix_(idx, idx)]
        assert np.max(np.abs(gram_inv(s) - np.linalg.inv(sub))) <= 1e-6
        assert gammas == pytest.approx(np.linalg.solve(sub, G[idx, r]), abs=1e-6)


class TestRandomizedMaintenance:
    def test_insert_evict_interleaving(self):
        rng = np.random.default_rng(12)
        s = make_set(budget=20, dim=16)
        for _ in range(500):
            if len(s) == 0 or (len(s) < 20 and rng.random() < 0.6):
                s.insert(rand_query(rng, d=16, spec=s.spec), rng.normal())
            else:
                s.evict(int(rng.integers(len(s))))
            if len(s):
                assert inverse_error(s) <= 1e-6
            assert len(s) <= 20

        assert inverse_error(s) <= 1e-9


class TestInsertionOrder:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(ops=st.lists(st.tuples(st.sampled_from(["insert", "evict", "replace_oldest"]),
                                  st.integers(0, 2 ** 16)),
                        min_size=1, max_size=40),
           budget=st.integers(1, 6),
           mode_keeps=st.sampled_from([("multitask", "inverse"), ("multitask", None),
                                       ("single", "inverse")]))
    def test_entries_follow_an_insertion_order_list(self, ops, budget, mode_keeps):
        """An insert appends and an eviction closes the gap, so entry j is
        the j-th oldest survivor and entry 0 the oldest: the entries and
        their weights equal a plain list kept in insertion order."""
        mode, keeps = mode_keeps
        rng = np.random.default_rng(budget)
        s = ActiveSet(budget, 16, SPEC, MODEL, kernel_mode=mode, keeps=keeps)
        kept = []   # (query, weight), oldest first

        def add(force=False):
            q = rand_query(rng, d=16)
            w = rng.normal(size=3) if mode == "single" else rng.normal()
            s.insert(q, w, force=force)
            kept.append((q, w))

        for op, r in ops:
            if op == "insert" and len(s) < budget:
                add()
            elif op == "evict" and kept:
                r %= len(kept)
                s.evict(r)
                del kept[r]
            elif op == "replace_oldest" and len(s) == budget:
                add(force=True)
                s.evict(0)
                del kept[0]
            assert len(s) == len(kept)
            assert all(entry_query(s, j) is q for j, (q, _) in enumerate(kept))
            assert list(entry_tasks(s)) == [q.task for q, _ in kept]
            for j, (_, w) in enumerate(kept):
                assert np.array_equal(entry_weights(s)[..., j], w)


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
    got = in_entry_order(s, s.leave_one_out_residuals())
    assert np.max(np.abs(got - brute_loo(dense_gram_oracle(s)))) <= BORDER_TOL


def check_inverse(s):
    G = dense_gram_oracle(s)
    assert np.max(np.abs(gram_inv(s) - np.linalg.inv(G))) <= BORDER_TOL
    assert inverse_error(s, G) <= BORDER_TOL


def check_projection(s, q):
    alphas, resid = s.projection(q)
    alphas = in_entry_order(s, alphas)
    G = dense_gram_oracle(s)
    col = np.array([oracle(s, entry_query(s, j), q) for j in range(len(s))])
    kqq = oracle(s, q, q)
    want = np.linalg.solve(G, col)
    assert np.max(np.abs(alphas - want)) <= BORDER_TOL
    assert abs(resid ** 2 - max(kqq - col @ want, 0.0)) <= BORDER_TOL


def evict_and_check(s, r):
    G = dense_gram_oracle(s)
    idx = [i for i in range(len(s)) if i != r]
    gammas = in_entry_order(s, s.evict(r))
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
        in-budget inserts fold it in first. An exact duplicate is refused.
        Every figure must match a brute-force inverse of the oracle Gram."""
        s = make_set(budget=budget, dim=16, mode=mode, spec=BORDER_SPECS[kernel])

        def weight(rng):
            return rng.normal(size=3) if mode == "single" else rng.normal()

        def fill(rng):
            while len(s) < budget:      # each insert folds in the last border
                s.insert(rand_query(rng, d=16, spec=s.spec), weight(rng))

        for step, (op, reader, seed) in enumerate(ops):
            rng = np.random.default_rng((seed, step))   # no repeats across steps
            if op == "duplicate":
                fill(rng)
                # an exact copy sits below the Schur floor: the set refuses
                # it and stays as it was
                twin = entry_query(s, int(rng.integers(budget)))
                with pytest.raises(NumericalFailure):
                    s.insert(twin, weight(rng), force=True)
                assert len(s) == budget
                check_loo(s)
                check_inverse(s)
            elif op == "over":
                fill(rng)
                s.insert(rand_query(rng, d=16, spec=s.spec), weight(rng), force=True)
                check_loo(s)
                if reader == "project":
                    check_projection(s, rand_query(rng, d=16, spec=s.spec))
                elif reader == "gram_inv":
                    check_inverse(s)
                evict_and_check(s, int(rng.integers(budget + 1)))
                check_loo(s)
            elif op == "insert" and len(s) < budget:
                s.insert(rand_query(rng, d=16, spec=s.spec), weight(rng))
                check_loo(s)
            elif op == "evict" and len(s) > 1:
                evict_and_check(s, int(rng.integers(len(s))))
            elif op == "project" and len(s):
                check_projection(s, rand_query(rng, d=16, spec=s.spec))
            elif op == "gram_inv" and len(s):
                check_inverse(s)
            elif op == "loo" and len(s):
                check_loo(s)
            assert len(s) <= budget
