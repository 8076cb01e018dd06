"""Differential tests of the slot store and the query forms.

Sparse queries and the same queries densified must agree with each other
and with brute-force `mt_kernel` oracles after random insert / evict /
projection sequences that reuse freed slots; and the streaming harness must
make the same mistakes as stepping each learner by hand on queries built
one example at a time, sparse or dense.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mtbudget import harness, kernels
from mtbudget.active_set import ActiveSet
from mtbudget.data import DatasetStream
from mtbudget.errors import NumericalFailure, ZeroNormInstance
from mtbudget.graph import TaskGraph, build_interaction_model
from mtbudget.kernels import KernelSpec, MultitaskInstance, SparseVector, make_queries
from mtbudget.learners import ALGORITHMS, LearnerConfig, make_learner
from support import (base_kernel, dense_of, entry_queries, entry_weights, in_entry_order,
                     instance_of, inverse_of, kernel_column, mt_kernel, queries_of,
                     query_of, stored_vectors)

D = 5000
NNZ = 30
K = 3
MODEL = build_interaction_model(TaskGraph.path(K))
M = inverse_of(TaskGraph.path(K))     # MODEL's M, for the oracles
SPECS = {"linear": KernelSpec("linear", normalize=True),
         "poly": KernelSpec("polynomial", degree=2, offset=1.0, normalize=True),
         "gauss": KernelSpec("gaussian", gamma=0.5)}
TOL = 1e-9


def sparse_instance(rng, like=None):
    """About NNZ random features; with `like`, a near-duplicate of it."""
    if like is not None:
        vals = like.x.values * (1.0 + 1e-3 * rng.standard_normal(like.x.values.size))
        return MultitaskInstance(SparseVector(like.x.indices, vals),
                                 int(rng.integers(1, K + 1)))
    idx = np.sort(rng.choice(D, NNZ, replace=False)) + 1
    return MultitaskInstance(SparseVector(idx, rng.standard_normal(NNZ)),
                             int(rng.integers(1, K + 1)))


def dense_query(inst, dim, spec):
    return dense_of(query_of(inst, dim, spec), dim, spec)


def entries(s):
    return [instance_of(q, s.spec) for q in entry_queries(s)]


def oracle_base(s, q):
    """Configured base-kernel values of q against the entries, by brute force."""
    if s.kernel_mode == "multitask":
        return np.array([mt_kernel(e, q, M, s.spec) for e in entries(s)])
    return np.array([base_kernel(e.x, q.x, s.spec) for e in entries(s)])


def oracle_gram(s):
    stored = entries(s)
    if s.kernel_mode == "multitask":
        return np.array([[mt_kernel(a, b, M, s.spec) for b in stored]
                         for a in stored])
    return np.array([[base_kernel(a.x, b.x, s.spec) for b in stored]
                     for a in stored])


def oracle_predict(s, q):
    base = oracle_base(s, q)
    if s.kernel_mode == "multitask":
        return float(np.dot(entry_weights(s), base))
    # single mode: K' against the entries, weighted by q's task row
    return float(np.dot(entry_weights(s)[q.task - 1], base))


def check_against_oracle(s, q):
    sq = query_of(q, D, s.spec)
    dq = dense_query(q, D, s.spec)
    want = oracle_base(s, q)
    for query in (sq, dq):
        assert np.allclose(kernel_column(s, query), want, rtol=0, atol=TOL)
        assert abs(s.predict(query) - oracle_predict(s, q)) <= TOL
    # the Gram the stored vectors give, one kernel column per entry
    gram = np.array([kernel_column(s, q) for q in entry_queries(s)])
    assert np.allclose(gram.reshape(len(s), len(s)), oracle_gram(s), rtol=0, atol=TOL)


OPS = st.lists(st.tuples(st.sampled_from(["insert", "insert_dense", "near_dup",
                                          "evict", "project"]),
                         st.integers(0, 2 ** 32 - 1)),
               min_size=5, max_size=40)


class TestSlotStore:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=OPS, budget=st.integers(2, 8),
           mode=st.sampled_from(["multitask", "single"]),
           kernel=st.sampled_from(sorted(SPECS)))
    def test_sparse_and_dense_queries_match_oracle(self, ops, budget, mode, kernel):
        spec = SPECS[kernel]
        s = ActiveSet(budget, D, spec, MODEL, kernel_mode=mode)
        stored = []
        for op, seed in ops:
            rng = np.random.default_rng(seed)
            if op == "evict":
                if len(s):
                    s.evict(int(rng.integers(len(s))))
            elif op == "project":
                q = sparse_instance(rng)
                a1, r1 = s.projection(query_of(q, D, spec))
                a2, r2 = s.projection(dense_query(q, D, spec))
                assert np.allclose(in_entry_order(s, a1), in_entry_order(s, a2),
                                   rtol=1e-9, atol=TOL)
                assert abs(r1 - r2) <= 1e-6
            else:
                like = stored[int(rng.integers(len(stored)))] \
                    if op == "near_dup" and stored else None
                q = sparse_instance(rng, like)
                stored.append(q)
                query = (dense_query(q, D, spec) if op == "insert_dense"
                         else query_of(q, D, spec))
                w = rng.standard_normal(K) if mode == "single" else rng.standard_normal()
                full = len(s) >= budget
                try:
                    s.insert(query, w, force=full)
                except NumericalFailure:
                    # a repeated seed gives an exact copy of a stored
                    # vector, which is in the span: refused, set unchanged
                    assert s.projection(query)[1] == 0.0
                else:
                    if full:    # reuse: free a slot the next insert takes
                        s.evict(int(rng.integers(len(s))))
            assert len(s) <= budget
            probe = sparse_instance(rng, stored[-1] if stored and seed % 2 else None)
            check_against_oracle(s, probe)

    def test_evicted_slot_is_reused_without_moving_the_others(self):
        rng = np.random.default_rng(0)
        s = ActiveSet(3, D, SPECS["linear"], MODEL, keeps=None)
        for _ in range(3):
            s.insert(query_of(sparse_instance(rng), D, SPECS["linear"]), 1.0)
        stored = stored_vectors(s._store)[:, :3].copy()   # one column per slot
        s.evict(0)
        q = sparse_instance(rng)
        query = query_of(q, D, SPECS["linear"])
        s.insert(query, 1.0)
        assert s._hi == 3
        assert np.array_equal(stored_vectors(s._store)[:, 1:3], stored[:, 1:3])
        assert np.array_equal(stored_vectors(s._store)[:, 0],
                              dense_of(query, D, SPECS["linear"]).x)
        assert entry_queries(s)[-1] is query


class TestQueryForm:
    def test_form_follows_stream_density(self):
        rng = np.random.default_rng(1)
        sparse = [sparse_instance(rng) for _ in range(5)]
        queries = queries_of(sparse, D, SPECS["linear"])
        assert all(q.idx is not None for q in queries)
        assert [q.task for q in queries] == [inst.task for inst in sparse]
        dense = [MultitaskInstance(SparseVector.from_dense(rng.standard_normal(8)), 1)
                 for _ in range(5)]
        assert all(q.idx is None for q in queries_of(dense, 8, SPECS["linear"]))

    @pytest.mark.parametrize("text", ["linear:norm", "poly:3:1:norm", "poly:2:0:norm",
                                      "gauss:0.3"])
    def test_forms_hold_the_same_folded_values(self, text, monkeypatch):
        rng = np.random.default_rng(3)
        insts = [sparse_instance(rng) for _ in range(20)]
        spec = KernelSpec.parse(text)
        monkeypatch.setattr(kernels, "SPARSE_DENSITY", 1.0)
        sparse = queries_of(insts, D, spec)
        monkeypatch.setattr(kernels, "SPARSE_DENSITY", 0.0)
        dense = queries_of(insts, D, spec)
        assert sparse[0].idx is not None and dense[0].idx is None
        for a, b in zip(sparse, dense):
            assert np.array_equal(dense_of(a, D, spec).x, b.x) and a.sq == b.sq

    def test_zero_norm_names_position_and_task(self):
        rng = np.random.default_rng(2)
        insts = [sparse_instance(rng), MultitaskInstance(SparseVector.from_pairs([]), 3)]
        with pytest.raises(ZeroNormInstance, match=r"example 2 \(task 3\)"):
            queries_of(insts, D, SPECS["linear"])
        # the gaussian has no scale to divide by; an unnormalized linear
        # kernel is refused whatever its rows
        assert queries_of(insts, D, SPECS["gauss"])[1].sq == 0.0
        with pytest.raises(ValueError, match=":norm"):
            queries_of(insts[:1], D, KernelSpec("linear"))


def sparse_stream(n=300, d=400, nnz=8, k=K, seed=0):
    """Round-robin tasks, nnz random features per row, noisy linear labels."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(d)
    insts, labels = [], []
    for t in range(n):
        idx = np.sort(rng.choice(d, nnz, replace=False))
        vals = rng.random(nnz)
        y = 1.0 if np.dot(w[idx], vals) + 0.3 * rng.standard_normal() > 0 else -1.0
        insts.append(MultitaskInstance(SparseVector(idx + 1, vals), t % k + 1))
        labels.append(y)
    return DatasetStream(insts, np.array(labels), k, d)


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("algo", ALGORITHMS)
def test_harness_matches_stepping_without_queries(algo, monkeypatch):
    """The harness builds the stream's queries in one call; stepping by hand
    builds each example's query alone (sparse) or as a dense row."""
    stream = sparse_stream()
    config = LearnerConfig(algo, TaskGraph.complete(K), budget=12, eta=0.05,
                           kernel=SPECS["linear"], seed=3)
    assert make_queries(stream, config.kernel).queries[0].idx is not None

    seen = []
    real_make_learner = harness.make_learner

    def recording(cfg, dim):
        learner = real_make_learner(cfg, dim)
        step = learner.step

        def traced(query, y):
            out = step(query, y)
            seen.append((out.mistake, out.action))
            return out
        learner.step = traced
        return learner

    monkeypatch.setattr(harness, "make_learner", recording)
    metrics = harness.run_stream(stream, config)

    plain = make_learner(config, stream.d)
    dense = make_learner(config, stream.d)
    want, dense_seen = [], []
    for inst, y in zip(stream.instances, stream.labels):
        out = plain.step(query_of(inst, stream.d, config.kernel), int(y))
        want.append((out.mistake, out.action))
        out = dense.step(dense_query(inst, stream.d, config.kernel), int(y))
        dense_seen.append((out.mistake, out.action))
    assert seen == want == dense_seen
    assert metrics.mistakes == plain.mistakes > 0
    if algo != "perceptron_battery":
        assert any(action.startswith("insert_evict") for _, action in want)


class TestCompactRows:
    """At d = 10^6 a store holds a float row only for features its vectors
    have used (at most 1 + 2F rows allocated for the F features of every
    vector it ever held), never one per feature of d; and rows of features
    no held vector uses any more are reclaimed."""

    DIM = 10 ** 6

    def sparse_queries(self, n, seed):
        rng = np.random.default_rng(seed)
        insts = [MultitaskInstance(
            SparseVector(np.sort(rng.choice(self.DIM, NNZ, replace=False)) + 1,
                         rng.random(NNZ)), i % K + 1) for i in range(n)]
        return queries_of(insts, self.DIM, SPECS["linear"])

    @staticmethod
    def check_rows(store, stored):
        """`stored`: every query the store was ever given."""
        features = len(set().union(*(q.idx.tolist() for q in stored)))
        held = [q for q in store.queries if q is not None]
        rows = store.row[np.unique(np.concatenate([q.idx for q in held]))]
        assert rows.all() and np.unique(rows).size == rows.size
        assert 1 + rows.size <= store.rows <= 1 + features
        assert store.X.shape[0] <= 1 + 2 * features

    def test_active_set(self):
        s = ActiveSet(16, self.DIM, SPECS["linear"], MODEL)
        rng = np.random.default_rng(5)
        queries = self.sparse_queries(60, 5)
        for q in queries:
            full = len(s) >= s.budget
            s.insert(q, 1.0, force=full)
            if full:
                s.evict(int(rng.integers(len(s))))
        self.check_rows(s._store, queries)

    def test_battery(self):
        config = LearnerConfig("perceptron_battery", TaskGraph.edgeless(K),
                               kernel=SPECS["linear"])
        battery = make_learner(config, self.DIM)
        stored = [[] for _ in range(K)]
        for q in self.sparse_queries(60, 6):
            if battery.step(q, 1).mistake:
                stored[q.task - 1].append(q)
        assert all(stored)
        for store, queries in zip(battery._stores, stored):
            self.check_rows(store, queries)
            # a battery never drops a vector: every feature keeps its row
            assert store.rows == 1 + len(set().union(*(q.idx.tolist() for q in queries)))

    def test_vocabulary_shift_keeps_rows_bounded(self):
        """2 * 10^4 inserts with random evictions, drawing 10 of 300
        features from a window that moves every 10^3 steps: the store's rows
        track the features the held vectors use, not all 6000 ever seen. A
        rebuild leaves at least the live features' count of rows free, over
        100 after the first steps, so it comes at most once per 10 steps."""
        n, nnz, vocab = 20000, 10, 300
        rng = np.random.default_rng(7)
        ids = np.concatenate([np.sort(rng.choice(vocab, nnz, replace=False))
                              + vocab * (i // 1000) + 1 for i in range(n)])
        stream = DatasetStream((np.arange(n + 1) * nnz, ids, rng.random(n * nnz),
                                np.arange(n) % K + 1), np.ones(n), K, self.DIM)
        s = ActiveSet(16, self.DIM, SPECS["linear"], MODEL, keeps=None)
        rebuilds, X = 0, None
        for step, q in enumerate(make_queries(stream, SPECS["linear"]).queries, start=1):
            full = len(s) >= s.budget
            s.insert(q, 1.0, force=full)
            if full:
                s.evict(int(rng.integers(len(s))))
            if s._store.X is not X:
                rebuilds, X = rebuilds + 1, s._store.X
            if step % 100 == 0:
                held = [h.idx for h in s._store.queries if h is not None]
                live = np.unique(np.concatenate(held)).size
                assert s._store.X.shape[0] <= 4 * (1 + live), step
        assert rebuilds <= n // nnz
