import math
import re

import numpy as np
import pytest

from mtbudget import active_set as active_set_module
from mtbudget import learners as learners_module
from mtbudget.active_set import ActiveSet
from mtbudget.data import generate_synthetic
from mtbudget.errors import DomainError
from mtbudget.graph import TaskGraph
from mtbudget.kernels import KernelSpec, MultitaskInstance, SparseVector
from mtbudget.learners import (ALGORITHMS, DEFICIT_FRAC, LearnerConfig,
                               PerceptronBattery, StepOutcome, compute_phi,
                               make_learner, mtforg_bound, mtrbp_bound)
from support import (base_kernel, dense_of, entry_queries, entry_query, entry_weights,
                     gram_inv, in_entry_order, instance_of, inverse_of, labelled,
                     mt_kernel)

SPEC = KernelSpec("linear", normalize=True)


def cfg(algo, graph, **kw):
    kw.setdefault("kernel", SPEC)
    return LearnerConfig(algo, graph, **kw)


def ex(x, task, y):
    """One (query, label) pair of a dense row."""
    return labelled([MultitaskInstance(SparseVector.from_dense(x), task)], [y],
                    len(x), SPEC)[0]


def rand_examples(rng, n, d=8, k=3):
    out = []
    for _ in range(n):
        out.append(ex(rng.normal(size=d), int(rng.integers(1, k + 1)),
                      int(rng.choice((-1, 1)))))
    return out


def stream_examples(stream):
    return labelled(stream.instances, stream.labels, stream.d, SPEC)


def mt_oracle(a, b, M):
    """The multitask kernel of two queries under the array M, by brute force."""
    return mt_kernel(instance_of(a, SPEC), instance_of(b, SPEC), M, SPEC)


def grid_phi(a, b, C):
    chis = np.arange(1e-4, 1.0 + 1e-12, 1e-4)
    ok = a * chis ** 2 + b * chis <= C + 1e-12
    return float(chis[ok][-1]) if np.any(ok) else None


class TestLearnerConfig:
    @pytest.mark.parametrize("eta", [-0.01, float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("algo", ["mtbprj", "mtbprj2", "mtrbp"])
    def test_eta_must_be_finite_and_nonnegative(self, algo, eta):
        with pytest.raises(ValueError, match="eta must be finite and >= 0"):
            cfg(algo, TaskGraph.complete(3), eta=eta)

    def test_eta_zero_is_allowed(self):
        assert cfg("mtbprj", TaskGraph.complete(3), eta=0.0).eta == 0.0

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_seed_must_be_nonnegative(self, algo):
        # mtrbp's generator once rejected it unnamed; the rest ignored it
        with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -1$"):
            cfg(algo, TaskGraph.complete(3), seed=-1)
        assert cfg(algo, TaskGraph.complete(3), seed=0).seed == 0

    @pytest.mark.parametrize("budget, shown", [(2.5, "2.5"), (True, "True"), (0, "0"),
                                               (3.0, "3.0"), ("4", "'4'")])
    def test_budget_must_be_a_positive_integer(self, budget, shown):
        # 2.5 once ran a budget of 2 and True one of 1, while the config
        # reported the value it was given
        with pytest.raises(ValueError, match="^budget must be a positive integer, got %s$"
                           % re.escape(shown)):
            cfg("mtrbp", TaskGraph.complete(3), budget=budget)
        assert cfg("mtrbp", TaskGraph.complete(3), budget=np.int64(4)).budget == 4


class TestMtbprj:
    def test_correct_prediction_no_change(self):
        g = TaskGraph.complete(3)
        learner = make_learner(cfg("mtbprj", g, budget=5), 4)
        learner.step(*ex([1.0, 0, 0, 0], 1, 1))
        before = entry_weights(learner.active_set)
        out = learner.step(*ex([1.0, 0, 0, 0], 1, 1))  # score > 0, same label
        assert not out.mistake and out.action == "none"
        assert np.array_equal(entry_weights(learner.active_set), before)

    def test_first_mistake_inserts_label_weight(self):
        learner = make_learner(cfg("mtbprj", TaskGraph.complete(3), budget=5), 4)
        out = learner.step(*ex([0, 1.0, 0, 0], 2, -1))
        assert out.mistake and out.action == "insert"
        assert len(learner.active_set) == 1
        assert entry_weights(learner.active_set)[0] == -1.0

    def test_duplicate_goes_to_projection_branch(self):
        learner = make_learner(cfg("mtbprj", TaskGraph.complete(3), budget=5), 4)
        learner.step(*ex([1.0, 0, 0, 0], 1, 1))
        out = learner.step(*ex([1.0, 0, 0, 0], 1, -1))  # same point, flipped label
        assert out.mistake and out.action == "weight_update_projection"
        assert len(learner.active_set) == 1
        assert entry_weights(learner.active_set)[0] == pytest.approx(0.0, abs=1e-9)

    def test_projection_preserves_function(self):
        rng = np.random.default_rng(0)
        g = TaskGraph.complete(3)
        M = inverse_of(g)
        learner = make_learner(cfg("mtbprj", g, budget=10, eta=0.5), 4)
        probes = [ex(rng.normal(size=4), int(rng.integers(1, 4)), 1)[0]
                  for _ in range(100)]
        seen = 0
        for query, y in rand_examples(rng, 400, d=4):
            before = None
            s = learner.active_set
            if len(s) and y * s.predict(query) <= 0:
                _, resid = s.projection(query)
                if resid <= learner.config.eta:
                    before = np.array([s.predict(p) for p in probes])
                    alphas = in_entry_order(s, s.projection(query)[0])
                    kp = np.array([
                        sum(a * mt_oracle(entry_query(s, j), p, M)
                            for j, a in enumerate(alphas)) for p in probes])
            learner.step(query, y)
            if before is not None:
                seen += 1
                after = np.array([learner.active_set.predict(p) for p in probes])
                assert after == pytest.approx(before + y * kp, abs=1e-6)
        assert seen > 0

    def test_eviction_matches_damage_argmin(self):
        rng = np.random.default_rng(1)
        learner = make_learner(cfg("mtbprj", TaskGraph.complete(3), budget=4), 12)
        M = inverse_of(TaskGraph.complete(3))
        evictions = 0
        for query, y in rand_examples(rng, 200, d=12):
            s = learner.active_set
            expect = None
            if (len(s) == 4 and y * s.predict(query) <= 0
                    and s.projection(query)[1] > learner.config.eta):
                entries = entry_queries(s)
                beta = entry_weights(s)
                # brute-force damage of each candidate over J \ {j} u {t}
                cand = entries + [query]
                G = np.array([[mt_oracle(a, b, M) for b in cand]
                              for a in cand])
                damages = []
                for j in range(4):
                    idx = [i for i in range(5) if i != j]
                    sub = G[np.ix_(idx, idx)]
                    col = G[idx, j]
                    resid = math.sqrt(max(G[j, j] - col @ np.linalg.solve(sub, col), 0))
                    damages.append(abs(beta[j]) * resid)
                expect = entries[int(np.argmin(damages))]
                survivors_should_drop = expect
            out = learner.step(query, y)
            if expect is not None:
                evictions += 1
                assert out.action == "insert_evict"
                kept = entry_queries(learner.active_set)
                assert all(k is not survivors_should_drop for k in kept)
        assert evictions > 0

    def test_eta_zero_matches_unbudgeted_perceptron(self):
        rng = np.random.default_rng(2)
        stream, _ = generate_synthetic(3, 8, 500, 0.7, 0.2, seed=3)
        g = TaskGraph.complete(3)
        M = inverse_of(g)
        learner = make_learner(cfg("mtbprj", g, budget=10 ** 6, eta=1e-300), stream.d)
        beta, stored = [], []
        mist_ref, mist_got = [], []
        for t, (inst, (query, y)) in enumerate(zip(stream.instances,
                                                   stream_examples(stream))):
            score = sum(b * mt_kernel(s, inst, M, SPEC)
                        for b, s in zip(beta, stored))
            if y * score <= 0:
                mist_ref.append(t)
                beta.append(y)
                stored.append(inst)
            if learner.step(query, y).mistake:
                mist_got.append(t)
        assert mist_got == mist_ref


class TestMtbprj2:
    def test_insert_column_complete_k3(self):
        learner = make_learner(cfg("mtbprj2", TaskGraph.complete(3), budget=5), 4)
        out = learner.step(*ex([0, 1.0, 0, 0], 1, 1))
        assert out.action == "insert"
        assert entry_weights(learner.active_set)[:, 0] == pytest.approx([0.5, 0.25, 0.25])

    def test_task_markers_ignored_by_projection(self):
        # Isolated task, feature vector inside the stored span: the
        # task-blind variant projects where the multitask one must insert.
        g = TaskGraph.from_edges(3, [(1, 2)])  # task 3 isolated
        l2 = make_learner(cfg("mtbprj2", g, budget=5), 4)
        l1 = make_learner(cfg("mtbprj", g, budget=5), 4)
        x = [1.0, 0, 0, 0]
        for learner in (l1, l2):
            learner.step(*ex(x, 1, 1))
        out2 = l2.step(*ex(x, 3, 1))  # score 0 -> mistake; x in span
        out1 = l1.step(*ex(x, 3, 1))
        assert out2.action == "weight_update_projection"
        assert out1.action == "insert"

    def test_eviction_score_factorization(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            k = int(rng.integers(1, 11))
            n = int(rng.integers(1, 6))
            W = rng.normal(size=(k, n))
            loo = rng.uniform(0.01, 1.0, size=n)
            factored = loo * np.linalg.norm(W, axis=0)
            direct = np.array([np.linalg.norm(W[:, j] * loo[j]) for j in range(n)])
            assert factored == pytest.approx(direct, abs=1e-12)

    def test_budget_eviction_runs(self):
        rng = np.random.default_rng(5)
        learner = make_learner(cfg("mtbprj2", TaskGraph.complete(3), budget=3), 16)
        actions = set()
        for e in rand_examples(rng, 200, d=16):
            actions.add(learner.step(*e).action)
            assert len(learner.active_set) <= 3
        assert "insert_evict" in actions


@pytest.mark.parametrize("budget", [6, 400])
@pytest.mark.parametrize("algo", ["mtbprj", "mtbprj2"])
def test_exact_repeats_at_eta_zero_keep_the_inverse_exact(algo, budget):
    """At eta = 0 a repeat of a stored example is in the span: its
    residual reads 0, so it is projected, never inserted at the Schur
    floor. 400 steps over 40 distinct examples (k=3, d=8) fill the span
    (24 dimensions under the multitask kernel, 8 task-blind) and, at B=6,
    evict; the inverse must stay that of the oracle Gram throughout."""
    rng = np.random.default_rng(0)
    rows = rng.normal(size=(40, 8))
    tasks = rng.integers(1, 4, size=40)
    picks = rng.integers(40, size=400)
    labels = rng.choice((-1, 1), size=400)
    g = TaskGraph.complete(3)
    learner = make_learner(cfg(algo, g, budget=budget, eta=0.0), 8)
    s = learner.active_set
    distinct = [MultitaskInstance(SparseVector.from_dense(x), int(t))
                for x, t in zip(rows, tasks)]
    if s.kernel_mode == "multitask":
        M = inverse_of(g)
        G = np.array([[mt_kernel(a, b, M, SPEC) for b in distinct]
                      for a in distinct])
    else:
        G = np.array([[base_kernel(a.x, b.x, SPEC) for b in distinct]
                      for a in distinct])
    examples = labelled([distinct[i] for i in picks], labels, 8, SPEC)
    row_of = {id(q): i for (q, _), i in zip(examples, picks)}
    for query, y in examples:
        learner.step(query, y)
        rows_in = [row_of[id(q)] for q in entry_queries(s)]
        err = np.max(np.abs(G[np.ix_(rows_in, rows_in)] @ gram_inv(s)
                            - np.eye(len(s))))
        assert err <= 1e-6
    assert len(s) == min(budget, 24 if algo == "mtbprj" else 8)


@pytest.mark.parametrize("algo", ["mtbprj", "mtbprj2"])
def test_one_kernel_column_per_predict_and_projection(algo, monkeypatch):
    """A mistake costs the predict's kernel column only: the projection
    reuses it, and the insert reuses the projection's terms."""
    calls = [0]
    real_kernel_vector = active_set_module.dense_kernel_vector

    def counting(*args):
        calls[0] += 1
        return real_kernel_vector(*args)
    monkeypatch.setattr(active_set_module, "dense_kernel_vector", counting)
    columns = {"predict": [], "projection": [], "insert": []}
    for op, seen in columns.items():
        def counted(self, *args, _method=getattr(ActiveSet, op), _seen=seen, **kw):
            before, empty = calls[0], len(self) == 0
            out = _method(self, *args, **kw)
            _seen.append((calls[0] - before, empty))
            return out
        monkeypatch.setattr(ActiveSet, op, counted)

    learner = make_learner(cfg(algo, TaskGraph.complete(3), budget=6), 8)
    actions = [learner.step(*e).action
               for e in rand_examples(np.random.default_rng(0), 300)]
    assert actions.count("insert_evict") >= 20
    assert all(n == (0 if empty else 1) for n, empty in columns["predict"])
    for op in ("projection", "insert"):
        assert all(n == 0 for n, _ in columns[op])
    assert calls[0] == sum(n for n, _ in columns["predict"])
    # the predict's column serves only a projection of the same query
    (a, _), (b, _) = rand_examples(np.random.default_rng(1), 2)
    learner.active_set.predict(a)
    learner.active_set.projection(b)
    assert columns["projection"][-1] == (1, False)


@pytest.mark.filterwarnings("ignore:mtforg mistake bound")
def test_mtforg_scores_its_evictee_without_a_kernel_column(monkeypatch):
    """mtforg reads the evictee's score from its running scores, so n steps compute
    n - 1 kernel columns: one per predict, none on the first (empty) step."""
    calls = [0]
    real_kernel_vector = active_set_module.dense_kernel_vector

    def counting(*args):
        calls[0] += 1
        return real_kernel_vector(*args)
    monkeypatch.setattr(active_set_module, "dense_kernel_vector", counting)
    learner = make_learner(cfg("mtforg", TaskGraph.complete(3), budget=6), 8)
    examples = rand_examples(np.random.default_rng(3), 300)
    actions = [learner.step(*e).action for e in examples]
    assert actions.count("insert_evict_shrink") >= 20
    assert calls[0] == len(examples) - 1


def test_equal_damage_evicts_the_earliest_insert():
    """Two pre-existing entries of exactly equal damage, the earlier insert
    in the higher slot: mtbprj evicts the earlier one."""
    learner = make_learner(cfg("mtbprj", TaskGraph.edgeless(1), budget=2), 4)
    s = learner.active_set
    z, p, q, x = (ex(e, 1, 1)[0] for e in np.eye(4)[[3, 0, 1, 2]])
    s.insert(z, 1.0)
    s.insert(p, 1.0)
    s.evict(0)          # frees z's slot, the lowest
    s.insert(q, 1.0)    # reuses it: q is newer than p but sits below it
    # orthonormal entries of weight 1 both have damage 1 * 1
    assert learner.step(x, 1).action == "insert_evict"
    assert s.predict(p) == 0.0 and s.predict(q) == 1.0 and len(s) == 2


def test_one_kernel_column_per_battery_predict(monkeypatch):
    """The battery's columns go through `learners.dense_kernel_vector`, where
    the benchmark's tracer counts them: one per predict of a task that has
    support vectors, none per append."""
    calls = [0]
    real_kernel_vector = learners_module.dense_kernel_vector

    def counting(*args):
        calls[0] += 1
        return real_kernel_vector(*args)
    monkeypatch.setattr(learners_module, "dense_kernel_vector", counting)
    appends = []
    real_append = PerceptronBattery._append

    def counted_append(self, *args):
        before = calls[0]
        real_append(self, *args)
        appends.append(calls[0] - before)
    monkeypatch.setattr(PerceptronBattery, "_append", counted_append)

    learner = make_learner(cfg("perceptron_battery", TaskGraph.edgeless(3)), 8)
    mistakes = [0, 0, 0]
    for query, y in rand_examples(np.random.default_rng(4), 300):
        before = calls[0]
        out = learner.step(query, y)
        assert calls[0] - before == (1 if mistakes[query.task] else 0)
        mistakes[query.task] += out.mistake
    assert len(appends) == learner.mistakes > 3 and not any(appends)


def test_learners_on_one_graph_share_one_model(monkeypatch):
    """Four learners built on one graph solve I + L once and share the
    graph's read-only model."""
    solves = []
    real = np.linalg.solve

    def counted(*args):
        solves.append(args)
        return real(*args)

    monkeypatch.setattr(np.linalg, "solve", counted)
    graph = TaskGraph.complete(4)
    made = [make_learner(cfg(algo, graph, budget=90), 5)
            for algo in ("mtbprj", "mtbprj2", "mtrbp", "mtforg")]
    assert len(solves) == 1
    assert all(learner.model is graph.model for learner in made)
    assert "model" not in repr(graph)


@pytest.mark.parametrize("algo, size, bound", [
    # measured on this stream: 9.0e-10 (cond(G) 2.5e5) and 8.9e-13
    # (cond(G) 2.1e3), so each bound leaves about 11x headroom
    ("mtbprj", 200, 1e-8),
    ("mtbprj2", 20, 1e-11),
])
def test_inverse_holds_over_a_saturated_run(algo, size, bound):
    """H^-1 is only ever updated, never recomputed: after 10 000 windowed
    steps at B = k * d, whose span saturates, it still inverts the Gram
    matrix of the stored rows, built here from the raw vectors and an
    independently inverted M."""
    k, d = 10, 20
    stream, _ = generate_synthetic(k, d, 10_000, 0.9, 0.1, seed=0)
    graph = TaskGraph.complete(k)
    learner = make_learner(cfg(algo, graph, budget=k * d), d)
    prepared = stream.prepared(SPEC)
    for i in range(0, len(stream), 64):
        learner.step_window(prepared.rows(i, i + 64))
    s = learner.active_set
    # a stored query's x is its row's view into the prepared array
    queries = entry_queries(s)
    assert all(q.x.base is prepared.X for q in queries)
    rows = [(q.x.ctypes.data - prepared.X.ctypes.data) // prepared.X.strides[0]
            for q in queries]
    instances = stream.instances      # built anew on each read
    stored = [instances[r] for r in rows]
    X = np.array([inst.x.to_dense(d) for inst in stored])
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    G = X @ X.T
    if algo == "mtbprj":
        tasks = [inst.task - 1 for inst in stored]
        G *= inverse_of(graph)[np.ix_(tasks, tasks)]
    assert len(s) == size
    assert np.max(np.abs(G @ gram_inv(s) - np.eye(size))) <= bound


class TestMtrbp:
    def test_random_eviction_replays_rng(self):
        rng = np.random.default_rng(6)
        seed = 99
        learner = make_learner(cfg("mtrbp", TaskGraph.complete(3), budget=3,
                                   seed=seed), 10)
        oracle = np.random.default_rng(seed)
        for e in rand_examples(rng, 300, d=10):
            s = learner.active_set
            full = len(s) == 3
            pre = entry_queries(s) if full else None
            out = learner.step(*e)
            if out.mistake and full:
                evicted = int(oracle.integers(3))
                kept = entry_queries(learner.active_set)[:2]
                expected_kept = [x for j, x in enumerate(pre) if j != evicted]
                assert kept == expected_kept
            assert len(learner.active_set) <= 3

    def test_weight_is_label_below_budget(self):
        learner = make_learner(cfg("mtrbp", TaskGraph.complete(2), budget=5), 4)
        out = learner.step(*ex([1.0, 0, 0, 0], 1, -1))
        assert out.action == "insert"
        assert entry_weights(learner.active_set)[0] == -1.0


class TestComputePhi:
    def test_unconstrained_maximum(self):
        phi, psi = compute_phi(0.1, 1, 0.0, 0.0, 100, 0.7)
        assert phi == 1.0

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(2000):
            cG = rng.uniform(0.2, 1.0)
            beta_r = rng.normal()
            y_r = int(rng.choice((-1, 1)))
            f_r = rng.normal()
            M = int(rng.integers(1, 50))
            cap = DEFICIT_FRAC * cG * cG * M
            Q = rng.uniform(0, cap)
            a = cG ** 2 * beta_r ** 2 - 2 * beta_r ** 2 * y_r * f_r
            b = 2 * cG * beta_r * y_r
            ref = grid_phi(a, b, cap - Q)
            if ref is None:
                continue
            phi, psi = compute_phi(beta_r, y_r, f_r, Q, M, cG)
            assert abs(phi - ref) <= 1e-4
            assert Q + psi <= cap
            checked += 1
        assert checked > 1500

    def test_boundary_deficit(self):
        # Q exactly at cap: only chi with nonpositive penalty are feasible.
        cG, M = 0.7, 10
        cap = DEFICIT_FRAC * cG * cG * M
        beta_r, y_r, f_r = 0.5, 1, 2.0  # a < 0, b > 0
        a = cG ** 2 * beta_r ** 2 - 2 * beta_r ** 2 * y_r * f_r
        b = 2 * cG * beta_r * y_r
        phi, psi = compute_phi(beta_r, y_r, f_r, cap, M, cG)
        ref = grid_phi(a, b, 0.0)
        assert abs(phi - ref) <= 1e-4
        assert cap + psi <= cap + 1e-15


class TestMtforg:
    def test_below_budget_is_perceptron(self):
        rng = np.random.default_rng(8)
        stream, _ = generate_synthetic(3, 8, 400, 0.7, 0.2, seed=9)
        g = TaskGraph.complete(3)
        forg = make_learner(cfg("mtforg", g, budget=10 ** 6), stream.d)
        rbp = make_learner(cfg("mtrbp", g, budget=10 ** 6), stream.d)
        for e in stream_examples(stream):
            assert forg.step(*e).mistake == rbp.step(*e).mistake
        assert forg.deficit == 0.0

    @pytest.mark.filterwarnings("ignore:mtforg mistake bound")
    def test_full_budget_shrink_and_deficit(self):
        rng = np.random.default_rng(10)
        g = TaskGraph.complete(3)
        learner = make_learner(cfg("mtforg", g, budget=4), 10)
        cG = learner.model.cG
        shrinks = 0
        inserted = []       # labels of the active set's entries, oldest first
        for query, y in rand_examples(rng, 300, d=10):
            s = learner.active_set
            pre = None
            if len(s) == 4 and y * s.predict(query) <= 0:
                pre = dict(beta_r=float(entry_weights(s)[0]),
                           y_r=inserted.pop(0),
                           f_r=s.predict(entry_query(s, 0)),
                           weights=entry_weights(s),
                           Q=learner.deficit, M=learner.mistakes,
                           first=entry_query(s, 0))
            out = learner.step(query, y)
            if out.mistake:
                inserted.append(y)
            if pre is not None:
                shrinks += 1
                assert out.action == "insert_evict_shrink"
                phi, psi = compute_phi(pre["beta_r"], pre["y_r"], pre["f_r"],
                                       pre["Q"], pre["M"] + 1, cG)
                s = learner.active_set
                # oldest dropped, newcomer got y*phi, survivors scaled by phi
                assert all(q is not pre["first"] for q in entry_queries(s))
                survivors = pre["weights"][1:] * phi
                assert entry_weights(s)[:3] == pytest.approx(survivors, abs=1e-12)
                assert entry_weights(s)[3] == pytest.approx(y * phi, abs=1e-12)
                assert learner.deficit == pytest.approx(pre["Q"] + psi, abs=1e-12)
            assert learner.deficit <= DEFICIT_FRAC * cG * cG * learner.mistakes
            assert len(learner.active_set) <= 4
        assert shrinks > 0

    @pytest.mark.filterwarnings("ignore:mtforg mistake bound")
    @pytest.mark.parametrize("kernel", ["linear:norm", "poly:3:1:norm"])
    def test_oldest_running_score_matches_the_oracle(self, kernel):
        """Through inserts into freed slots and shrinks, the running score
        of the oldest entry stays its whole score: at every full-budget step
        it is sum_j w_j * M[t_r, t_j] * K(x_r, x_j) from the definitions."""
        spec = KernelSpec.parse(kernel)
        rng = np.random.default_rng(16)
        M = inverse_of(TaskGraph.complete(3))
        learner = make_learner(cfg("mtforg", TaskGraph.complete(3), budget=6,
                                   kernel=spec), 8)
        s = learner.active_set
        reused = 0      # checks after the first eviction: every insert reuses a slot
        for _ in range(300):
            if len(s) == 6:
                entries = [instance_of(q, spec) for q in entry_queries(s)]
                want = sum(w * mt_kernel(entries[0], e, M, spec)
                           for w, e in zip(entry_weights(s), entries))
                assert abs(learner.scores[s.order[0]] - want) <= 1e-10
                reused += s._hi == 7
            inst = MultitaskInstance(SparseVector.from_dense(rng.normal(size=8)),
                                     int(rng.integers(1, 4)))
            learner.step(*labelled([inst], [rng.choice((-1, 1))], 8, spec)[0])
        assert s._hi == 7 and reused >= 100

    def test_keeps_no_quadratic_array(self):
        """After a run at B = 100 that evicts, no array the learner, its
        active set or its slot store holds has B^2 elements or more."""
        stream, _ = generate_synthetic(3, 20, 2000, 0.5, 0.1, seed=0)
        learner = make_learner(cfg("mtforg", TaskGraph.complete(3), budget=100),
                               stream.d)
        actions = [learner.step(*e).action for e in stream_examples(stream)]
        assert actions.count("insert_evict_shrink") >= 20
        s = learner.active_set
        sizes = [v.size for obj in (learner, s, s._store) for v in vars(obj).values()
                 if isinstance(v, np.ndarray)]
        assert len(sizes) >= 5 and max(sizes) < 100 ** 2
        assert s._Hinv is None

    def test_small_budget_warns(self):
        with pytest.warns(UserWarning):
            cfg("mtforg", TaskGraph.complete(2), budget=10)


class TestBattery:
    def test_mistake_appends_to_task_expansion(self):
        learner = make_learner(cfg("perceptron_battery", TaskGraph.edgeless(2)), 4)
        out = learner.step(*ex([1.0, 0, 0, 0], 2, 1))
        assert out.mistake and learner.active_size == 1
        assert learner._count[1] == 1 and learner._count[0] == 0

    def test_matches_unbudgeted_mtrbp_on_edgeless_graph(self):
        stream, _ = generate_synthetic(2, 6, 300, 0.5, 0.2, seed=12)
        g = TaskGraph.edgeless(2)
        battery = make_learner(cfg("perceptron_battery", g), stream.d)
        rbp = make_learner(cfg("mtrbp", g, budget=10 ** 6), stream.d)
        for e in stream_examples(stream):
            a, b = battery.step(*e), rbp.step(*e)
            assert a.mistake == b.mistake
            assert a.score == pytest.approx(b.score, abs=1e-9)

    @staticmethod
    def check_against_brute_force(spec, d, dense_every=0, n=240, k=3, nnz=30):
        """Each score is the sum of y * base_kernel over the task's earlier
        mistakes. Rows draw nnz of 200 feature ids spread over 1..d, so
        stored vectors overlap; every `dense_every`-th query is dense."""
        rng = np.random.default_rng(21)
        pool = rng.choice(d, 200, replace=False) + 1
        learner = make_learner(cfg("perceptron_battery", TaskGraph.edgeless(k),
                                   kernel=spec), d)
        made = [[] for _ in range(k)]
        for i in range(n):
            x = SparseVector(np.sort(rng.choice(pool, nnz, replace=False)),
                             rng.random(nnz))
            inst, y = MultitaskInstance(x, i % k + 1), int(rng.choice((-1, 1)))
            (query, _), = labelled([inst], [y], d, spec)
            assert query.idx is not None
            if dense_every and i % dense_every == 0:
                query = dense_of(query, d, spec)
            want = sum(yj * base_kernel(xj, x, spec) for xj, yj in made[i % k])
            out = learner.step(query, y)
            assert abs(out.score - want) <= 1e-9
            if abs(want) > 1e-9:
                assert out.mistake == (y * want <= 0)
            if out.mistake:
                made[i % k].append((x, y))
        assert learner.mistakes == learner.active_size == sum(map(len, made))
        assert min(map(len, made)) >= 10

    @pytest.mark.parametrize("kernel", ["linear:norm", "poly:2:1:norm", "gauss:0.5"])
    def test_sparse_high_dimensional_matches_brute_force(self, kernel):
        self.check_against_brute_force(KernelSpec.parse(kernel), 10 ** 6)

    def test_sparse_and_dense_queries_in_one_battery(self):
        self.check_against_brute_force(SPEC, 3000, dense_every=3)


@pytest.mark.filterwarnings("ignore:mtforg mistake bound")
@pytest.mark.parametrize("algo", ALGORITHMS)
def test_step_outcomes_are_whole_step_outcome_tuples(algo):
    """The learners build their StepOutcomes without the class constructor,
    which checks the field count; each must still be the tuple that
    constructor builds."""
    rng = np.random.default_rng(21)
    learner = make_learner(cfg(algo, TaskGraph.complete(3), budget=6), 8)
    actions = set()
    for e in rand_examples(rng, 120):
        out = learner.step(*e)
        assert type(out) is StepOutcome and len(out) == len(StepOutcome._fields) == 4
        assert out == StepOutcome(out.prediction, out.score, out.mistake, out.action)
        assert out.prediction in (-1, 1) and isinstance(out.score, float)
        assert type(out.mistake) is bool and out.mistake == (e[1] * out.score <= 0)
        actions.add(out.action)
    assert "none" in actions and len(actions) > 1


class TestBudgetRespected:
    @pytest.mark.parametrize("algo", ["mtbprj", "mtbprj2", "mtrbp", "mtforg"])
    @pytest.mark.parametrize("budget", [5, 20])
    @pytest.mark.filterwarnings("ignore:mtforg mistake bound")
    def test_size_cap(self, algo, budget):
        rng = np.random.default_rng(13)
        learner = make_learner(cfg(algo, TaskGraph.complete(3), budget=budget), 10)
        for e in rand_examples(rng, 500, d=10):
            learner.step(*e)
            assert len(learner.active_set) <= budget


class TestSingleTaskReduction:
    """k = 1 collapses the multitask kernel to the base kernel; each learner
    must match an independently coded single-task ancestor."""

    def _stream(self, n=300, d=6, seed=14):
        stream, _ = generate_synthetic(1, d, n, 1.0, 0.2, seed=seed)
        return stream

    def test_mtrbp_matches_scalar_rbp(self):
        stream = self._stream()
        learner = make_learner(cfg("mtrbp", TaskGraph.edgeless(1), budget=7,
                                   seed=3), stream.d)
        rng = np.random.default_rng(3)
        X, w = [], []
        for inst, (query, y) in zip(stream.instances, stream_examples(stream)):
            x = inst.x.to_dense(stream.d)
            x = x / np.linalg.norm(x)
            score = sum(wi * float(xi @ x) for wi, xi in zip(w, X))
            if y * score <= 0:
                if len(X) >= 7:
                    r = int(rng.integers(7))
                    del X[r], w[r]
                X.append(x)
                w.append(y)
            got = learner.step(query, y)
            assert got.score == pytest.approx(score, abs=1e-9)

    def test_mtbprj_matches_scalar_budget_projectron(self):
        stream = self._stream(seed=15)
        eta = 0.3
        learner = make_learner(cfg("mtbprj", TaskGraph.edgeless(1), budget=5,
                                   eta=eta), stream.d)
        X, beta = [], []
        for inst, (query, y) in zip(stream.instances, stream_examples(stream)):
            x = inst.x.to_dense(stream.d)
            x = x / np.linalg.norm(x)
            kv = np.array([float(xi @ x) for xi in X])
            score = float(np.dot(beta, kv)) if X else 0.0
            assert learner.step(query, y).score == pytest.approx(score, abs=1e-6)
            if y * score <= 0:
                if X:
                    G = np.array([[float(a @ b) for b in X] for a in X])
                    al = np.linalg.solve(G, kv)
                    resid = math.sqrt(max(1.0 - kv @ al, 0.0))
                else:
                    al, resid = np.zeros(0), 1.0
                if resid <= eta:
                    beta = list(np.array(beta) + y * al)
                elif len(X) < 5:
                    X.append(x)
                    beta.append(y)
                else:
                    cand = X + [x]
                    cb = beta + [y]
                    G = np.array([[float(a @ b) for b in cand] for a in cand])
                    loo = []
                    for j in range(5):
                        idx = [i for i in range(6) if i != j]
                        sub, col = G[np.ix_(idx, idx)], G[idx, j]
                        loo.append(math.sqrt(max(
                            G[j, j] - col @ np.linalg.solve(sub, col), 0.0)))
                    r = int(np.argmin(np.abs(np.array(beta)) * np.array(loo)))
                    idx = [i for i in range(6) if i != r]
                    sub, col = G[np.ix_(idx, idx)], G[idx, r]
                    gam = np.linalg.solve(sub, col)
                    br = cb[r]
                    X = [cand[i] for i in idx]
                    cb = [cb[i] for i in idx]
                    beta = list(np.array(cb) + br * gam)

    @pytest.mark.filterwarnings("ignore:mtforg mistake bound")
    def test_mtforg_matches_scalar_forgetron(self):
        stream = self._stream(seed=16)
        B = 6
        learner = make_learner(cfg("mtforg", TaskGraph.edgeless(1), budget=B),
                               stream.d)
        X, w, labels = [], [], []
        Q, M = 0.0, 0
        for inst, (query, y) in zip(stream.instances, stream_examples(stream)):
            x = inst.x.to_dense(stream.d)
            x = x / np.linalg.norm(x)
            score = sum(wi * float(xi @ x) for wi, xi in zip(w, X))
            assert learner.step(query, y).score == pytest.approx(score, abs=1e-9)
            if y * score <= 0:
                M += 1
                if len(X) < B:
                    X.append(x)
                    w.append(y)
                    labels.append(y)
                else:
                    br, yr = w[0], labels[0]
                    fr = sum(wi * float(xi @ X[0]) for wi, xi in zip(w, X))
                    a = br ** 2 - 2 * br ** 2 * yr * fr  # cG = 1 at k = 1
                    b = 2 * br * yr
                    phi = grid_phi(a, b, DEFICIT_FRAC * M - Q)
                    X = X[1:] + [x]
                    w = w[1:] + [y]
                    labels = labels[1:] + [y]
                    # learner's closed form within grid resolution
                    got_w = entry_weights(learner.active_set)
                    ratio = got_w[-1] / y
                    assert abs(ratio - phi) <= 2e-4
                    w = [wi * ratio for wi in w]
                    Q += a * ratio ** 2 + b * ratio


class TestBounds:
    def test_mtrbp_reference_value(self):
        assert mtrbp_bound(0.0, 0.5, 0.0, 100, 0.5) == pytest.approx(587.66, abs=0.01)

    def test_mtrbp_small_epsilon_limit(self):
        assert mtrbp_bound(42.0, 0.5, 0.0, 100, 1e-12) == pytest.approx(42.0, abs=1e-6)

    def test_mtrbp_monotone_in_budget(self):
        vals = [mtrbp_bound(0.0, 0.5, 0.0, B, 0.3) for B in (10, 50, 100, 500)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_mtrbp_domain(self):
        for eps in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(DomainError):
                mtrbp_bound(0.0, 0.5, 0.0, 100, eps)
        with pytest.warns(UserWarning):
            mtrbp_bound(0.0, 0.5, 0.0, 2, 0.5)

    def test_mtforg_reference_values(self):
        assert mtforg_bound(0.0, 100) == pytest.approx(10.94, abs=0.01)
        assert mtforg_bound(5.0, 100) == pytest.approx(30.94, abs=0.01)

    def test_mtforg_domain(self):
        with pytest.raises(DomainError):
            mtforg_bound(0.0, 83)

    @pytest.mark.parametrize("loss, cG, shift, message", [
        (float("nan"), 0.5, 0.0, "cumulative loss must be finite"),
        (float("inf"), 0.5, 0.0, "cumulative loss must be finite"),
        (-1.0, 0.5, 0.0, "cumulative loss must be finite and >= 0"),
        (0.0, 0.5, float("nan"), "shift must be finite"),
        (0.0, 0.5, -0.5, "shift must be finite and >= 0"),
        (0.0, float("nan"), 0.0, r"cG must lie in \(0,1\]"),
        (0.0, 0.0, 0.0, r"cG must lie in \(0,1\]"),
        (0.0, 1.5, 0.0, r"cG must lie in \(0,1\]"),
    ])
    def test_mtrbp_rejects_arguments_outside_the_domain(self, loss, cG, shift, message):
        with pytest.raises(DomainError, match=message):
            mtrbp_bound(loss, cG, shift, 100, 0.5)

    def test_mtrbp_accepts_cg_of_an_isolated_task(self):
        assert math.isfinite(mtrbp_bound(0.0, 1.0, 0.0, 100, 0.5))

    @pytest.mark.parametrize("loss", [float("nan"), float("inf"), -1.0])
    def test_mtforg_rejects_a_bad_loss(self, loss):
        with pytest.raises(DomainError, match="cumulative loss must be finite"):
            mtforg_bound(loss, 100)
