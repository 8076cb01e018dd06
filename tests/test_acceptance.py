"""Top-level acceptance checks, one test class per numbered criterion.

Each criterion is exercised end to end at its stated tolerance; nothing in
here may depend on the other test modules (the helpers of `support.py` build
queries only).
"""

import json
import math
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import mtbudget
from mtbudget.data import generate_synthetic, shift_term
from mtbudget.graph import (TaskGraph, build_interaction_model,
                            verify_proposition_3_1)
from mtbudget.harness import baseline_active_size, run_stream
from mtbudget.kernels import KernelSpec, MultitaskInstance, SparseVector, mt_kernel
from mtbudget.learners import (DEFICIT_FRAC, LearnerConfig, compute_phi,
                               make_learner, mtforg_bound, mtrbp_bound)
from support import entry_queries, gram_inv, in_entry_order, instance_of, labelled, query_of

LINEAR = KernelSpec("linear", normalize=True)


def report(criterion, detail):
    print("[criterion %d] PASS — %s" % (criterion, detail))


class TestCriterion1ResistanceIdentity:
    def test_identity_sweep(self):
        start = time.perf_counter()
        rng = np.random.default_rng(0)
        worst = 0.0
        graphs = 0
        for k in range(1, 13):
            for g in (TaskGraph.complete(k), TaskGraph.edgeless(k),
                      TaskGraph.path(k)):
                worst = max(worst, verify_proposition_3_1(g))
                graphs += 1
        while graphs < 236:  # 200 random graphs on top of the 36 families
            k = int(rng.integers(1, 13))
            prob = float(rng.choice((0.2, 0.5, 0.8)))
            edges = [(i, j) for i in range(1, k + 1)
                     for j in range(i + 1, k + 1) if rng.random() < prob]
            worst = max(worst,
                        verify_proposition_3_1(TaskGraph.from_edges(k, edges)))
            graphs += 1
        elapsed = time.perf_counter() - start
        assert worst <= 1e-9
        assert elapsed < 5.0
        report(1, "max identity error %.2e over %d graphs in %.2fs"
               % (worst, graphs, elapsed))


class TestCriterion2InteractionNormExtremes:
    def test_complete_family(self):
        worst = 0.0
        for k in range(1, 51):
            cG = build_interaction_model(TaskGraph.complete(k)).cG
            worst = max(worst, abs(cG - math.sqrt(2.0 / (k + 1))))
        assert worst <= 1e-12
        report(2, "complete-graph cG error %.2e over k=1..50" % worst)

    def test_isolated_node_maximum(self):
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(30):
            k = int(rng.integers(2, 10))
            # connect everything except node k, which stays isolated
            edges = [(i, j) for i in range(1, k) for j in range(i + 1, k)
                     if rng.random() < 0.6]
            cG = build_interaction_model(TaskGraph.from_edges(k, edges)).cG
            worst = max(worst, abs(cG - 1.0))
        assert worst <= 1e-12
        report(2, "isolated-node cG error %.2e" % worst)


class TestCriterion3ActiveSetOracle:
    def _random_query(self, rng, d, k):
        return query_of(MultitaskInstance(SparseVector.from_dense(rng.normal(size=d)),
                                          int(rng.integers(1, k + 1))), d, LINEAR)

    def _oracle_gram(self, s, model):
        stored = [instance_of(q, LINEAR) for q in entry_queries(s)]
        return np.array([[mt_kernel(a, b, model, LINEAR) for b in stored]
                         for a in stored])

    def test_inverse_after_500_ops(self):
        from mtbudget.active_set import ActiveSet
        rng = np.random.default_rng(2)
        model = build_interaction_model(TaskGraph.complete(3))
        s = ActiveSet(20, 16, LINEAR, model)
        worst = 0.0
        for _ in range(500):
            if len(s) == 20 or (len(s) > 0 and rng.random() < 0.3):
                s.evict(int(rng.integers(len(s))))
            else:
                q = self._random_query(rng, 16, 3)
                s.insert(q, float(rng.normal()))
            if len(s):
                G = self._oracle_gram(s, model)
                worst = max(worst,
                            float(np.max(np.abs(gram_inv(s) @ G - np.eye(len(s))))))
        assert worst <= 1e-6
        report(3, "inverse drift %.2e over 500 ops at B=20" % worst)

    def test_loo_and_downdate_brute_force(self):
        from mtbudget.active_set import ActiveSet
        rng = np.random.default_rng(3)
        model = build_interaction_model(TaskGraph.complete(3))
        worst = 0.0
        for trial in range(20):
            n = int(rng.integers(2, 11))
            s = ActiveSet(10, 12, LINEAR, model)
            for _ in range(n):
                s.insert(self._random_query(rng, 12, 3),
                         float(rng.normal()))
            G = self._oracle_gram(s, model)
            loo = in_entry_order(s, s.leave_one_out_residuals())
            for j in range(n):
                idx = [i for i in range(n) if i != j]
                if idx:
                    sub, col = G[np.ix_(idx, idx)], G[idx, j]
                    gam_ref = np.linalg.solve(sub, col)
                    ref = math.sqrt(max(G[j, j] - col @ gam_ref, 0.0))
                else:
                    gam_ref, ref = np.zeros(0), math.sqrt(G[j, j])
                worst = max(worst, abs(loo[j] - ref))
            r = int(rng.integers(n))
            idx = [i for i in range(n) if i != r]
            gammas = in_entry_order(s, s.evict(r))
            if idx:
                sub, col = G[np.ix_(idx, idx)], G[idx, r]
                worst = max(worst, float(np.max(np.abs(
                    gammas - np.linalg.solve(sub, col)))))
        assert worst <= 1e-6
        report(3, "leave-one-out / downdate error %.2e" % worst)


class TestCriterion4PerceptronReduction:
    def test_unbudgeted_reduction(self):
        start = time.perf_counter()
        stream, _ = generate_synthetic(3, 10, 2000, 0.7, 0.1, seed=11)
        graph = TaskGraph.complete(3)
        M = build_interaction_model(graph).inverse
        # independent unbudgeted multitask kernel Perceptron
        X = np.zeros((0, 10))
        betas, tasks = [], []
        oracle_mistakes = []
        for t, (inst, y) in enumerate(zip(stream.instances, stream.labels)):
            x = inst.x.to_dense(10)
            if len(betas):
                kv = (X @ x) * M[np.array(tasks) - 1, inst.task - 1]
                score = float(np.dot(betas, kv))
            else:
                score = 0.0
            if y * score <= 0:
                oracle_mistakes.append(t)
                X = np.vstack([X, x])
                betas.append(y)
                tasks.append(inst.task)
        examples = labelled(stream.instances, stream.labels, stream.d, LINEAR)
        for algo in ("mtrbp", "mtforg"):
            learner = make_learner(LearnerConfig(algo, graph, budget=10 ** 6,
                                                 kernel=LINEAR), 10)
            got = [t for t, e in enumerate(examples)
                   if learner.step(*e).mistake]
            assert got == oracle_mistakes, algo
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        report(4, "%d identical mistakes for mtrbp/mtforg in %.2fs"
               % (len(oracle_mistakes), elapsed))


class TestCriterion5DeficitInvariant:
    def test_invariant_over_1e5_steps(self):
        rng = np.random.default_rng(4)
        total = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for run, (k, budget, n) in enumerate(
                    [(2, 30, 25000), (3, 50, 25000),
                     (5, 40, 25000), (8, 60, 25000)]):
                edges = [(i, j) for i in range(1, k + 1)
                         for j in range(i + 1, k + 1) if rng.random() < 0.5]
                graph = TaskGraph.from_edges(k, edges)
                stream, _ = generate_synthetic(k, 10, n, 0.6, 0.3, seed=run)
                learner = make_learner(LearnerConfig("mtforg", graph,
                                                     budget=budget,
                                                     kernel=LINEAR), 10)
                cG = learner.model.cG
                for e in labelled(stream.instances, stream.labels, stream.d,
                                  LINEAR):
                    learner.step(*e)
                    total += 1
                    assert (learner.deficit
                            <= DEFICIT_FRAC * cG * cG * learner.mistakes)
        assert total >= 10 ** 5
        report(5, "deficit cap held after each of %d steps" % total)


class TestCriterion6ShrinkFactorClosedForm:
    def test_against_grid_search(self):
        rng = np.random.default_rng(5)
        chis = np.arange(1e-4, 1.0 + 1e-12, 1e-4)
        worst = 0.0
        states = 0
        while states < 10 ** 4:
            cG = rng.uniform(0.2, 1.0)
            beta_r = rng.normal()
            y_r = int(rng.choice((-1, 1)))
            f_r = rng.normal()
            M = int(rng.integers(1, 100))
            cap = DEFICIT_FRAC * cG * cG * M
            Q = rng.uniform(0.0, cap)
            a = cG * cG * beta_r * beta_r - 2.0 * beta_r * beta_r * y_r * f_r
            b = 2.0 * cG * beta_r * y_r
            ok = a * chis ** 2 + b * chis <= (cap - Q) + 1e-12
            if not np.any(ok):
                continue
            grid = float(chis[ok][-1])
            phi, _ = compute_phi(beta_r, y_r, f_r, Q, M, cG)
            worst = max(worst, abs(phi - grid))
            states += 1
        assert worst <= 1e-4
        report(6, "max |closed-form − grid| = %.2e over %d states"
               % (worst, states))


class TestCriterion7MistakeBounds:
    MARGIN = 0.3
    BUDGET = 3000

    def _comparator(self, refs, graph):
        scaled = refs.weights / self.MARGIN
        from mtbudget.data import ReferenceTaskSet
        _, traces = shift_term(ReferenceTaskSet(scaled), graph)
        return traces[0]

    def test_reference_values(self):
        assert mtrbp_bound(0.0, 0.5, 0.0, 100, 0.5) == pytest.approx(587.66,
                                                                     abs=0.01)
        assert mtforg_bound(0.0, 100) == pytest.approx(10.94, abs=0.01)
        report(7, "closed-form reference values match")

    def test_mtforg_bound_holds(self):
        graph = TaskGraph.complete(3)
        cG = build_interaction_model(graph).cG
        stream, refs = generate_synthetic(3, 10, 2000, 0.9, 0.0, seed=0,
                                          min_margin=self.MARGIN)
        trace = self._comparator(refs, graph)
        cap = (1.0 / (4.0 * cG)) * math.sqrt(
            (self.BUDGET + 1) / math.log(self.BUDGET + 1))
        assert math.sqrt(trace) <= cap  # comparator admissible for the bound
        metrics = run_stream(stream, LearnerConfig("mtforg", graph,
                                                   budget=self.BUDGET,
                                                   kernel=LINEAR))
        bound = mtforg_bound(0.0, self.BUDGET)
        assert metrics.mistakes <= bound
        report(7, "mtforg: %d mistakes <= bound %.1f (comparator %.2f <= %.2f)"
               % (metrics.mistakes, bound, math.sqrt(trace), cap))

    def test_mtrbp_bound_holds_on_average(self):
        graph = TaskGraph.complete(3)
        cG = build_interaction_model(graph).cG
        mistakes, bounds = [], []
        for seed in range(50):
            stream, refs = generate_synthetic(3, 10, 2000, 0.9, 0.0,
                                              seed=seed,
                                              min_margin=self.MARGIN)
            trace = self._comparator(refs, graph)
            eps = 2.0 * cG * math.sqrt(trace) / math.sqrt(self.BUDGET)
            assert 0.0 < eps < 1.0
            bounds.append(mtrbp_bound(0.0, cG, 0.0, self.BUDGET, eps))
            metrics = run_stream(stream, LearnerConfig("mtrbp", graph,
                                                       budget=self.BUDGET,
                                                       kernel=LINEAR,
                                                       seed=seed))
            mistakes.append(metrics.mistakes)
        avg_m, avg_b = float(np.mean(mistakes)), float(np.mean(bounds))
        assert avg_m <= 1.1 * avg_b
        report(7, "mtrbp: avg %.1f mistakes <= 1.1 x avg bound %.1f over 50 seeds"
               % (avg_m, avg_b))


ADVANTAGE_FRACS = (0.25, 0.10, 0.05)
ADVANTAGE_ALGOS = ("mtbprj", "mtbprj2", "mtrbp", "mtforg")


@pytest.fixture(scope="module")
def results():
    k, d, n, seeds = 10, 20, 10000, 10
    start = time.perf_counter()
    res = {key: [] for key in
           ((a, f, g) for a in ADVANTAGE_ALGOS for f in ADVANTAGE_FRACS
            for g in ("C", "D"))}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for seed in range(seeds):
            stream, _ = generate_synthetic(k, d, n, 0.9, 0.1, seed=seed)
            base = baseline_active_size(stream, LINEAR)
            for frac in ADVANTAGE_FRACS:
                budget = max(1, int(np.ceil(frac * base)))
                for gname, graph in (("C", TaskGraph.complete(k)),
                                     ("D", TaskGraph.edgeless(k))):
                    for algo in ADVANTAGE_ALGOS:
                        cfg = LearnerConfig(algo, graph, budget=budget,
                                            eta=0.01, kernel=LINEAR,
                                            seed=seed)
                        m = run_stream(stream, cfg)
                        res[(algo, frac, gname)].append(m.f_measure)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(8, "240 runs in %.0fs" % elapsed)
    return res


class TestCriterion8GraphAdvantage:
    FRACS = ADVANTAGE_FRACS
    ALGOS = ADVANTAGE_ALGOS

    def test_connected_graph_never_worse(self, results):
        for algo in self.ALGOS:
            for frac in self.FRACS:
                fc = np.mean(results[(algo, frac, "C")])
                fd = np.mean(results[(algo, frac, "D")])
                assert fc >= fd - 1e-12, (algo, frac)
        report(8, "full graph >= empty graph for every algorithm and budget")

    def test_gap_grows_as_budget_shrinks(self, results):
        for algo in self.ALGOS:
            gaps = [np.mean(results[(algo, f, "C")])
                    - np.mean(results[(algo, f, "D")]) for f in self.FRACS]
            assert gaps[0] <= gaps[1] + 1e-12, algo
            assert gaps[1] <= gaps[2] + 1e-12, algo
        report(8, "graph advantage non-decreasing from 25%% to 5%% budgets")

    def test_projection_algorithms_lead_at_5pct(self, results):
        f = {a: np.array(results[(a, 0.05, "C")]) for a in self.ALGOS}

        def at_least(hi, lo):
            diff = f[hi] - f[lo]
            se = float(np.std(diff, ddof=1) / math.sqrt(len(diff)))
            assert float(np.mean(diff)) >= -se, (hi, lo)

        at_least("mtbprj2", "mtbprj")
        at_least("mtbprj", "mtrbp")
        at_least("mtbprj", "mtforg")
        report(8, "projection variants lead at the 5%% budget within one SE")


class TestCriterion9Determinism:
    def _invoke(self, argv):
        code = ("import sys\n"
                "from mtbudget.cli import main\n"
                "sys.exit(main(%r))\n" % (argv,))
        # the child imports the package this process imported
        root = os.path.dirname(os.path.dirname(mtbudget.__file__))
        path = os.pathsep.join(filter(None, (root, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    @pytest.mark.parametrize("algo", ["mtbprj", "mtbprj2", "mtrbp", "mtforg"])
    def test_byte_identical_json(self, algo):
        argv = ["run", "--algo", algo, "--graph", "complete",
                "--budget", "25%", "--seed", "7",
                "--synth", "k=3,d=10,n=500,rel=0.8,noise=0.1,seed=2"]
        first = self._invoke(argv)
        second = self._invoke(argv)
        assert first == second
        json.loads(first)  # and it is valid JSON
        report(9, "%s rerun byte-identical (%d bytes)" % (algo, len(first)))
