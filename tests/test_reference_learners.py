"""Naive O(n^2) reference learners at k = 3, written from the update rules
of the Projectron (Orabona, Keshet & Caputo, 2009) for mtbprj and mtbprj2,
the randomized budget Perceptron (Cavallanti, Cesa-Bianchi & Gentile, 2007)
for mtrbp and the Forgetron (Dekel, Shalev-Shwartz & Singer, 2008) for
mtforg, each under the graph-coupled multitask kernel.

A reference keeps plain lists of unit vectors, tasks and weights, oldest
first. Tasks are coupled by M = (I + L)^-1, inverted here from the graph's
edge list, and every projection and leave-one-out residual solves the
explicit Gram matrix. On small streams that evict, the package's learners
must make the same mistakes and hold the same weights after every step.
"""

import math

import numpy as np
import pytest

from mtbudget.data import generate_synthetic
from mtbudget.graph import TaskGraph
from mtbudget.kernels import KernelSpec
from mtbudget.learners import LearnerConfig, compute_phi, make_learner
from support import entry_weights, interaction_of, labelled

SPEC = KernelSpec("linear", normalize=True)
K, D, N, BUDGET = 3, 12, 300, 8
WEIGHT_TOL = 1e-8


def without(seq, r):
    return seq[:r] + seq[r + 1:]


class Reference:
    """The shared state: support vectors, their tasks and weights."""

    multitask = True     # kernel M[s, t] <x, x'>; else <x, x'>, weights per task

    def __init__(self, graph, seed, eta):
        self.eta = eta
        self.M = np.linalg.inv(interaction_of(graph))
        self.cG = math.sqrt(max(np.diag(self.M)))
        self.rng = np.random.default_rng(seed)
        self.X, self.T, self.W = [], [], []
        self.mistakes = 0

    def kernel(self, a, s, b, t):
        base = float(a @ b)
        return self.M[s - 1, t - 1] * base if self.multitask else base

    def gram(self):
        return np.array([[self.kernel(a, s, b, t) for b, t in zip(self.X, self.T)]
                         for a, s in zip(self.X, self.T)])

    def score(self, x, t):
        if self.multitask:
            return sum(w * self.kernel(xj, tj, x, t)
                       for xj, tj, w in zip(self.X, self.T, self.W))
        return sum(w[t - 1] * float(xj @ x) for xj, w in zip(self.X, self.W))

    def step(self, x, t, y):
        score = self.score(x, t)
        mistake = y * score <= 0
        if mistake:
            self.mistakes += 1
            self.update(x, t, y)
        return mistake

    def append(self, x, t, w):
        self.X.append(x)
        self.T.append(t)
        self.W.append(w)

    def remove(self, r):
        self.X, self.T, self.W = without(self.X, r), without(self.T, r), without(self.W, r)

    def weights(self):
        if self.multitask:
            return np.array(self.W, dtype=float)
        return np.array(self.W, dtype=float).reshape(-1, K).T


class Projectron(Reference):
    """mtbprj: project onto the span when the residual is within eta, else
    insert; over budget, drop the entry whose removal, back-projected onto
    the others, costs least (|weight| times its leave-one-out residual)."""

    def fresh(self, t, y):
        return y

    def damage(self, w, loo):
        return abs(w) * loo

    def back(self, w_r, gamma, t):
        return gamma * w_r

    def update(self, x, t, y):
        k_qq = self.kernel(x, t, x, t)
        if self.X:
            c = np.array([self.kernel(xj, tj, x, t) for xj, tj in zip(self.X, self.T)])
            alpha = np.linalg.solve(self.gram(), c)
            resid = math.sqrt(max(k_qq - c @ alpha, 0.0))
        else:
            alpha, resid = [], math.sqrt(k_qq)
        w_new = self.fresh(t, y)
        if resid <= self.eta:
            self.W = [w + a * w_new for w, a in zip(self.W, alpha)]
            return
        self.append(x, t, w_new)
        if len(self.X) <= BUDGET:
            return
        G = self.gram()
        damage = []
        for j in range(BUDGET):     # the newcomer is never the evictee
            o = without(list(range(BUDGET + 1)), j)
            g = G[o, j]
            loo = math.sqrt(max(G[j, j] - g @ np.linalg.solve(G[np.ix_(o, o)], g), 0.0))
            damage.append(self.damage(self.W[j], loo))
        r = int(np.argmin(damage))
        o = without(list(range(BUDGET + 1)), r)
        gamma = np.linalg.solve(G[np.ix_(o, o)], G[o, r])
        w_r = self.W[r]
        self.remove(r)
        self.W = [w + self.back(w_r, g, tj) for w, g, tj in zip(self.W, gamma, self.T)]


class Projectron2(Projectron):
    """mtbprj2: the Projectron on the task-blind kernel, with one weight
    per task per entry. A fresh entry of task t weighs y M[:, t], and the
    evictee's weights flow back to a survivor of task t_j through M[:, t_j]."""

    multitask = False

    def fresh(self, t, y):
        return y * self.M[:, t - 1]

    def damage(self, w, loo):
        return float(np.linalg.norm(w)) * loo

    def back(self, w_r, gamma, t):
        return np.array([gamma * w_r[s] * self.M[s, t - 1] for s in range(K)])


class RandomizedPerceptron(Reference):
    """mtrbp: a Perceptron insert; at full budget, first drop an entry drawn
    uniformly from default_rng(seed)."""

    def update(self, x, t, y):
        if len(self.X) >= BUDGET:
            self.remove(int(self.rng.integers(len(self.X))))
        self.append(x, t, y)


class Forgetron(Reference):
    """mtforg: a Perceptron insert; at full budget, drop the oldest entry and
    scale every weight by the largest phi the deficit cap allows."""

    def __init__(self, graph, seed, eta):
        super().__init__(graph, seed, eta)
        self.labels = []
        self.deficit = 0.0

    def update(self, x, t, y):
        if len(self.X) >= BUDGET:
            f_r = self.score(self.X[0], self.T[0])
            phi, psi = compute_phi(self.W[0], self.labels[0], f_r, self.deficit,
                                   self.mistakes, self.cG)
            self.remove(0)
            self.labels.pop(0)
            self.append(x, t, y)
            self.labels.append(y)
            self.W = [w * phi for w in self.W]
            self.deficit += psi
            return
        self.append(x, t, y)
        self.labels.append(y)


REFERENCES = {"mtbprj": Projectron, "mtbprj2": Projectron2,
              "mtrbp": RandomizedPerceptron, "mtforg": Forgetron}
# At eta = 0.01 the Projectrons almost never project on these streams; at
# 0.5 they mix projections with evictions. Only they read eta.
CASES = [("mtbprj", 0.01), ("mtbprj", 0.5), ("mtbprj2", 0.01), ("mtbprj2", 0.5),
         ("mtrbp", 0.01), ("mtforg", 0.01)]


@pytest.mark.filterwarnings("ignore:mtforg mistake bound")
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("graph", ["complete", "path"])
@pytest.mark.parametrize("algo, eta", CASES)
def test_learner_matches_naive_reference(algo, eta, graph, seed):
    g = TaskGraph.complete(K) if graph == "complete" else TaskGraph.path(K)
    stream, _ = generate_synthetic(K, D, N, 0.5, 0.1, seed=seed)
    learner = make_learner(LearnerConfig(algo, g, budget=BUDGET, eta=eta,
                                         kernel=SPEC, seed=seed), D)
    ref = REFERENCES[algo](g, seed, eta)
    actions = []
    for inst, (query, y) in zip(stream.instances, labelled(stream.instances,
                                                           stream.labels, D, SPEC)):
        x = inst.x.to_dense(D)
        out = learner.step(query, y)
        assert out.mistake == ref.step(x / np.linalg.norm(x), inst.task, y)
        actions.append(out.action)
        got = entry_weights(learner.active_set)
        want = ref.weights()
        assert got.shape == want.shape
        assert np.max(np.abs(got - want), initial=0.0) <= WEIGHT_TOL
    assert learner.mistakes == ref.mistakes
    assert any(a.startswith("insert_evict") for a in actions)
    if eta == 0.5:
        assert "weight_update_projection" in actions
