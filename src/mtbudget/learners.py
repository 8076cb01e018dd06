"""The four budget multitask learners, the Perceptron battery baseline
and the mistake-bound calculators.

Every learner exposes `step(example) -> StepOutcome`: predict with the
current expansion, then update only when the signed score is a mistake
(y * score <= 0). The emitted prediction at score exactly 0 is +1 but
the update still fires.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .active_set import ActiveSet
from .errors import DomainError, NoFeasibleShrink
from .graph import TaskGraph, build_interaction_model
from .kernels import (KernelSpec, MultitaskExample, MultitaskInstance,
                      dense_kernel_vector, make_queries)

ALGORITHMS = ("mtbprj", "mtbprj2", "mtrbp", "mtforg", "perceptron_battery")

# Deficit cap multiplier of the shrinking learner: Q <= DEFICIT_FRAC * cG^2 * M.
DEFICIT_FRAC = 15.0 / 32.0
FORGETRON_MIN_BUDGET = 83


@dataclass(frozen=True)
class LearnerConfig:
    algorithm: str
    graph: TaskGraph
    budget: int = 100
    eta: float = 0.01
    kernel: KernelSpec = field(default_factory=lambda: KernelSpec("linear", normalize=True))
    seed: int = 0

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError("unknown algorithm %r" % self.algorithm)
        if self.budget < 1:
            raise ValueError("budget must be positive")
        if self.eta < 0 and self.algorithm in ("mtbprj", "mtbprj2"):
            raise ValueError("eta must be positive")
        if self.algorithm == "mtforg" and self.budget <= FORGETRON_MIN_BUDGET:
            warnings.warn("mtforg mistake bound needs B > %d (got B=%d)"
                          % (FORGETRON_MIN_BUDGET, self.budget))


@dataclass(frozen=True)
class StepOutcome:
    prediction: int
    score: float
    mistake: bool
    action: str


class _KernelLearner:
    """Common state: interaction model, active set, mistake counter."""

    kernel_mode = "multitask"
    maintain_inverse = True

    def __init__(self, config: LearnerConfig, dim: int):
        if not config.kernel.normalize and config.kernel.kind != "gaussian":
            raise ValueError("learners require a normalized kernel spec")
        self.config = config
        self.model = build_interaction_model(config.graph)
        self.active_set = ActiveSet(config.budget, dim, config.kernel,
                                    self.model, kernel_mode=self.kernel_mode,
                                    maintain_inverse=self.maintain_inverse)
        self.mistakes = 0

    def predict_score(self, inst: MultitaskInstance, query=None) -> float:
        return self.active_set.predict(inst, query)

    def step(self, example: MultitaskExample, query=None) -> StepOutcome:
        """One trial; `query` optionally carries the example's kernels.Query,
        which the streaming harness builds once per example."""
        inst, y = example.instance, example.label
        if query is None:
            query = make_queries([inst], self.active_set.dim, self.config.kernel)[0]
        score = self.predict_score(inst, query)
        mistake = y * score <= 0
        action = "none"
        if mistake:
            self.mistakes += 1
            action = self._update(inst, y, score, query)
        return StepOutcome(prediction=1 if score >= 0 else -1,
                           score=score, mistake=mistake, action=action)

    def _update(self, inst, y, score, query):
        raise NotImplementedError


class MTBudgetProjectron(_KernelLearner):
    """Projection-based budget learner under the multitask kernel."""

    def _update(self, inst, y, score, query):
        s = self.active_set
        alphas, resid = s.projection(inst, query)
        if resid <= self.config.eta:
            s.weights[:] += y * alphas
            return "weight_update_projection"
        if len(s) < s.budget:
            s.insert(inst, y, query=query)
            return "insert"
        s.insert(inst, y, force=True, query=query)
        beta = s.weights
        loo = s.leave_one_out_residuals()
        damage = np.abs(beta[:-1]) * loo[:-1]  # pre-existing entries only
        r = int(np.argmin(damage))
        beta_r = float(beta[r])
        gammas = s.evict(r)
        s.weights[:] += beta_r * gammas
        return "insert_evict"


class MTBudgetProjectron2(_KernelLearner):
    """Variant with per-task weight rows and task-blind projections."""

    kernel_mode = "single"

    def _update(self, inst, y, score, query):
        s = self.active_set
        Mi = self.model.inverse
        col = y * Mi[:, inst.task - 1]  # weight column of a fresh insert
        alphas, resid = s.projection(inst, query)
        if resid <= self.config.eta:
            s.weights[:] += np.outer(col, alphas)
            return "weight_update_projection"
        if len(s) < s.budget:
            s.insert(inst, col, query=query)
            return "insert"
        s.insert(inst, col, force=True, query=query)
        W = s.weights
        loo = s.leave_one_out_residuals()
        damage = loo[:-1] * np.linalg.norm(W[:, :-1], axis=0)
        r = int(np.argmin(damage))
        w_r = W[:, r].copy()
        gammas = s.evict(r)
        W = s.weights
        W += gammas[None, :] * w_r[:, None] * Mi[:, s.tasks - 1]
        return "insert_evict"


class MTRandomizedBudgetPerceptron(_KernelLearner):
    """Perceptron updates with uniform random eviction at full budget."""

    maintain_inverse = False

    def __init__(self, config, dim):
        super().__init__(config, dim)
        self.rng = np.random.default_rng(config.seed)

    def _update(self, inst, y, score, query):
        s = self.active_set
        if len(s) < s.budget:
            s.insert(inst, y, query=query)
            return "insert"
        r = int(self.rng.integers(len(s)))
        s.evict(r)
        s.insert(inst, y, query=query)
        return "insert_evict"


class MTForgetron(_KernelLearner):
    """Oldest-first eviction plus the self-tuned shrinking step."""

    maintain_inverse = False

    def __init__(self, config, dim):
        super().__init__(config, dim)
        self.deficit = 0.0
        self._labels = []

    def _update(self, inst, y, score, query):
        s = self.active_set
        if len(s) < s.budget:
            s.insert(inst, y, query=query)
            self._labels.append(y)
            return "insert"
        r = s.oldest()
        beta_r = float(s.weights[r])
        y_r = self._labels[r]
        # pre-update prediction on the evictee, from its stored query
        f_r = s.predict(s.instance(r), s.query(r))
        s.insert(inst, y, force=True, query=query)
        self._labels.append(y)
        s.evict(r)
        del self._labels[r]
        phi, psi = compute_phi(beta_r, y_r, f_r, self.deficit,
                               self.mistakes, self.model.cG)
        s.weights[:] *= phi
        self.deficit += psi
        return "insert_evict_shrink"


class PerceptronBattery:
    """k independent kernel Perceptrons, no budget; the baseline yardstick."""

    def __init__(self, config: LearnerConfig, dim: int):
        if not config.kernel.normalize and config.kernel.kind != "gaussian":
            raise ValueError("learners require a normalized kernel spec")
        self.config = config
        self.spec = config.kernel
        self.dim = dim
        self.k = config.graph.k
        self._X = [np.zeros((0, dim)) for _ in range(self.k)]
        self._w = [np.zeros(0) for _ in range(self.k)]
        self._self_raw = [np.zeros(0) for _ in range(self.k)]
        self._sq = [np.zeros(0) for _ in range(self.k)]
        self._count = [0 for _ in range(self.k)]
        self.mistakes = 0

    def predict_score(self, inst: MultitaskInstance, query=None) -> float:
        t = inst.task - 1
        n = self._count[t]
        if n == 0:
            return 0.0
        if query is None:
            query = make_queries([inst], self.dim, self.spec)[0]
        X = self._X[t][:n] if query.idx is None else self._X[t][:n, query.idx]
        base = dense_kernel_vector(X, self._self_raw[t][:n], self._sq[t][:n],
                                   query.x, query.self_raw, query.sq, self.spec)
        return float(np.dot(self._w[t][:n], base))

    def step(self, example: MultitaskExample, query=None) -> StepOutcome:
        inst, y = example.instance, example.label
        if query is None:
            query = make_queries([inst], self.dim, self.spec)[0]
        score = self.predict_score(inst, query)
        mistake = y * score <= 0
        action = "none"
        if mistake:
            self.mistakes += 1
            self._append(inst, y, query)
            action = "insert"
        return StepOutcome(prediction=1 if score >= 0 else -1,
                           score=score, mistake=mistake, action=action)

    def _append(self, inst, y, query):
        t = inst.task - 1
        n = self._count[t]
        if n >= self._X[t].shape[0]:
            new_cap = max(16, 2 * self._X[t].shape[0])
            for store, blank in ((self._X, np.zeros((new_cap, self.dim))),
                                 (self._w, np.zeros(new_cap)),
                                 (self._self_raw, np.zeros(new_cap)),
                                 (self._sq, np.zeros(new_cap))):
                blank[:n] = store[t][:n]
                store[t] = blank
        # Row-major, unlike ActiveSet's store: the battery grows by doubling,
        # and copying a feature-major store touches every page of the new
        # d x 2n array, which cost more than the faster gather saved.
        if query.idx is None:
            self._X[t][n] = query.x
        else:
            self._X[t][n, query.idx] = query.x
        self._w[t][n] = y
        self._self_raw[t][n] = query.self_raw
        self._sq[t][n] = query.sq
        self._count[t] = n + 1

    @property
    def active_size(self):
        return sum(self._count)


def make_learner(config: LearnerConfig, dim: int):
    cls = {"mtbprj": MTBudgetProjectron,
           "mtbprj2": MTBudgetProjectron2,
           "mtrbp": MTRandomizedBudgetPerceptron,
           "mtforg": MTForgetron,
           "perceptron_battery": PerceptronBattery}[config.algorithm]
    return cls(config, dim)


def shrink_penalty(cG: float, lam: float, mu: float) -> float:
    """Deficit increment of one shrinking step: cG^2 l^2 + 2 cG l - 2 l mu."""
    return cG * cG * lam * lam + 2.0 * cG * lam - 2.0 * lam * mu


def compute_phi(beta_r, y_r, f_r, deficit, mistakes, cG):
    """Largest chi in (0, 1] keeping the shrink penalty within the deficit cap.

    With lam = beta_r * y_r * chi and mu = beta_r * chi * f_r the constraint
    is the quadratic a chi^2 + b chi <= C where
      a = cG^2 beta_r^2 - 2 beta_r^2 y_r f_r,
      b = 2 cG beta_r y_r,
      C = DEFICIT_FRAC * cG^2 * mistakes - deficit.
    Returns (phi, penalty-at-phi).
    """
    a = cG * cG * beta_r * beta_r - 2.0 * beta_r * beta_r * y_r * f_r
    b = 2.0 * cG * beta_r * y_r
    cap = DEFICIT_FRAC * cG * cG * mistakes
    C = cap - deficit
    if a + b <= C:
        phi = 1.0
    elif a == 0.0:
        phi = C / b if b > 0 else 1.0
    else:
        disc = b * b + 4.0 * a * C
        if disc < 0.0:
            raise NoFeasibleShrink("no chi in (0,1] satisfies the deficit cap")
        # For a > 0 this root is the upper end of the feasible interval; for
        # a < 0 it is the smaller root, and the interval lies below it.
        phi = min((-b + math.sqrt(disc)) / (2.0 * a), 1.0)
    if phi <= 0.0:
        raise NoFeasibleShrink("feasible chi interval does not reach (0,1]")
    # Guard the invariant deficit + penalty <= cap against rounding in the
    # closed-form root.
    for _ in range(64):
        if deficit + (a * phi * phi + b * phi) <= cap:
            break
        phi *= 1.0 - 1e-12
    else:
        raise NoFeasibleShrink("could not certify the deficit cap")
    return phi, a * phi * phi + b * phi


def mtrbp_bound(cum_loss, cG, shift, B, epsilon):
    """Expected-mistake bound of the randomized-eviction learner."""
    if not 0.0 < epsilon < 1.0:
        raise DomainError("epsilon must lie in (0,1), got %r" % epsilon)
    if B < 1:
        raise DomainError("budget must be positive, got %r" % B)
    if B <= 3:
        warnings.warn("log term is nonpositive for B <= 3")
    return (cum_loss + cG * shift * math.sqrt(B)
            + epsilon * B ** 1.5 / 2.0
            + epsilon * B / 4.0 * math.log(B / 3.0)) / (1.0 - epsilon)


def mtforg_bound(cum_loss, B):
    """Deterministic mistake bound of the shrinking learner (B > 83)."""
    if B <= FORGETRON_MIN_BUDGET:
        raise DomainError("bound needs B > %d, got %r" % (FORGETRON_MIN_BUDGET, B))
    return 4.0 * cum_loss + (B + 1.0) / (2.0 * math.log(B + 1.0))
