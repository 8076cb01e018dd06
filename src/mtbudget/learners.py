"""The four budget multitask learners, the Perceptron battery baseline
and the mistake-bound calculators.

Every learner exposes `step(query, label) -> StepOutcome`, where the
query is the example's kernels.Query (cut from the run's prepared input
by `Prepared.query` for this step) and the label is -1 or +1: predict
with the current expansion, then update only when the signed score is a
mistake (y * score <= 0). The emitted prediction at score exactly 0 is +1
but the update still fires. Every learner also exposes `mistakes` and
`active_size`, and takes a window of dense rows at once through
`step_window(window)`, which cuts a Query and calls `step` only at the
window's mistakes, all found by one scan (`_scan_window`), and returns
the score each row predicted from and |S| after each row. The active set
keeps the later scores current: by each insert, evict and shrink without
H^-1 (mtrbp, mtforg), and by one re-score per mistake with it.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .active_set import ActiveSet, SlotStore
from .errors import DomainError, NoFeasibleShrink
from .graph import TaskGraph
from .kernels import KernelSpec, Query, dense_kernel_vector, folded_dim, require_normalized

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
        if isinstance(self.budget, bool) or not isinstance(self.budget, numbers.Integral) \
                or self.budget < 1:
            raise ValueError("budget must be a positive integer, got %r" % (self.budget,))
        if not (math.isfinite(self.eta) and self.eta >= 0):
            raise ValueError("eta must be finite and >= 0, got %r" % self.eta)
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer, got %r" % self.seed)
        require_normalized(self.kernel)
        if self.algorithm == "mtforg" and self.budget <= FORGETRON_MIN_BUDGET:
            warnings.warn("mtforg mistake bound needs B > %d (got B=%d)"
                          % (FORGETRON_MIN_BUDGET, self.budget))


class StepOutcome(NamedTuple):
    """What a step did; the learners build it with tuple.__new__, which
    skips NamedTuple's Python-level constructor."""

    prediction: int
    score: float
    mistake: bool
    action: str


def _scan_window(learner, scores, labels, mistake):
    """Call `mistake(row)` at each row of a window, in order, whose label
    its kept score disagrees with (y * score <= 0); `mistake` steps there,
    keeps the later scores current and returns |S| after the step. Returns
    |S| after each row."""
    first = size = learner.active_size
    # |S|'s change by row, made at the first change and summed at the end:
    # a slice write per change, or |S| read through the property, cost the
    # battery and mtrbp 2-4% on a 10-task stream at a 5% budget
    grew, row = None, 0
    while True:
        # the first mistake from `row` on; at a mistake rate near 30% a
        # plain loop is cheaper than array operations
        for row, score in enumerate(scores[row:].tolist(), row):
            if labels[row] * score <= 0:
                break
        else:
            return np.full(len(scores), first) if grew is None else first + grew.cumsum()
        now = mistake(row)
        if now != size:     # at a full budget it seldom is
            if grew is None:
                grew = np.zeros(len(scores), dtype=np.int64)
            grew[row], size = now - size, now
        row += 1


class _KernelLearner:
    """Common state: interaction model, active set, mistake counter."""

    kernel_mode = "multitask"
    keeps = "inverse"   # "inverse": the active set keeps H^-1; None: no B x B matrix

    def __init__(self, config: LearnerConfig, dim: int):
        self.config = config
        self.model = config.graph.model
        self.active_set = ActiveSet(config.budget, dim, config.kernel,
                                    self.model, kernel_mode=self.kernel_mode,
                                    keeps=self.keeps)
        self.mistakes = 0

    @property
    def active_size(self):
        return len(self.active_set)

    def step(self, query: Query, y: int) -> StepOutcome:
        score = self.active_set.predict(query)
        mistake = y * score <= 0
        action = "none"
        if mistake:
            self.mistakes += 1
            action = self._update(query, y)
        return tuple.__new__(StepOutcome,
                             (1 if score >= 0 else -1, score, mistake, action))

    def step_window(self, window):
        """Step through a window of consecutive dense rows, given as their
        kernels.Prepared input. Returns the score each row predicts from
        and |S| after each row. The active set scores the window as one
        kernel block and keeps it current, so only a mistake calls `step`,
        with the row's Query, which reads its score and column there."""
        s, query, labels = self.active_set, window.query, window.labels
        scores = s.open_window(window)
        def mistake(row):
            s.seek(row)
            self.step(query(row), labels[row])
            s.leave()
            return s.n
        return scores, _scan_window(self, scores, labels, mistake)

    def _update(self, query, y):
        raise NotImplementedError


class MTBudgetProjectron(_KernelLearner):
    """Projection-based budget learner under the multitask kernel."""

    def _update(self, query, y):
        s = self.active_set
        alphas, resid = s.projection(query)
        if resid <= self.config.eta:
            s.weights[:] += y * alphas
            return "weight_update_projection"
        if s.n < s.budget:
            s.insert(query, y)
            return "insert"
        s.insert(query, y, force=True)
        # pre-existing entries, oldest first, so ties go to the earliest insert
        pre = s.order[:-1]
        beta = s.weights
        damage = (np.abs(beta) * s.leave_one_out_residuals()).take(pre)
        r = int(damage.argmin())
        beta_r = float(beta[pre[r]])
        gammas = s.evict(r)
        s.weights[:] += beta_r * gammas
        return "insert_evict"


class MTBudgetProjectron2(_KernelLearner):
    """Variant with per-task weight rows and task-blind projections."""

    kernel_mode = "single"

    def _update(self, query, y):
        s = self.active_set
        col = y * self.model.row(query.task)  # weight column of a fresh insert
        alphas, resid = s.projection(query)
        if resid <= self.config.eta:
            s.weights[:] += np.outer(col, alphas)
            return "weight_update_projection"
        if s.n < s.budget:
            s.insert(query, col)
            return "insert"
        s.insert(query, col, force=True)
        pre = s.order[:-1]      # as in mtbprj
        W = s.weights
        damage = (s.leave_one_out_residuals() * np.linalg.norm(W, axis=0)).take(pre)
        r = int(damage.argmin())
        w_r = W[:, pre[r]].copy()
        gammas = s.evict(r)
        W += gammas[None, :] * w_r[:, None] * self.model.columns(s.slot_tasks)
        return "insert_evict"


class MTRandomizedBudgetPerceptron(_KernelLearner):
    """Perceptron updates with uniform random eviction at full budget."""

    keeps = None

    def __init__(self, config, dim):
        super().__init__(config, dim)
        self.rng = np.random.default_rng(config.seed)

    def _update(self, query, y):
        s = self.active_set
        if s.n < s.budget:
            s.insert(query, y)
            return "insert"
        r = int(self.rng.integers(s.n))
        s.evict(r)
        s.insert(query, y)
        return "insert_evict"


class MTForgetron(_KernelLearner):
    """First-in-first-out eviction plus the self-tuned shrinking step.

    `scores[slot]` is the predictor's score on the entry there from itself
    and the entries inserted after it: an insert adds its weight times the
    column its predict computed, and a shrink scales it with the weights.
    Eviction is first in, first out, so the oldest entry's number is its
    whole score, in O(B) memory and with no kernel column.
    """

    keeps = None

    def __init__(self, config, dim):
        super().__init__(config, dim)
        self.deficit = 0.0
        self.scores = np.zeros(16)

    def _update(self, query, y):
        s = self.active_set
        col = s.column(query)
        full = s.n >= s.budget
        if full:    # the evictee's weight and pre-update score
            oldest = s.order[0]
            beta_r, f_r = float(s.weights[oldest]), float(self.scores[oldest])
        slot = s.insert(query, y, force=full)
        if slot == self.scores.size:
            self.scores = np.concatenate((self.scores, np.zeros(slot)))
        self.scores[:col.size] += y * col
        self.scores[slot] = y * s.self_kernel(query)
        if not full:
            return "insert"
        s.evict(0)
        # a weight is its label times shrink factors in (0, 1], so its sign is
        # the label; a weight that underflowed to 0 zeroes every term y_r is in
        y_r = 1.0 if beta_r > 0 else -1.0
        phi, psi = compute_phi(beta_r, y_r, f_r, self.deficit,
                               self.mistakes, self.model.cG)
        s.shrink(phi)
        self.scores *= phi
        self.deficit += psi
        return "insert_evict_shrink"


class PerceptronBattery:
    """k independent kernel Perceptrons, no budget; the baseline yardstick.

    Each task's support vectors fill its own SlotStore in order and are
    never evicted; a dense window costs one product per task (`step_window`).
    """

    def __init__(self, config: LearnerConfig, dim: int):
        self.config = config
        self.spec = config.kernel
        self.k = config.graph.k
        self._stores = [SlotStore(folded_dim(dim, self.spec), 16) for _ in range(self.k)]
        self._w = [np.zeros(16) for _ in range(self.k)]
        self._count = [0] * self.k
        self._kept = None       # the kept score of a window's mistake
        self.mistakes = 0

    def step(self, query: Query, y: int) -> StepOutcome:
        t = query.task
        n = self._count[t]
        score = 0.0 if self._kept is None else self._kept   # kept: a window's mistake
        if n and self._kept is None:
            store = self._stores[t]
            base = dense_kernel_vector(store.block(query.idx, n), store.sq[:n], query.x,
                                       query.sq, self.spec)
            score = float(np.dot(self._w[t][:n], base))
        mistake = y * score <= 0
        action = "none"
        if mistake:
            self.mistakes += 1
            self._append(t, n, query, y)
            action = "insert"
        return tuple.__new__(StepOutcome,
                             (1 if score >= 0 else -1, score, mistake, action))

    def step_window(self, window):
        """`_KernelLearner.step_window` for the battery. Its tasks are
        independent (M = I) and its weights never change after an insert,
        so a mistake at row r only adds y_r times row r's kernels with the
        later rows of its task to their scores."""
        X, sq, tasks, labels = window.X, window.sq, window.tasks, window.labels
        # the window's kernels with one another, within tasks, signed by row
        own = dense_kernel_vector(X.T, sq, X, sq, self.spec)
        own *= (tasks[:, None] == tasks) * np.array(labels, dtype=float)[:, None]
        order = tasks.argsort(kind="stable")    # the rows by task: one product each
        by_task = tasks.take(order)
        cuts = [0, *(np.flatnonzero(np.diff(by_task)) + 1).tolist(), len(order)]
        Xs, sqs, scores = X.take(order, axis=0), sq.take(order), np.zeros(len(order))
        for a, b in zip(cuts, cuts[1:]):
            t = int(by_task[a])
            n, store = self._count[t], self._stores[t]
            if n:
                base = dense_kernel_vector(store.block(None, n), store.sq[:n],
                                           Xs[a:b], sqs[a:b], self.spec)
                scores[order[a:b]] = base @ self._w[t][:n]
        def mistake(row):
            self._kept = scores.item(row)
            self.step(window.query(row), labels[row])
            self._kept = None
            scores[row + 1:] += own[row, row + 1:]
            return self.mistakes
        return scores, _scan_window(self, scores, labels, mistake)

    def _append(self, t, n, query, y):
        store = self._stores[t]
        if n == self._w[t].size:     # the weights share the store's capacity
            store.resize(2 * n)
            self._w[t] = np.concatenate((self._w[t], np.zeros(n)))
        store.write(n, query)
        self._w[t][n] = y
        self._count[t] = n + 1

    @property
    def active_size(self):      # every mistake appends, and none is evicted
        return self.mistakes


def make_learner(config: LearnerConfig, dim: int):
    cls = {"mtbprj": MTBudgetProjectron,
           "mtbprj2": MTBudgetProjectron2,
           "mtrbp": MTRandomizedBudgetPerceptron,
           "mtforg": MTForgetron,
           "perceptron_battery": PerceptronBattery}[config.algorithm]
    return cls(config, dim)


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


def _require_nonnegative(name, value):
    if not (math.isfinite(value) and value >= 0.0):
        raise DomainError("%s must be finite and >= 0, got %r" % (name, value))


def mtrbp_bound(cum_loss, cG, shift, B, epsilon):
    """Expected-mistake bound of the randomized-eviction learner."""
    _require_nonnegative("cumulative loss", cum_loss)
    _require_nonnegative("shift", shift)
    if not 0.0 < cG <= 1.0:     # c_G^2 = max M_ii, and I + L >= I gives M_ii <= 1
        raise DomainError("cG must lie in (0,1], got %r" % cG)
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
    _require_nonnegative("cumulative loss", cum_loss)
    if B <= FORGETRON_MIN_BUDGET:
        raise DomainError("bound needs B > %d, got %r" % (FORGETRON_MIN_BUDGET, B))
    return 4.0 * cum_loss + (B + 1.0) / (2.0 * math.log(B + 1.0))
