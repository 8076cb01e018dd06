"""Budgeted active set with an incrementally maintained Gram inverse.

Prediction, projection, insertion and eviction all run in O(B^2) or
better once the inverse is current: insertion borders H^-1 with the
Schur complement of the new column, eviction applies the rank-1
downdate of the deleted row/column.

Stored feature vectors sit in physical slots that never move; a
logical-order slot map gives each entry's slot. Eviction frees a slot and
shifts only the O(B) per-entry arrays and H, H^-1; the next insert reuses
the slot. The store is feature-major (d x capacity), so a sparse query's
kernel column reads one short contiguous run per nonzero feature.
"""

from __future__ import annotations

import numpy as np

from .errors import BudgetFull
from .graph import InteractionModel
from .kernels import (KernelSpec, MultitaskInstance, dense_gram,
                      dense_kernel_vector, make_queries)

RIDGE = 1e-10
_SCHUR_MIN = 1e-10


class ActiveSet:
    """Ordered budgeted store of multitask instances plus weights.

    kernel_mode "multitask": Gram entries are M[task_i, task_j] * K'(x_i, x_j)
    and weights are one scalar per entry. kernel_mode "single": Gram entries
    are K'(x_i, x_j), task markers are ignored by projections, and weights
    form a k x |S| matrix (one prediction function per task).

    Every operation takes an optional `query` (kernels.Query) of q, as the
    streaming harness builds once per example; without one it is built
    from q.
    """

    def __init__(self, budget, dim, spec: KernelSpec, model: InteractionModel,
                 kernel_mode="multitask", maintain_inverse=True):
        if budget < 1:
            raise ValueError("budget must be positive")
        if kernel_mode not in ("multitask", "single"):
            raise ValueError("bad kernel_mode %r" % kernel_mode)
        self.budget = int(budget)
        self.dim = int(dim)
        self.spec = spec
        self.model = model
        self.kernel_mode = kernel_mode
        self.maintain_inverse = maintain_inverse
        self.regularized = False
        self.n = 0
        self._cap = 16
        # Per slot, never moved: feature column, raw self kernel, squared
        # norm, the entry's SparseVector and the Query it was inserted with.
        self._X = np.zeros((dim, self._cap))
        self._self_raw = np.zeros(self._cap)
        self._sq = np.zeros(self._cap)
        self._points = [None] * self._cap
        self._queries = [None] * self._cap
        self._hi = 0        # slots ever used
        self._free = []     # slots below _hi that hold no entry
        self._in_order = True   # until the first eviction, slot j holds entry j
        # Per entry, in logical order.
        self._slot = np.zeros(self._cap, dtype=np.int64)
        self._tasks = np.zeros(self._cap, dtype=np.int64)
        self._times = np.zeros(self._cap, dtype=np.int64)
        self._clock = 0
        if kernel_mode == "single":
            self._W = np.zeros((model.k, self._cap))
        else:
            self._W = np.zeros(self._cap)
        if maintain_inverse:
            self._H = np.zeros((self._cap, self._cap))
            self._Hinv = np.zeros((self._cap, self._cap))
        else:
            self._H = None
            self._Hinv = None

    # -- views ---------------------------------------------------------

    @property
    def tasks(self):
        return self._tasks[:self.n]

    @property
    def times(self):
        return self._times[:self.n]

    @property
    def weights(self):
        """Live view; mutate in place, never keep across inserts."""
        if self._W.ndim == 2:
            return self._W[:, :self.n]
        return self._W[:self.n]

    @property
    def gram(self):
        return self._H[:self.n, :self.n]

    @property
    def gram_inv(self):
        return self._Hinv[:self.n, :self.n]

    def instance(self, j) -> MultitaskInstance:
        return MultitaskInstance(self._points[self._slot[j]], int(self._tasks[j]))

    def query(self, j):
        """The Query entry j was inserted with."""
        return self._queries[self._slot[j]]

    def __len__(self):
        return self.n

    # -- kernel plumbing ----------------------------------------------

    def _prepare(self, q: MultitaskInstance, query=None):
        if query is not None:
            return query
        return make_queries([q], self.dim, self.spec)[0]

    def _base_column(self, query):
        """Base-kernel values of a query against the entries, in order.

        The kernel runs over every used slot, on the store's rows at the
        query's nonzeros (sparse) or on all of them (dense), and is then put
        in entry order by the slot map once an eviction has permuted the
        slots.
        """
        hi = self._hi
        X = self._X[:, :hi] if query.idx is None else self._X[query.idx, :hi]
        col = dense_kernel_vector(X.T, self._self_raw[:hi], self._sq[:hi],
                                  query.x, query.self_raw, query.sq, self.spec)
        return col if self._in_order else col[self._slot[:self.n]]

    def kernel_column(self, q: MultitaskInstance, query=None):
        """Configured-kernel values of q against all stored entries."""
        query = self._prepare(q, query)
        if self.n == 0:
            return np.zeros(0)
        col = self._base_column(query)
        if self.kernel_mode == "multitask":
            col = col * self.model.inverse[self._tasks[:self.n] - 1, q.task - 1]
        return col

    def self_kernel(self, q: MultitaskInstance, query=None):
        """Configured kernel of q with itself (M_qq after normalization)."""
        if self.spec.normalize or self.spec.kind == "gaussian":
            base = 1.0
        else:
            base = self._prepare(q, query).self_raw
        if self.kernel_mode == "multitask":
            return float(self.model.inverse[q.task - 1, q.task - 1]) * base
        return float(base)

    # -- public operations --------------------------------------------

    def predict(self, q: MultitaskInstance, query=None) -> float:
        if self.n == 0:
            return 0.0
        base = self._base_column(self._prepare(q, query))
        if self.kernel_mode == "multitask":
            m = self.model.inverse[self._tasks[:self.n] - 1, q.task - 1]
            return float(np.dot(self._W[:self.n], m * base))
        return float(np.dot(self._W[q.task - 1, :self.n], base))

    def projection(self, q: MultitaskInstance, query=None):
        """(alphas, residual norm) of q's kernel function onto the span."""
        query = self._prepare(q, query)
        kqq = self.self_kernel(q, query)
        if self.n == 0:
            return np.zeros(0), float(np.sqrt(kqq))
        col = self.kernel_column(q, query)
        alphas = self._Hinv[:self.n, :self.n] @ col
        resid_sq = kqq - float(np.dot(col, alphas))
        return alphas, float(np.sqrt(max(resid_sq, 0.0)))

    def insert(self, q: MultitaskInstance, weight, force=False, query=None):
        """Append q; `weight` is a scalar or, in single mode, a k-column."""
        if self.n >= self.budget and not force:
            raise BudgetFull("active set already holds %d entries" % self.n)
        query = self._prepare(q, query)
        if self.maintain_inverse:
            col = self.kernel_column(q, query)
            kqq = self.self_kernel(q, query)
        n = self.n
        if n + 1 > self._cap:
            self._grow()
        if self._free:
            slot = self._free.pop()
        else:
            slot = self._hi
            self._hi += 1
        self._store(slot, q.x, query)
        self._slot[n] = slot
        self._tasks[n] = q.task
        self._times[n] = self._clock
        self._clock += 1
        if self._W.ndim == 2:
            self._W[:, n] = weight
        else:
            self._W[n] = weight
        if self.maintain_inverse:
            self._H[n, :n] = col
            self._H[:n, n] = col
            self._H[n, n] = kqq
            if n == 0:
                self._Hinv[0, 0] = 1.0 / kqq
            else:
                alpha = self._Hinv[:n, :n] @ col
                delta = kqq - float(np.dot(col, alpha))
                if delta < _SCHUR_MIN:
                    self.n = n + 1
                    self._rebuild_inverse()
                    return
                self._Hinv[:n, :n] += np.outer(alpha, alpha) / delta
                self._Hinv[:n, n] = -alpha / delta
                self._Hinv[n, :n] = -alpha / delta
                self._Hinv[n, n] = 1.0 / delta
        self.n = n + 1

    def evict(self, r):
        """Remove entry r; return its back-projection coefficients gamma.

        gamma has one coefficient per surviving entry, in the surviving
        order. With no maintained inverse the return value is None and the
        removal is a plain deletion. The entry's slot is freed in place.
        """
        n = self.n
        if not (0 <= r < n):
            raise IndexError("evict index %d out of range" % r)
        gammas = None
        if self.maintain_inverse:
            d = self._Hinv[:n, r].copy()
            pivot = d[r]
            gammas = np.delete(-d / pivot, r)
            self._Hinv[:n, :n] -= np.outer(d, d) / pivot
            self._shift_out(self._Hinv, r, n)
            self._shift_out(self._H, r, n)
        self._free.append(int(self._slot[r]))
        self._in_order = False
        for arr in (self._slot, self._tasks, self._times):
            arr[r:n - 1] = arr[r + 1:n]
        if self._W.ndim == 2:
            self._W[:, r:n - 1] = self._W[:, r + 1:n]
        else:
            self._W[r:n - 1] = self._W[r + 1:n]
        self.n = n - 1
        return gammas

    def leave_one_out_residuals(self):
        """For each j: distance of entry j's kernel function to the span of
        the others, via residual_j^2 = 1 / (H^-1)_jj."""
        if self.n == 0:
            raise ValueError("empty active set")
        diag = np.diag(self._Hinv[:self.n, :self.n])
        return np.sqrt(1.0 / np.maximum(diag, 1e-300))

    def oldest(self):
        return int(np.argmin(self._times[:self.n]))

    # -- maintenance ---------------------------------------------------

    def _store(self, slot, point, query):
        """Write an entry's features into `slot`, clearing what it held."""
        vec = self._X[:, slot]
        if query.idx is None:
            vec[:] = query.x
        else:
            old = self._queries[slot]
            if old is not None:
                if old.idx is None:
                    vec[:] = 0.0
                else:
                    vec[old.idx] = 0.0
            vec[query.idx] = query.x
        self._self_raw[slot] = query.self_raw
        self._sq[slot] = query.sq
        self._points[slot] = point
        self._queries[slot] = query

    def _rebuild_inverse(self):
        n = self.n
        slots = self._slot[:n]
        G = dense_gram(self._X[:, slots].T, self._self_raw[slots], self._sq[slots],
                       self.spec)
        if self.kernel_mode == "multitask":
            Mi = self.model.inverse
            t = self._tasks[:n] - 1
            G = G * Mi[np.ix_(t, t)]
        G = G + RIDGE * np.eye(n)
        self._H[:n, :n] = G
        self._Hinv[:n, :n] = np.linalg.inv(G)
        self.regularized = True

    def _grow(self):
        new_cap = self._cap * 2
        self._X = self._resize2(self._X, (self.dim, new_cap))
        for name in ("_self_raw", "_sq", "_slot", "_tasks", "_times"):
            arr = getattr(self, name)
            setattr(self, name, self._resize1(arr, new_cap))
        self._points.extend([None] * (new_cap - self._cap))
        self._queries.extend([None] * (new_cap - self._cap))
        if self._W.ndim == 2:
            self._W = self._resize2(self._W, (self._W.shape[0], new_cap))
        else:
            self._W = self._resize1(self._W, new_cap)
        if self.maintain_inverse:
            self._H = self._resize2(self._H, (new_cap, new_cap))
            self._Hinv = self._resize2(self._Hinv, (new_cap, new_cap))
        self._cap = new_cap

    @staticmethod
    def _resize1(arr, n):
        out = np.zeros(n, dtype=arr.dtype)
        out[:arr.shape[0]] = arr
        return out

    @staticmethod
    def _resize2(arr, shape):
        out = np.zeros(shape, dtype=arr.dtype)
        out[:arr.shape[0], :arr.shape[1]] = arr
        return out

    @staticmethod
    def _shift_out(buf, r, n):
        buf[r:n - 1, :n] = buf[r + 1:n, :n]
        buf[:n - 1, r:n - 1] = buf[:n - 1, r + 1:n]

    # -- serialization -------------------------------------------------

    def to_snapshot(self) -> str:
        """Line format: `B <budget>` then `<task> <weight[,weight...]> <i>:<v> ...`."""
        lines = ["B %d" % self.budget]
        for j in range(self.n):
            if self._W.ndim == 2:
                w = ",".join("%.17g" % v for v in self._W[:, j])
            else:
                w = "%.17g" % self._W[j]
            sv = self.instance(j).x
            feats = " ".join("%d:%.17g" % (i, v)
                             for i, v in zip(sv.indices, sv.values))
            lines.append(("%d %s %s" % (self._tasks[j], w, feats)).rstrip())
        return "\n".join(lines) + "\n"
