"""Budgeted active set with an incrementally maintained Gram inverse.

Prediction, projection, insertion and eviction all run in O(B^2) or
better once the inverse is current: insertion borders H^-1 with the
Schur complement of the new column, eviction applies the rank-1
downdate of the deleted row/column.

Stored feature vectors, and the rows and columns of H and H^-1, sit in
physical slots that never move; a logical-order slot map gives each
entry's slot. Eviction frees a slot and zeroes its row and column of
H^-1, shifting only the O(B) per-entry arrays; the next insert reuses the
slot. The store is feature-major (d x capacity), so a sparse query's
kernel column reads one short contiguous run per nonzero feature.

An insert leaves its border of H^-1 pending, as the bordering vector a
(H^-1 times the new column, with -1 at the new slot) and the Schur
complement delta, so H^-1 is the stored block plus a a^T / delta. The
leave-one-out residuals read that sum's diagonal, and an eviction folds
the border and its own downdate into H^-1 as one rank-2 product; any
other reader folds the border in first. A full-budget insert plus evict
thus costs one rank-2 update of H^-1.
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
        self._cap = min(16, self.budget + 1)
        # Per slot, never moved: feature column, raw self kernel, squared
        # norm, task, the entry's SparseVector and the Query it was inserted
        # with; and the slot's row and column of H and H^-1.
        self._X = np.zeros((dim, self._cap))
        self._self_raw = np.zeros(self._cap)
        self._sq = np.zeros(self._cap)
        self._tasks = np.zeros(self._cap, dtype=np.int64)
        self._points = [None] * self._cap
        self._queries = [None] * self._cap
        self._hi = 0        # slots ever used
        self._free = []     # slots below _hi that hold no entry
        self._in_order = True   # until the first eviction, slot j holds entry j
        # Per entry, in logical order.
        self._slot = np.zeros(self._cap, dtype=np.int64)
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
        self._border = None     # (a, delta) of an insert not yet in _Hinv
        self._last = None       # the last projection's query, task and terms

    # -- views ---------------------------------------------------------

    @property
    def tasks(self):
        return self._logical(self._tasks)

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
        """Copy of H in entry order."""
        slots = self._slot[:self.n]
        return self._H[np.ix_(slots, slots)]

    @property
    def gram_inv(self):
        """Copy of H^-1 in entry order."""
        self._settle()
        slots = self._slot[:self.n]
        return self._Hinv[np.ix_(slots, slots)]

    def instance(self, j) -> MultitaskInstance:
        slot = self._slot[j]
        return MultitaskInstance(self._points[slot], int(self._tasks[slot]))

    def query(self, j):
        """The Query entry j was inserted with."""
        return self._queries[self._slot[j]]

    def __len__(self):
        return self.n

    def _logical(self, per_slot):
        """Entry-order values of a per-slot array."""
        if self._in_order:
            return per_slot[:self.n]
        return per_slot[self._slot[:self.n]]

    # -- kernel plumbing ----------------------------------------------

    def _prepare(self, q: MultitaskInstance, query=None):
        if query is not None:
            return query
        return make_queries([q], self.dim, self.spec)[0]

    def _slot_column(self, q: MultitaskInstance, query):
        """Configured-kernel values of a query against every used slot.

        The kernel runs on the store's rows at the query's nonzeros (sparse)
        or on all of them (dense). Free slots get values too; their rows and
        columns of H^-1 are zero, so they drop out of every product.
        """
        hi = self._hi
        X = self._X[:, :hi] if query.idx is None else self._X[query.idx, :hi]
        col = dense_kernel_vector(X.T, self._self_raw[:hi], self._sq[:hi],
                                  query.x, query.self_raw, query.sq, self.spec)
        if self.kernel_mode == "multitask":
            col = col * self.model.inverse[self._tasks[:hi] - 1, q.task - 1]
        return col

    def _column_terms(self, q: MultitaskInstance, query):
        """q's slot-order kernel column, H^-1 times it, and k_qq.

        An insert right after the projection of the same query reuses the
        projection's terms: every mutation clears them.
        """
        last = self._last
        if last is not None and last[0] is query and last[1] == q.task:
            return last[2:]
        self._settle()
        kqq = self.self_kernel(q, query)
        hi = self._hi
        if self.n == 0:
            col = np.zeros(hi)
            return col, col, kqq
        col = self._slot_column(q, query)
        return col, self._Hinv[:hi, :hi] @ col, kqq

    def kernel_column(self, q: MultitaskInstance, query=None):
        """Configured-kernel values of q against all stored entries."""
        query = self._prepare(q, query)
        if self.n == 0:
            return np.zeros(0)
        return self._logical(self._slot_column(q, query))

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
        n = self.n
        if n == 0:
            return 0.0
        col = self._logical(self._slot_column(q, self._prepare(q, query)))
        if self.kernel_mode == "multitask":
            return float(np.dot(self._W[:n], col))
        return float(np.dot(self._W[q.task - 1, :n], col))

    def projection(self, q: MultitaskInstance, query=None):
        """(alphas, residual norm) of q's kernel function onto the span."""
        query = self._prepare(q, query)
        col, alpha, kqq = self._column_terms(q, query)
        self._last = (query, q.task, col, alpha, kqq)
        resid_sq = kqq - float(np.dot(col, alpha))
        return self._logical(alpha), float(np.sqrt(max(resid_sq, 0.0)))

    def insert(self, q: MultitaskInstance, weight, force=False, query=None):
        """Append q; `weight` is a scalar or, in single mode, a k-column."""
        if self.n >= self.budget and not force:
            raise BudgetFull("active set already holds %d entries" % self.n)
        query = self._prepare(q, query)
        if self.maintain_inverse:
            col, alpha, kqq = self._column_terms(q, query)
        n = self.n
        if n + 1 > self._cap:
            self._grow()
        if self._free:
            slot = self._free.pop()
        else:
            slot = self._hi
            self._hi += 1
        self._store(slot, q, query)
        self._slot[n] = slot
        self._times[n] = self._clock
        self._clock += 1
        if self._W.ndim == 2:
            self._W[:, n] = weight
        else:
            self._W[n] = weight
        self.n = n + 1
        self._last = None
        if self.maintain_inverse:
            m = col.size
            self._H[slot, :m] = col
            self._H[:m, slot] = col
            self._H[slot, slot] = kqq
            delta = kqq - float(np.dot(col, alpha))
            if delta < _SCHUR_MIN:
                self._rebuild_inverse()
                return
            a = np.zeros(self._hi)
            a[:m] = alpha
            a[slot] = -1.0
            self._border = (a, delta)

    def evict(self, r):
        """Remove entry r; return its back-projection coefficients gamma.

        gamma has one coefficient per surviving entry, in the surviving
        order. With no maintained inverse the return value is None and the
        removal is a plain deletion. The entry's slot is freed in place.
        """
        n = self.n
        if not (0 <= r < n):
            raise IndexError("evict index %d out of range" % r)
        slot = int(self._slot[r])
        self._free.append(slot)
        self._in_order = False
        for arr in (self._slot, self._times):
            arr[r:n - 1] = arr[r + 1:n]
        if self._W.ndim == 2:
            self._W[:, r:n - 1] = self._W[:, r + 1:n]
        else:
            self._W[r:n - 1] = self._W[r + 1:n]
        self.n = n - 1
        self._last = None
        if not self.maintain_inverse:
            return None
        # With the pending border, H^-1 is Hinv + a a^T / delta; its column
        # d at the evictee gives the downdate -d d^T / d[slot]. Both go in
        # as one rank-2 product.
        hi = self._hi
        Hinv = self._Hinv[:hi, :hi]
        a, delta = self._border if self._border is not None else (np.zeros(hi), 1.0)
        self._border = None
        d = Hinv[:, slot] + a * a[slot] / delta
        gammas = -d / d[slot]
        Hinv += np.array((a / delta, gammas)).T @ np.array((a, d))
        Hinv[slot, :] = 0.0
        Hinv[:, slot] = 0.0
        return gammas[self._slot[:n - 1]]

    def leave_one_out_residuals(self):
        """For each j: distance of entry j's kernel function to the span of
        the others, via residual_j^2 = 1 / (H^-1)_jj."""
        if self.n == 0:
            raise ValueError("empty active set")
        hi = self._hi
        diag = np.diag(self._Hinv[:hi, :hi])
        if self._border is not None:
            a, delta = self._border
            diag = diag + a * a / delta
        return np.sqrt(1.0 / np.maximum(self._logical(diag), 1e-300))

    def oldest(self):
        return int(np.argmin(self._times[:self.n]))

    # -- maintenance ---------------------------------------------------

    def _store(self, slot, q: MultitaskInstance, query):
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
        self._tasks[slot] = q.task
        self._points[slot] = q.x
        self._queries[slot] = query

    def _settle(self):
        """Fold a pending insert's border into H^-1."""
        if self._border is not None:
            a, delta = self._border
            self._border = None
            self._Hinv[:self._hi, :self._hi] += np.outer(a, a) / delta

    def _rebuild_inverse(self):
        n = self.n
        slots = self._slot[:n]
        G = dense_gram(self._X[:, slots].T, self._self_raw[slots], self._sq[slots],
                       self.spec)
        if self.kernel_mode == "multitask":
            Mi = self.model.inverse
            t = self._tasks[slots] - 1
            G = G * Mi[np.ix_(t, t)]
        G = G + RIDGE * np.eye(n)
        block = np.ix_(slots, slots)
        self._H[block] = G
        self._Hinv[:self._hi, :self._hi] = 0.0
        self._Hinv[block] = np.linalg.inv(G)
        self.regularized = True

    def _grow(self):
        """Double the capacity, but stop at budget + 1 (one forced insert
        past the budget), so the full-budget H^-1 is one contiguous block."""
        new_cap = max(self._cap + 1, min(2 * self._cap, self.budget + 1))
        self._X = self._resize2(self._X, (self.dim, new_cap))
        for name in ("_self_raw", "_sq", "_tasks", "_slot", "_times"):
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
