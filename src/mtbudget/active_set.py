"""Budgeted active set with an incrementally maintained inverse H^-1 of its
Gram matrix H, and the slot store that holds stored vectors for it and
for the Perceptron battery.

Prediction, projection, insertion and eviction all run in O(B^2) or
better once the inverse is current: insertion borders H^-1 with the
Schur complement of the new column, eviction applies the rank-1
downdate of the deleted row/column. H itself is never kept.

One numerical floor, _SCHUR_MIN, guards the inverse. The Schur complement
of an insert is the squared residual of projecting the query onto the
span. A projection whose squared residual is below the floor reports a
residual of 0: the query is in the span, so any eta >= 0 projects it. An
insert whose Schur complement is below the floor raises NumericalFailure
and leaves the set unchanged. A learner inserts only when the residual of
the projection just before is above eta, so it never hits the floor.

Entries keep insertion order: an insert appends, an eviction closes the
gap, so entry 0 is always the earliest insert still held and no entry
carries a timestamp.
Stored feature vectors, and the rows and columns of H^-1, sit in physical
slots that never move; an entry-order slot map gives each entry's slot.
Eviction frees a slot and zeroes its row and column of H^-1, shifting
only the O(B) per-entry arrays; the next insert reuses the slot. The
vectors live in a SlotStore: feature-major, one column per slot, with a
row only for the features the stored vectors use, so a sparse query's
kernel column reads one short contiguous run per nonzero feature and
memory is O(d + F * capacity) for F distinct stored features.
Queries come folded into the normalized kernel, so a column is one gemv and
its task coupling one `take` from row t of M; no k x B table is kept.

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

from .errors import BudgetFull, NumericalFailure
from .graph import InteractionModel
from .kernels import KernelSpec, Query, dense_kernel_vector, folded_dim, require_normalized

_SCHUR_MIN = 1e-10


def _grown(arr, shape):
    """`arr` copied into the top-left corner of a zero array of `shape`."""
    out = np.zeros(shape, dtype=arr.dtype)
    out[tuple(slice(0, n) for n in arr.shape)] = arr
    return out


class SlotStore:
    """Vectors in slots, feature-major (one column per slot), with a row
    only for the features some stored vector has used.

    A store-wide map sends each feature id to its row. Features no stored
    vector has used map to row 0, which stays all zero, so a sparse query's
    block `X[map[idx], :hi]` holds the same values a d-row store would. The
    first dense query turns the store dense: every feature gets its row, in
    feature order, and a dense query's block is the plain slice `X[:, :hi]`.
    Per slot the store also keeps the squared norm and the Query written
    there. Slots grow by `resize`. New features that overflow the rows
    first rebuild the map from the F features the held queries use, unless
    too few rows can have lost their last user for that to free half of
    them; the rows grow, to 1 + 2F, only if those fill more than half.
    """

    def __init__(self, dim, cap):
        self.dim = dim
        self.X = np.zeros((1, cap))
        self.row = np.zeros(dim, dtype=np.intp)
        self.rows = 1           # rows in use (sparse layout: with the zero row)
        self.stale = 0          # features cleared since the last rebuild
        self.dense = False
        self.sq = np.zeros(cap)
        self.queries = [None] * cap

    def block(self, query: Query, hi):
        """Slots 0..hi-1 at the query's features, one column per slot: the
        matrix `dense_kernel_vector` takes."""
        if query.idx is not None:
            # take copies whole rows but ran faster than X[rows, :hi]
            return self.X.take(self.row.take(query.idx), axis=0)[:, :hi]
        if not self.dense:
            self._densify()
        return self.X[:, :hi]

    def write(self, slot, query: Query):
        """Store the query in `slot`, clearing the features of what it held."""
        old = self.queries[slot]
        self.queries[slot] = query
        if query.idx is None:
            if not self.dense:
                self._densify()
            self.X[:, slot] = query.x
        else:
            if old is not None:
                self.X[slice(None) if old.idx is None else self.row[old.idx],
                       slot] = 0.0
                self.stale += old.x.size
            rows = self._rows_of(query.idx)    # may rebuild self.X
            self.X[rows, slot] = query.x
        self.sq[slot] = query.sq

    def resize(self, cap):
        """Grow to `cap` slots."""
        self.X = _grown(self.X, (self.X.shape[0], cap))
        self.sq = _grown(self.sq, cap)
        self.queries.extend([None] * (cap - len(self.queries)))

    def _rows_of(self, idx):
        """Rows of the features `idx`, given rows first if they have none."""
        rows = self.row.take(idx)
        if self.dense or rows.all():
            return rows
        new = idx[rows == 0]
        used = self.rows + new.size
        if used > self.X.shape[0]:
            if 2 * (used - 1 - self.stale) <= self.X.shape[0] - 1:
                self._compact()
                return self.row[idx]
            # no rebuild can free half the rows: a battery never clears one
            self.X = _grown(self.X, (2 * used - 1, self.X.shape[1]))
        self.row[new] = np.arange(self.rows, used)
        self.rows = used
        return self.row[idx]

    def _compact(self):
        """Rows only for the features of the held queries (the one being
        written among them); every block keeps its values."""
        feats = np.unique(np.concatenate([q.idx for q in self.queries if q is not None]))
        self.rows = 1 + feats.size
        X = np.zeros((max(self.X.shape[0], 2 * self.rows - 1), self.X.shape[1]))
        X[1:self.rows] = self.X[self.row[feats]]
        self.X = X
        # a fresh zero map, not a cleared one: untouched pages cost nothing
        self.row = np.zeros(self.dim, dtype=np.intp)
        self.row[feats] = np.arange(1, self.rows)
        self.stale = 0

    def _densify(self):
        X = np.zeros((self.dim, self.X.shape[1]))
        feats = np.flatnonzero(self.row)
        X[feats] = self.X[self.row[feats]]
        self.X = X
        self.row = np.arange(self.dim)
        self.rows = self.dim
        self.dense = True


class ActiveSet:
    """Ordered budgeted store of multitask instances plus weights.

    kernel_mode "multitask": Gram entries are M[task_i, task_j] * K'(x_i, x_j)
    and weights are one scalar per entry. kernel_mode "single": Gram entries
    are K'(x_i, x_j), task markers are ignored by projections, and weights
    form a k x |S| matrix (one prediction function per task).

    Every operation takes the instance as a kernels.Query (features folded
    into the normalized kernel, and task), built once by `make_queries`."""

    def __init__(self, budget, dim, spec: KernelSpec, model: InteractionModel,
                 kernel_mode="multitask", maintain_inverse=True):
        if budget < 1:
            raise ValueError("budget must be positive")
        if kernel_mode not in ("multitask", "single"):
            raise ValueError("bad kernel_mode %r" % kernel_mode)
        require_normalized(spec)
        self.budget = int(budget)
        self.spec = spec
        self.model = model
        self.kernel_mode = kernel_mode
        self.maintain_inverse = maintain_inverse
        self.n = 0
        self._cap = min(16, self.budget + 1)
        # Per slot, never moved: the stored vector (with its squared norm
        # and Query), its zero-based task, and the slot's row and column of
        # H^-1.
        self._store = SlotStore(folded_dim(int(dim), spec), self._cap)
        self._tasks = np.zeros(self._cap, dtype=np.int64)
        self._hi = 0        # slots ever used
        self._free = []     # slots below _hi that hold no entry
        self._in_order = True   # until the first eviction, slot j holds entry j
        # Per entry, in insertion order.
        self._slot = np.zeros(self._cap, dtype=np.int64)
        if kernel_mode == "single":
            self._W = np.zeros((model.k, self._cap))
        else:
            self._W = np.zeros(self._cap)
        self._Hinv = np.zeros((self._cap, self._cap)) if maintain_inverse else None
        self._border = None     # (a, delta) of an insert not yet in _Hinv
        self._last = None       # the last predict's or projection's terms

    # -- views ---------------------------------------------------------

    @property
    def tasks(self):
        return self._logical(self._tasks) + 1

    @property
    def weights(self):
        """Live view; mutate in place, never keep across inserts."""
        return self._W[..., :self.n]

    @property
    def gram_inv(self):
        """Copy of H^-1 in entry order."""
        self._settle()
        slots = self._slot[:self.n]
        return self._Hinv[np.ix_(slots, slots)]

    def query(self, j):
        """The Query entry j was inserted with."""
        return self._store.queries[self._slot[j]]

    def __len__(self):
        return self.n

    def _logical(self, per_slot):
        """Entry-order values of a per-slot array."""
        if self._in_order:
            return per_slot[:self.n]
        return per_slot[self._slot[:self.n]]

    # -- kernel plumbing ----------------------------------------------

    def _slot_column(self, query: Query):
        """Configured-kernel values of a query against every used slot.

        The kernel runs on the store's rows at the query's nonzeros (sparse)
        or on all of them (dense). Free slots get values too; their rows and
        columns of H^-1 are zero, so they drop out of every product.
        """
        hi = self._hi
        store = self._store
        col = dense_kernel_vector(store.block(query, hi), store.sq[:hi], query.x,
                                  query.sq, self.spec)
        if self.kernel_mode == "multitask":
            # M is exactly symmetric, so its row t is its column t
            col *= self.model.inverse[query.task - 1].take(self._tasks[:hi])
        return col

    def _column_terms(self, query: Query):
        """alpha = H^-1 times the query's slot-order kernel column, and the
        Schur complement delta = k_qq - column . alpha, which is the squared
        residual of projecting the query onto the span.

        A projection right after the predict of the same query reuses its
        column, and an insert right after the projection reuses both terms:
        every insert and evict clears them.
        """
        last = self._last if self._last and self._last[0] is query else None
        if last and last[2] is not None:
            return last[2:]
        self._settle()
        hi = self._hi
        if self.n == 0:
            col = alpha = np.zeros(hi)
        else:
            col = last[1] if last else self._slot_column(query)
            alpha = self._Hinv[:hi, :hi] @ col
        delta = self.self_kernel(query) - float(np.dot(col, alpha))
        self._last = (query, col, alpha, delta)
        return alpha, delta

    def self_kernel(self, query: Query):
        """Configured kernel of the query with itself: M_qq (the base kernel
        is normalized), or 1 in single mode."""
        if self.kernel_mode == "multitask":
            return float(self.model.inverse[query.task - 1, query.task - 1])
        return 1.0

    # -- public operations --------------------------------------------

    def predict(self, query: Query) -> float:
        n = self.n
        if n == 0:
            return 0.0
        col = self._slot_column(query)
        self._last = (query, col, None, None)
        col = self._logical(col)
        if self.kernel_mode == "multitask":
            return float(np.dot(self._W[:n], col))
        return float(np.dot(self._W[query.task - 1, :n], col))

    def projection(self, query: Query):
        """(alphas, residual norm) of the query's kernel function onto the
        span; the residual is 0 when its square is below the Schur floor."""
        alpha, resid_sq = self._column_terms(query)
        resid = 0.0 if resid_sq < _SCHUR_MIN else float(np.sqrt(resid_sq))
        return self._logical(alpha), resid

    def insert(self, query: Query, weight, force=False):
        """Append the query; `weight` is a scalar or, in single mode, a
        k-column. Raises NumericalFailure, leaving the set unchanged, when
        the query's Schur complement is below the floor."""
        if self.n >= self.budget and not force:
            raise BudgetFull("active set already holds %d entries" % self.n)
        if self.maintain_inverse:
            alpha, delta = self._column_terms(query)
            if delta < _SCHUR_MIN:
                raise NumericalFailure(
                    "Schur complement %.3g of the insert is below the floor "
                    "%g: the query is already in the span" % (delta, _SCHUR_MIN))
        n = self.n
        if n + 1 > self._cap:
            self._grow()
        if self._free:
            slot = self._free.pop()
        else:
            slot = self._hi
            self._hi += 1
        self._store.write(slot, query)
        self._tasks[slot] = query.task - 1
        self._slot[n] = slot
        self._W[..., n] = weight
        self.n = n + 1
        self._last = None
        if self.maintain_inverse:
            a = np.zeros(self._hi)
            a[:alpha.size] = alpha
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
        self._slot[r:n - 1] = self._slot[r + 1:n]
        self._W[..., r:n - 1] = self._W[..., r + 1:n]
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

    # -- maintenance ---------------------------------------------------

    def _settle(self):
        """Fold a pending insert's border into H^-1."""
        if self._border is not None:
            a, delta = self._border
            self._border = None
            self._Hinv[:self._hi, :self._hi] += np.outer(a, a) / delta

    def _grow(self):
        """Double the capacity, but stop at budget + 1 (one forced insert
        past the budget), so the full-budget H^-1 is one contiguous block."""
        new_cap = max(self._cap + 1, min(2 * self._cap, self.budget + 1))
        self._store.resize(new_cap)
        for name in ("_tasks", "_slot"):
            setattr(self, name, _grown(getattr(self, name), new_cap))
        self._W = _grown(self._W, self._W.shape[:-1] + (new_cap,))
        if self.maintain_inverse:
            self._Hinv = _grown(self._Hinv, (new_cap, new_cap))
        self._cap = new_cap
