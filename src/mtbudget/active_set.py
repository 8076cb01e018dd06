"""Budgeted active set in one slot index space, with an optional
incrementally maintained inverse H^-1 of its B x B Gram matrix, and the
slot store that holds stored vectors for it and for the Perceptron battery.

An entry sits in a slot that never moves, with its stored vector, task,
weight, and row and column of H^-1. Weights, projection and
back-projection coefficients and leave-one-out residuals are arrays by
slot, so a predict is one dot with no gather. A free slot holds weight 0
and zero coefficients until an insert reuses it; its other per-slot values
mean nothing. `order`, the live slots oldest first, is the only record of
insertion order.

With H^-1, every operation runs in O(B^2) or better: insertion borders
H^-1 with the Schur complement of the new column, eviction applies the
rank-1 downdate of the deleted row/column. An insert leaves its border
pending, as the bordering vector a (H^-1 times the new column, with -1 at
the new slot) and the Schur complement delta, so H^-1 is the stored block
plus a a^T / delta. The leave-one-out residuals read that sum's diagonal,
and an eviction folds border and downdate into H^-1 as one rank-2
product; any other reader folds the border in first.

One numerical floor, _SCHUR_MIN, guards the inverse. The Schur complement
of an insert is the squared residual of projecting the query onto the
span. A projection whose squared residual is below the floor reports a
residual of 0: the query is in the span, so any eta >= 0 projects it. An
insert whose Schur complement is below the floor raises NumericalFailure
and leaves the set unchanged. A learner inserts only when the residual of
the projection just before is above eta, so it never hits the floor.

The vectors live in a SlotStore: feature-major, one column per slot, with
a row only for the features the stored vectors use, so a sparse query's
kernel column reads one short contiguous run per nonzero feature and
memory is O(d + F * capacity) for F distinct stored features. Queries come
folded into the normalized kernel, so a column is one gemv times the
InteractionModel's coupling of the query's task with the slots' tasks; no
k x B table is kept.

A run of upcoming dense rows can be opened as a window instead: one
product of their folded rows, a slice of the stream's prepared n x d'
array (kernels.Prepared), gives the block of their kernels against every
slot (capacity x window) and against one another, and one more the scores
of all of them. The set keeps no Query of the window: between `seek(r)`
and `leave()` a step runs on row r alone, so its predict reads the kept
score, a projection or mtforg's update reads the block's column, and no
kernel is evaluated. An insert writes the new slot's row of the block for
the later rows, from the window's own kernels. A set without H^-1 keeps
the later rows' scores current through the step, in O(window) a change:
an insert adds its weight times that row, an eviction takes off the
evictee's weight times its row, and `shrink` scales them. In a set with
H^-1 a projection or back-projection moves every weight, so `leave`
re-scores the later rows in one product with the weights (in single mode,
each row with its task's weights). Kernels are only ever evaluated by
kernels.dense_kernel_vector.
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

    def block(self, idx, hi):
        """Slots 0..hi-1 at a query's features `idx` (a dense query's: None),
        one column per slot: the matrix `dense_kernel_vector` takes."""
        if idx is not None:
            # take copies whole rows but ran faster than X[rows, :hi]
            return self.X.take(self.row.take(idx), axis=0)[:, :hi]
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
    """Budgeted store of multitask instances plus weights, by slot.

    kernel_mode "multitask": Gram entries are M[task_i, task_j] * K'(x_i, x_j)
    and weights are one scalar per slot. kernel_mode "single": Gram entries
    are K'(x_i, x_j), task markers are ignored by projections, and weights
    form a k x slots matrix (one prediction function per task).

    Every operation takes the instance as a kernels.Query (features folded
    into the normalized kernel, and task), cut by `Prepared.query` for the
    step that uses it; within one step every call gets the same object.
    `keeps` is "inverse" to keep H^-1, or None (multitask only) to keep no B x B matrix."""

    def __init__(self, budget, dim, spec: KernelSpec, model: InteractionModel,
                 kernel_mode="multitask", keeps="inverse"):
        if budget < 1:
            raise ValueError("budget must be positive")
        if kernel_mode not in ("multitask", "single"):
            raise ValueError("bad kernel_mode %r" % kernel_mode)
        if keeps not in ("inverse", None):
            raise ValueError("bad keeps %r" % (keeps,))
        if kernel_mode == "single" and keeps is None:   # the window's moves need scalar weights
            raise ValueError("kernel_mode 'single' needs keeps='inverse'")
        require_normalized(spec)
        self.budget = int(budget)
        self.spec = spec
        self.model = model
        self.kernel_mode = kernel_mode
        self.n = 0
        self._cap = min(16, self.budget + 1)
        # Per slot, never moved: the stored vector (with its squared norm
        # and Query), its task, its weight, and its row and column of H^-1.
        self._store = SlotStore(folded_dim(int(dim), spec), self._cap)
        self._tasks = np.zeros(self._cap, dtype=np.int64)
        self._W = np.zeros((model.k, self._cap) if kernel_mode == "single" else self._cap)
        self._Hinv = np.zeros((self._cap,) * 2) if keeps == "inverse" else None
        self._hi = 0        # slots ever used
        self._free = []     # slots below _hi that hold no entry
        self._order = np.zeros(self._cap, dtype=np.intp)   # live slots, oldest first
        self._border = None     # (a, delta) of an insert not yet in _Hinv
        self._last = None       # the last predict's or projection's terms
        # An open window: its rows' tasks, their kernels with one another,
        # the block by slot and row, the scores, and the row a step is on.
        self._window_tasks = self._own = self._block = self._scores = self._row = None

    # -- views ---------------------------------------------------------

    @property
    def weights(self):
        """Live view by slot; mutate in place, never keep across inserts. In a
        window's step a set without H^-1 changes it only by insert, evict, shrink."""
        return self._W[..., :self._hi]

    @property
    def order(self):
        """The live slots in insertion order: order[0] is the oldest entry."""
        return self._order[:self.n]

    @property
    def slot_tasks(self):
        """The task of each used slot."""
        return self._tasks[:self._hi]

    def __len__(self):
        return self.n

    # -- kernel plumbing ----------------------------------------------

    def _slot_column(self, query: Query):
        """Configured-kernel values of a query against every used slot.

        The kernel runs on the store's rows at the query's nonzeros (sparse)
        or on all of them (dense). Free slots get values too; their zero
        weights and rows of H^-1 drop them out of every product.
        """
        hi = self._hi
        store = self._store
        col = dense_kernel_vector(store.block(query.idx, hi), store.sq[:hi], query.x,
                                  query.sq, self.spec)
        if self.kernel_mode == "multitask":
            col *= self.model.coupling(query.task, self._tasks[:hi])
        return col

    def column(self, query: Query):
        """The query's slot column: the last predict's or projection's of it,
        the block's in a window's step, and no kernel call for an empty set."""
        if self._last and self._last[0] is query:
            return self._last[1]
        if self._row is not None:       # a window's step: the block's column
            return self._block[:self._hi, self._row]
        if self.n == 0:
            return np.zeros(self._hi)
        return self._slot_column(query)

    def _column_terms(self, query: Query):
        """alpha = H^-1 times the query's slot column, and the Schur
        complement delta = k_qq - column . alpha, which is the squared
        residual of projecting the query onto the span.

        A projection right after the predict of the same query reuses its
        column, and an insert right after the projection reuses both terms:
        every insert and evict clears them.
        """
        if self._last and self._last[0] is query and self._last[2] is not None:
            return self._last[2:]
        self._settle()
        col = self.column(query)
        alpha = self._Hinv[:self._hi, :self._hi] @ col
        delta = self.self_kernel(query) - float(np.dot(col, alpha))
        self._last = (query, col, alpha, delta)
        return alpha, delta

    def self_kernel(self, query: Query):
        """Configured kernel of the query with itself: M_qq (the base kernel
        is normalized), or 1 in single mode."""
        if self.kernel_mode == "multitask":
            return self.model.self_coupling(query.task)
        return 1.0

    # -- public operations --------------------------------------------

    def predict(self, query: Query) -> float:
        if self.n == 0:
            return 0.0
        if self._row is not None:   # a window's step: only row r steps (`seek`)
            return self._scores.item(self._row)
        col = self._slot_column(query)
        self._last = (query, col, None, None)
        w = self._W if self.kernel_mode == "multitask" else self._W[query.task]
        return float(np.dot(w[:self._hi], col))

    def projection(self, query: Query):
        """(alphas by slot, residual norm) of the query's kernel function
        onto the span; the residual is 0 when its square is below the
        Schur floor."""
        alpha, resid_sq = self._column_terms(query)
        resid = 0.0 if resid_sq < _SCHUR_MIN else float(np.sqrt(resid_sq))
        return alpha, resid

    def insert(self, query: Query, weight, force=False):
        """Add the query as the newest entry and return its slot; `weight`
        is a scalar or, in single mode, a k-column. Raises NumericalFailure,
        leaving the set unchanged, when the Schur complement is below the floor."""
        if self.n >= self.budget and not force:
            raise BudgetFull("active set already holds %d entries" % self.n)
        if self._Hinv is not None:
            alpha, delta = self._column_terms(query)
            if delta < _SCHUR_MIN:
                raise NumericalFailure(
                    "Schur complement %.3g of the insert is below the floor "
                    "%g: the query is already in the span" % (delta, _SCHUR_MIN))
        n = self.n
        if n + 1 > self._cap:
            self._grow()
        slot = self._free.pop() if self._free else self._hi
        self._hi = max(self._hi, slot + 1)
        self._store.write(slot, query)
        self._tasks[slot] = query.task
        self._order[n] = slot
        self._W[..., slot] = weight
        self.n = n + 1
        self._last = None
        row = self._row
        if row is not None:
            # the new slot's kernels with the later window rows, from the
            # window's own; an evicted slot needs no write, as its weight
            # stays 0 until an insert reuses it
            later = self._block[slot, row + 1:] = self._own[row, row + 1:]
            if self._Hinv is None:
                self._scores[row + 1:] += weight * later
        if self._Hinv is not None:
            # alpha covers the slots before the insert; a new slot extends it
            a = np.append(alpha, 0.0) if slot == alpha.size else alpha.copy()
            a[slot] = -1.0
            self._border = (a, delta)
        return slot

    def evict(self, r):
        """Remove the r-th oldest entry, in slot `order[r]`, and free the
        slot. Return the back-projection coefficients gamma by slot, 0 at
        free slots and at the evictee's, so adding beta_r * gamma to the
        weights keeps the predictor's projection; None without H^-1."""
        n = self.n
        if not (0 <= r < n):
            raise IndexError("evict index %d out of range" % r)
        slot = int(self._order[r])
        self._order[r:n - 1] = self._order[r + 1:n]
        self._free.append(slot)
        if self._Hinv is None and self._row is not None:
            self._scores[self._row + 1:] -= self._W[slot] * self._block[slot, self._row + 1:]
        self._W[..., slot] = 0.0
        self.n = n - 1
        self._last = None
        if self._Hinv is None:
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
        gammas[slot] = 0.0
        return gammas

    def leave_one_out_residuals(self):
        """By slot: distance of each entry's kernel function to the span of
        the others, via residual^2 = 1 / (H^-1)_ss."""
        if self.n == 0:
            raise ValueError("empty active set")
        hi = self._hi
        diag = self._Hinv[:hi, :hi].diagonal()
        if self._border is not None:
            a, delta = self._border
            diag = diag + a * a / delta
        return np.sqrt(1.0 / np.maximum(diag, 1e-300))

    def shrink(self, phi):
        """Scale every weight, and in a window's step the later kept scores, by phi."""
        self._W[:self._hi] *= phi
        if self._row is not None:
            self._scores[self._row + 1:] *= phi

    # -- a window of dense queries -------------------------------------

    def open_window(self, window):
        """Score the next dense queries of the stream, in order, from one
        kernel block against every slot, and keep the block and the
        scores. `window` is the kernels.Prepared input of those rows, whose
        folded rows `X` go into the block as they are. Returns the scores,
        which the set keeps current: between `seek(r)` and `leave()` a
        step may run on row r, and only on it."""
        X, sq, tasks = window.X, window.sq, window.tasks
        cap, store = self._cap, self._store
        # every slot and the window's own queries, as one query block
        # against the window: one row each; the rows past the capacity,
        # the window's own kernels, are read only through self._own
        block = dense_kernel_vector(X.T, sq, np.concatenate((store.block(None, cap).T, X)),
                                    np.concatenate((store.sq, sq)), self.spec)
        if self.kernel_mode == "multitask":
            block *= self.model.couplings(np.concatenate((self._tasks, tasks)), tasks)
        self._block = block
        self._window_tasks, self._own = tasks, block[cap:]
        self._scores = np.empty(len(tasks))
        self._row = None
        self._last = None
        self._score_rows(0)
        return self._scores

    def seek(self, row):
        """Let a step run on the window's row `row`, and no other query until
        `leave`: its predict reads the kept score, its column is the
        block's, and an insert of it writes the new slot's kernel values with
        the later rows into the block."""
        self._row = row

    def leave(self):
        """End the step on the current row. A set without H^-1 kept the later
        rows' scores current through each insert, evict and shrink; in one
        with H^-1, where a projection or back-projection moves every weight,
        they are re-scored here in one product."""
        start = self._row + 1
        self._row = None
        if self._Hinv is not None:
            self._score_rows(start)

    def _score_rows(self, start):
        """Scores of window rows start.. from the block: one product with
        the weights, or in single mode with each row's task weights."""
        hi = self._hi
        block = self._block[:hi, start:]
        if self.kernel_mode == "multitask":
            self._scores[start:] = self._W[:hi] @ block
        else:
            W = self._W.take(self._window_tasks[start:], axis=0)[:, :hi]
            np.vecdot(W, block.T, out=self._scores[start:])

    # -- maintenance ---------------------------------------------------

    def _settle(self):
        """Fold a pending insert's border into H^-1."""
        if self._border is not None:
            a, delta = self._border
            self._border = None
            self._Hinv[:self._hi, :self._hi] += np.outer(a, a) / delta

    def _grow(self):
        """Double the capacity, but stop at budget + 1 (one forced insert
        past the budget), so the full-budget matrix is one contiguous block."""
        new_cap = max(self._cap + 1, min(2 * self._cap, self.budget + 1))
        self._store.resize(new_cap)
        for name in ("_tasks", "_order", "_W"):
            arr = getattr(self, name)
            setattr(self, name, _grown(arr, arr.shape[:-1] + (new_cap,)))
        if self._block is not None:
            self._block = _grown(self._block[:self._cap], (new_cap, self._block.shape[1]))
        if self._Hinv is not None:
            self._Hinv = _grown(self._Hinv, (new_cap, new_cap))
        self._cap = new_cap
