"""Task-relation graphs, the interaction matrix and resistance distances.

The graph over tasks induces a Laplacian L, the interaction matrix
A = I + L, its inverse M and the constant c_G = max_i sqrt(M_ii) that
bounds the norm of every multitask feature vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DisconnectedGraph, NumericalFailure, ParseError

_SOLVE_TOL = 1e-9
_PINV_CUTOFF = 1e-12


@dataclass(frozen=True, eq=False)
class TaskGraph:
    """Undirected graph over tasks 1..k.

    `edges` is one read-only int64 array of shape (E, 2). Each row is a pair
    i < j of task ids, and the rows strictly increase in lexicographic
    order, so no pair appears twice. Rows given out of order are sorted.
    A graph never changes, so its interaction model (`model`) is built once
    and shared.
    """

    k: int
    edges: np.ndarray

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("need at least one task, got k=%d" % self.k)
        e = np.array(self.edges, dtype=np.int64).reshape(-1, 2)
        bad = (e[:, 0] < 1) | (e[:, 0] >= e[:, 1]) | (e[:, 1] > self.k)
        if bad.any():
            i, j = e[np.argmax(bad)]
            raise ValueError("bad edge (%d, %d) for k=%d" % (i, j, self.k))
        if not _increasing(e).all():
            e = e[np.lexsort((e[:, 1], e[:, 0]))]
            dup = ~_increasing(e)
            if dup.any():
                i, j = e[np.argmax(dup)]
                raise ValueError("duplicate edge (%d, %d)" % (i, j))
        e.flags.writeable = False
        object.__setattr__(self, "edges", e)

    @cached_property
    def model(self) -> "InteractionModel":
        """The graph's InteractionModel, built on first use and shared,
        read-only, by every learner on the graph."""
        return build_interaction_model(self)

    @staticmethod
    def from_edges(k, edges):
        """Graph of (i, j) pairs given in either orientation and any order;
        a self-loop (i, i) fails the constructor's i < j check."""
        return TaskGraph(k, np.sort(np.array(edges, dtype=np.int64).reshape(-1, 2),
                                    axis=1))

    @staticmethod
    def complete(k):
        return TaskGraph(k, np.column_stack(np.triu_indices(k, 1)) + 1)

    @staticmethod
    def edgeless(k):
        return TaskGraph(k, np.arange(0).reshape(0, 2))

    @staticmethod
    def path(k):
        return TaskGraph(k, np.arange(1, k)[:, None] + [0, 1])


def _increasing(e):
    """Per consecutive pair of rows, whether the second is lexicographically
    larger."""
    a, b = e[:-1], e[1:]
    return (a[:, 0] < b[:, 0]) | ((a[:, 0] == b[:, 0]) & (a[:, 1] < b[:, 1]))


class InteractionModel:
    """M = (I + L)^-1 and c_G for one task graph. M is private and
    read-only; callers read it only through the methods below, which take
    zero-based tasks, as a Query holds them. M is exactly symmetric, so a
    row is also a column."""

    def __init__(self, M: np.ndarray):
        M.flags.writeable = False
        self._M = M
        self.cG = float(np.sqrt(np.max(np.diag(M))))

    @property
    def k(self):
        return self._M.shape[0]

    def coupling(self, task, tasks):
        """M[task, tasks]: a new array, one entry per task."""
        return self._M[task].take(tasks)

    def couplings(self, rows, tasks):
        """M[rows][:, tasks]: a new len(rows) x len(tasks) array. By
        symmetry it is gathered from M's rows `tasks`, so only len(tasks) x k
        entries are copied on the way."""
        return self._M.take(tasks, axis=0)[:, rows].T

    def self_coupling(self, task) -> float:
        """M[task, task]."""
        return float(self._M[task, task])

    def row(self, task):
        """M's row `task`, a read-only view."""
        return self._M[task]

    def columns(self, tasks):
        """M[:, tasks]: a new k x len(tasks) array."""
        return self._M[:, tasks]


def build_laplacian(g: TaskGraph) -> np.ndarray:
    L = np.zeros((g.k, g.k))
    i, j = (g.edges - 1).T
    L[i, j] = L[j, i] = -1.0
    np.fill_diagonal(L, np.count_nonzero(L, axis=1))  # neighbours per task
    return L


def build_interaction_model(g: TaskGraph) -> InteractionModel:
    L = build_laplacian(g)
    A = np.eye(g.k) + L
    M = np.linalg.solve(A, np.eye(g.k))
    M = (M + M.T) / 2.0
    residual = np.max(np.abs(A @ M - np.eye(g.k)))
    if residual > _SOLVE_TOL:
        raise NumericalFailure(
            "interaction solve residual %.3e exceeds %.1e" % (residual, _SOLVE_TOL))
    return InteractionModel(M)


def augment_graph(g: TaskGraph) -> TaskGraph:
    """Add a hub node k+1 connected to every existing node."""
    hub = g.k + 1
    spokes = np.column_stack((np.arange(1, hub), np.full(g.k, hub)))
    return TaskGraph(hub, np.concatenate((g.edges, spokes)))


def resistance_matrix(g: TaskGraph) -> np.ndarray:
    """Pairwise effective resistances of a connected graph.

    A graph is connected exactly when one eigenvalue of its Laplacian is 0,
    so more than one at or below the pseudo-inverse's cutoff raises.
    """
    L = build_laplacian(g)
    w, V = np.linalg.eigh(L)
    cutoff = _PINV_CUTOFF * max(np.max(np.abs(w)), 1.0)
    if np.count_nonzero(w <= cutoff) > 1:
        raise DisconnectedGraph("resistance distance needs a connected graph")
    inv_w = np.where(w > cutoff, 1.0 / np.where(w > cutoff, w, 1.0), 0.0)
    Lp = (V * inv_w) @ V.T
    d = np.diag(Lp)
    R = d[:, None] + d[None, :] - 2.0 * Lp
    np.fill_diagonal(R, 0.0)
    return np.maximum(R, 0.0)


def verify_proposition_3_1(g: TaskGraph) -> float:
    """Max abs deviation between M and its resistance-distance expression.

    The expression lives on the augmented graph: hub-connect, take the
    resistance matrix R, and combine row/column sums of R with its total
    mass and a constant offset.
    """
    k = g.k
    R = resistance_matrix(augment_graph(g))  # (k+1) x (k+1)
    row = R.sum(axis=1)  # over l = 1..k+1
    total = R.sum()
    n = k + 1
    rhs = (-0.5 * R[:k, :k]
           + row[:k, None] / (2.0 * n)
           + row[None, :k] / (2.0 * n)
           - total / (2.0 * n ** 2)  # total counts each unordered pair twice
           + (k + 2) / n ** 2)
    return float(np.max(np.abs(rhs - build_interaction_model(g)._M)))


def parse_graph_file(path) -> TaskGraph:
    """Read `k <int>` then one `<i> <j>` pair per line (1-based)."""
    edges = []
    k = None
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            toks = line.split()
            if k is None:
                if len(toks) != 2 or toks[0] != "k":
                    raise ParseError("expected `k <int>` header", line_no)
                try:
                    k = int(toks[1])
                except ValueError:
                    raise ParseError("bad task count %r" % toks[1], line_no)
                continue
            if len(toks) != 2:
                raise ParseError("expected `<i> <j>`", line_no)
            try:
                i, j = int(toks[0]), int(toks[1])
            except ValueError:
                raise ParseError("bad edge %r" % line, line_no)
            if i == j:
                raise ParseError("self-loop %d-%d" % (i, j), line_no)
            if not (1 <= i <= k and 1 <= j <= k):
                raise ParseError("edge %d-%d outside 1..%d" % (i, j, k), line_no)
            edges.append((i, j))
    if k is None:
        raise ParseError("empty graph file")
    try:
        return TaskGraph.from_edges(k, edges)
    except ValueError as exc:
        raise ParseError(str(exc))


def resolve_graph(spec, k=None) -> TaskGraph:
    """Keyword (`complete`, `disconnected`) or graph file path."""
    if spec in ("complete", "disconnected"):
        if k is None:
            raise ValueError("graph keyword %r needs an explicit task count" % spec)
        return TaskGraph.complete(k) if spec == "complete" else TaskGraph.edgeless(k)
    g = parse_graph_file(spec)
    if k is not None and g.k != k:
        raise ValueError("graph file declares k=%d but k=%d requested" % (g.k, k))
    return g
