"""Task-relation graphs, the interaction matrix and resistance distances.

The graph over tasks induces a Laplacian L, the interaction matrix
A = I + L, its inverse M and the constant c_G = max_i sqrt(M_ii) that
bounds the norm of every multitask feature vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DisconnectedGraph, NumericalFailure, ParseError

_SOLVE_TOL = 1e-9
_PINV_CUTOFF = 1e-12


@dataclass(frozen=True)
class TaskGraph:
    """Undirected graph over tasks 1..k, edges stored as sorted pairs."""

    k: int
    edges: frozenset

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("need at least one task, got k=%d" % self.k)
        for (i, j) in self.edges:
            if not (1 <= i < j <= self.k):
                raise ValueError("bad edge (%r, %r) for k=%d" % (i, j, self.k))

    @staticmethod
    def from_edges(k, edges):
        canon = set()
        for (i, j) in edges:
            if i == j:
                raise ValueError("self-loop (%d, %d)" % (i, j))
            pair = (i, j) if i < j else (j, i)
            if pair in canon:
                raise ValueError("duplicate edge %r" % (pair,))
            canon.add(pair)
        return TaskGraph(k, frozenset(canon))

    @staticmethod
    def complete(k):
        return TaskGraph(k, frozenset((i, j) for i in range(1, k + 1)
                                      for j in range(i + 1, k + 1)))

    @staticmethod
    def edgeless(k):
        return TaskGraph(k, frozenset())

    @staticmethod
    def path(k):
        return TaskGraph(k, frozenset((i, i + 1) for i in range(1, k)))

    @property
    def degree(self):
        d = np.zeros(self.k, dtype=int)
        for (i, j) in self.edges:
            d[i - 1] += 1
            d[j - 1] += 1
        return d

    def components(self):
        """Connected component label (0-based) per task."""
        parent = list(range(self.k))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for (i, j) in self.edges:
            ri, rj = find(i - 1), find(j - 1)
            if ri != rj:
                parent[ri] = rj
        roots = {}
        labels = np.empty(self.k, dtype=int)
        for v in range(self.k):
            r = find(v)
            labels[v] = roots.setdefault(r, len(roots))
        return labels

    def is_connected(self):
        return len(set(self.components())) <= 1


@dataclass(frozen=True)
class InteractionModel:
    """M = (I + L)^-1 and c_G for one task graph."""

    inverse: np.ndarray
    cG: float

    @property
    def k(self):
        return self.inverse.shape[0]


def build_laplacian(g: TaskGraph) -> np.ndarray:
    L = np.zeros((g.k, g.k))
    for (i, j) in g.edges:
        L[i - 1, j - 1] = -1.0
        L[j - 1, i - 1] = -1.0
    np.fill_diagonal(L, g.degree.astype(float))
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
    cG = float(np.sqrt(np.max(np.diag(M))))
    return InteractionModel(inverse=M, cG=cG)


def augment_graph(g: TaskGraph) -> TaskGraph:
    """Add a hub node k+1 connected to every existing node."""
    hub = g.k + 1
    edges = set(g.edges)
    edges.update((i, hub) for i in range(1, hub))
    return TaskGraph(hub, frozenset(edges))


def resistance_matrix(g: TaskGraph) -> np.ndarray:
    """Pairwise effective resistances of a connected graph."""
    if not g.is_connected():
        raise DisconnectedGraph("resistance distance needs a connected graph")
    L = build_laplacian(g)
    w, V = np.linalg.eigh(L)
    cutoff = _PINV_CUTOFF * max(np.max(np.abs(w)), 1.0)
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
    model = build_interaction_model(g)
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
    return float(np.max(np.abs(rhs - model.inverse)))


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
