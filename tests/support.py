"""Helpers shared by the test modules.

Learners and the active set take `kernels.Query` objects only. `queries_of`
builds the queries of a list of instances the way `run_stream` builds a
stream's, from a stream of them; `labelled` pairs them with their labels
for a test to step a learner on; `dense_of` gives a sparse query's dense form;
`instance_of` turns a stored query back into the instance the brute-force
`mt_kernel` / `base_kernel` oracles take. Those evaluate one pair at a time,
from the definitions, apart from the package's kernel columns; `mt_kernel`
takes M as an array, which `inverse_of` builds independently of
`build_interaction_model`.
`kernel_column` and `stored_vectors` read an active set's kernel column and
its store's vectors, which the package itself never needs whole.
An ActiveSet keeps everything by slot; `in_entry_order` and the `entry_*`
and `gram_inv` helpers read it in entry order (oldest first)
through its `order`, as the oracles index it.
`interaction_of` builds a graph's I + L, and `components_of` its connected
components, from its edge list alone.
`parse_by_line` is the line-by-line reference of `parse_dataset`.
"""

import math

import numpy as np

from mtbudget.data import DatasetStream
from mtbudget.errors import ParseError, TaskOutOfRange, ZeroNormInstance
from mtbudget.kernels import (KernelSpec, MultitaskInstance, Query, SparseVector,
                              folded_dim, make_queries)


def queries_of(instances, dim, spec):
    """The instances' queries, built by one `make_queries` call on a stream
    of them, as `run_stream` builds a stream's."""
    k = max((inst.task for inst in instances), default=1)
    return make_queries(DatasetStream(list(instances), np.ones(len(instances)), k, dim),
                        spec).queries


def labelled(instances, labels, dim, spec):
    """(query, label) pairs: the instances' queries, the labels as ints."""
    return list(zip(queries_of(instances, dim, spec), [int(y) for y in labels]))


def query_of(inst, dim, spec):
    """The query of one instance."""
    return queries_of([inst], dim, spec)[0]


def dense_of(query, dim, spec):
    """The dense form of a query of a `dim`-feature stream: the row
    `make_queries` builds for a dense stream."""
    if query.idx is None:
        return query
    x = np.zeros(folded_dim(dim, spec))
    x[query.idx] = query.x
    return Query(None, x, query.sq, query.task)


def instance_of(query, spec):
    """The instance a query describes (its dense zeros dropped), up to a
    scale no normalized kernel sees. `make_queries` stores a polynomial
    offset c as a last coordinate sqrt(c) / s, which gives the scale s back
    to undo, and drops it."""
    idx = np.flatnonzero(query.x) if query.idx is None else query.idx
    x = query.x[idx] if query.idx is None else query.x
    if spec.kind == "polynomial" and spec.offset > 0:
        idx, x = idx[:-1], x[:-1] * (math.sqrt(spec.offset) / x[-1])
    return MultitaskInstance(SparseVector(idx + 1, x), query.task)


def sparse_dot(a: SparseVector, b: SparseVector) -> float:
    """Dot product of two sparse vectors, matched id by id."""
    if a.indices.size > b.indices.size:
        a, b = b, a
    if a.indices.size == 0:
        return 0.0
    pos = np.searchsorted(b.indices, a.indices)
    pos = np.minimum(pos, b.indices.size - 1)
    hit = b.indices[pos] == a.indices
    return float(np.dot(a.values[hit], b.values[pos[hit]]))


def raw_kernel(a: SparseVector, b: SparseVector, spec: KernelSpec) -> float:
    """The base kernel of `spec` before normalization."""
    dot = sparse_dot(a, b)
    if spec.kind == "linear":
        return dot
    if spec.kind == "polynomial":
        return (dot + spec.offset) ** spec.degree
    sq_dist = sparse_dot(a, a) + sparse_dot(b, b) - 2.0 * dot
    return float(np.exp(-spec.gamma * max(sq_dist, 0.0)))


def base_kernel(a: SparseVector, b: SparseVector, spec: KernelSpec) -> float:
    """The configured base kernel, normalized when `spec` says so."""
    value = raw_kernel(a, b, spec)
    if not spec.normalize:
        return value
    saa = raw_kernel(a, a, spec)
    sbb = raw_kernel(b, b, spec)
    if saa <= 0.0 or sbb <= 0.0:
        raise ZeroNormInstance("cannot normalize a zero self-similarity instance")
    return value / float(np.sqrt(saa * sbb))


def mt_kernel(a: MultitaskInstance, b: MultitaskInstance, M, spec: KernelSpec) -> float:
    """The multitask kernel M[s, t] * K(x, x') of two instances."""
    return float(M[a.task - 1, b.task - 1]) * base_kernel(a.x, b.x, spec)


def inverse_of(g):
    """M = (I + L)^-1 of a TaskGraph, inverted from `interaction_of`."""
    return np.linalg.inv(interaction_of(g))


def kernel_column(s, query):
    """Configured-kernel values of the query against an ActiveSet's
    entries, in entry order."""
    if len(s) == 0:
        return np.zeros(0)
    return s._slot_column(query)[s.order]


def in_entry_order(s, per_slot):
    """An ActiveSet's per-slot values (weights, projection or
    back-projection coefficients, LOO residuals) at its entries, oldest
    first."""
    return per_slot[..., s.order]


def entry_weights(s):
    """A copy of an ActiveSet's weights in entry order."""
    return in_entry_order(s, s.weights)


def entry_query(s, j):
    """The Query the j-th oldest entry of an ActiveSet was inserted with."""
    return s._store.queries[s.order[j]]


def entry_queries(s):
    return [entry_query(s, j) for j in range(len(s))]


def entry_tasks(s):
    """One-based tasks of an ActiveSet's entries, oldest first."""
    return s.slot_tasks[s.order] + 1


def gram_inv(s):
    """A copy of an ActiveSet's H^-1 in entry order, its pending border
    folded in."""
    s._settle()
    return s._Hinv[np.ix_(s.order, s.order)]


def interaction_of(g):
    """A = I + L of a TaskGraph, entry by entry from its edges."""
    A = np.eye(g.k)
    for i, j in g.edges.tolist():
        A[i - 1, i - 1] += 1.0
        A[j - 1, j - 1] += 1.0
        A[i - 1, j - 1] -= 1.0
        A[j - 1, i - 1] -= 1.0
    return A


def components_of(g):
    """Connected component label (0-based) per task, by breadth-first search
    over the edge list."""
    neighbours = [[] for _ in range(g.k)]
    for i, j in g.edges.tolist():
        neighbours[i - 1].append(j - 1)
        neighbours[j - 1].append(i - 1)
    labels = [-1] * g.k
    count = 0
    for start in range(g.k):
        if labels[start] >= 0:
            continue
        labels[start] = count
        queue = [start]
        for v in queue:         # the queue grows while it is read
            for u in neighbours[v]:
                if labels[u] < 0:
                    labels[u] = count
                    queue.append(u)
        count += 1
    return labels


def stored_vectors(store):
    """A SlotStore's vectors as a d x capacity array, one column per slot."""
    if store.dense:
        return store.X
    out = np.zeros((store.dim, store.X.shape[1]))
    feats = np.flatnonzero(store.row)
    out[feats] = store.X[store.row[feats]]
    return out


def parse_by_line(path, k=None) -> DatasetStream:
    """Line-by-line reference of `parse_dataset`: one `MultitaskInstance`
    per row, each token through `int`/`float`, the first bad line raised
    as it is read."""
    instances = []
    labels = []
    max_task = 0
    max_feat = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            toks = line.split()
            if len(toks) < 2:
                raise ParseError("expected `<task> <label> ...`", line_no)
            try:
                task = int(toks[0])
            except ValueError:
                raise ParseError("bad task id %r" % toks[0], line_no)
            if task < 1 or (k is not None and task > k):
                raise TaskOutOfRange("line %d: task %d outside 1..%s"
                                     % (line_no, task, k if k else "?"))
            try:
                label = float(toks[1])
            except ValueError:
                raise ParseError("bad label %r" % toks[1], line_no)
            if not math.isfinite(label):
                raise ParseError("non-finite label %r" % toks[1], line_no)
            pairs = []
            for tok in toks[2:]:
                try:
                    idx_s, val_s = tok.split(":", 1)
                    idx, val = int(idx_s), float(val_s)
                except ValueError:
                    raise ParseError("bad feature token %r" % tok, line_no)
                if not math.isfinite(val):
                    raise ParseError("non-finite feature value %r" % tok, line_no)
                if idx < 1:
                    raise ParseError("feature ids are 1-based, got %d" % idx,
                                     line_no)
                pairs.append((idx, val))
            try:
                sv = SparseVector.from_pairs(pairs)
            except ValueError as exc:
                raise ParseError(str(exc), line_no)
            instances.append(MultitaskInstance(sv, task))
            labels.append(label)
            max_task = max(max_task, task)
            if sv.indices.size:     # sorted, so the last id is the largest
                max_feat = max(max_feat, int(sv.indices[-1]))
    return DatasetStream(instances, np.array(labels),
                         k if k is not None else max(max_task, 1), max_feat)
