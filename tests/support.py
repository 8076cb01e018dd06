"""Helpers shared by the test modules.

Learners and the active set take `kernels.Query` objects only. `labelled`
builds the (query, label) pairs a test steps a learner on, the way
`run_stream` builds them; `instance_of` turns a stored query back into the
instance the brute-force `mt_kernel` / `base_kernel` oracles take.
`kernel_column` and `stored_vectors` read an active set's kernel column and
its store's vectors, which the package itself never needs whole.
`interaction_of` builds a graph's I + L from its edge list alone.
"""

import numpy as np

from mtbudget.kernels import MultitaskInstance, SparseVector, make_queries


def labelled(instances, labels, dim, spec):
    """(query, label) pairs, the queries built by one `make_queries` call
    as `run_stream` builds a stream's, the labels as ints."""
    return list(zip(make_queries(instances, dim, spec), [int(y) for y in labels]))


def query_of(inst, dim, spec):
    """The query of one instance."""
    return make_queries([inst], dim, spec)[0]


def instance_of(query):
    """The instance a query describes (its dense zeros dropped)."""
    if query.idx is None:
        x = SparseVector.from_dense(query.x)
    else:
        x = SparseVector(query.idx + 1, query.x)
    return MultitaskInstance(x, query.task)


def kernel_column(s, query):
    """Configured-kernel values of the query against an ActiveSet's
    entries, in entry order."""
    if len(s) == 0:
        return np.zeros(0)
    return s._logical(s._slot_column(query))


def interaction_of(g):
    """A = I + L of a TaskGraph, entry by entry from its edges."""
    A = np.eye(g.k)
    for i, j in g.edges:
        A[i - 1, i - 1] += 1.0
        A[j - 1, j - 1] += 1.0
        A[i - 1, j - 1] -= 1.0
        A[j - 1, i - 1] -= 1.0
    return A


def stored_vectors(store):
    """A SlotStore's vectors as a d x capacity array, one column per slot."""
    if store.dense:
        return store.X
    out = np.zeros((store.dim, store.X.shape[1]))
    feats = np.flatnonzero(store.row)
    out[feats] = store.X[store.row[feats]]
    return out
