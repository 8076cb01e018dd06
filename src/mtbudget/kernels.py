"""Base kernels, the graph-induced multitask kernel and the queries the
learners step on.

All learners require the normalized form of the base kernel, so that
every single-task instance has unit self-similarity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import NumericalFailure, ZeroNormInstance
from .graph import InteractionModel


@dataclass(frozen=True)
class SparseVector:
    """Sorted sparse vector: strictly increasing 1-based feature ids."""

    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        val = np.asarray(self.values, dtype=np.float64)
        if idx.shape != val.shape or idx.ndim != 1:
            raise ValueError("indices/values shape mismatch")
        if idx.size and (np.any(np.diff(idx) <= 0) or idx[0] < 1):
            raise ValueError("indices must be strictly increasing and >= 1")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", val)

    @staticmethod
    def from_pairs(pairs):
        pairs = sorted(pairs)
        return SparseVector(np.array([i for i, _ in pairs], dtype=np.int64),
                            np.array([v for _, v in pairs], dtype=np.float64))

    @staticmethod
    def from_dense(arr):
        arr = np.asarray(arr, dtype=np.float64)
        nz = np.nonzero(arr)[0]
        return SparseVector(nz + 1, arr[nz])

    def to_dense(self, dim):
        out = np.zeros(dim)
        if self.indices.size:
            out[self.indices - 1] = self.values
        return out

    def dot(self, other: "SparseVector") -> float:
        a, b = self, other
        if a.indices.size > b.indices.size:
            a, b = b, a
        if a.indices.size == 0:
            return 0.0
        pos = np.searchsorted(b.indices, a.indices)
        pos = np.minimum(pos, b.indices.size - 1)
        hit = b.indices[pos] == a.indices
        return float(np.dot(a.values[hit], b.values[pos[hit]]))

    def sq_norm(self) -> float:
        return float(np.dot(self.values, self.values))


@dataclass(frozen=True)
class MultitaskInstance:
    x: SparseVector
    task: int

    def __post_init__(self):
        if self.task < 1:
            raise ValueError("task ids are 1-based")


@dataclass(frozen=True)
class KernelSpec:
    """Base kernel choice: linear, poly:<degree>:<offset>, gauss:<gamma>."""

    kind: str = "linear"
    degree: int = 1
    offset: float = 0.0
    gamma: float = 1.0
    normalize: bool = False

    def __post_init__(self):
        if self.kind not in ("linear", "polynomial", "gaussian"):
            raise ValueError("unknown kernel kind %r" % self.kind)
        if not (np.isfinite(self.gamma) and np.isfinite(self.offset)):
            raise ValueError("kernel gamma and offset must be finite, got "
                             "gamma=%r offset=%r" % (self.gamma, self.offset))
        if self.kind == "polynomial" and (self.degree < 1 or self.offset < 0):
            raise ValueError("polynomial needs degree >= 1 and offset >= 0")
        if self.kind == "gaussian" and self.gamma <= 0:
            raise ValueError("gaussian needs gamma > 0")

    @staticmethod
    def parse(text: str) -> "KernelSpec":
        parts = text.strip().split(":")
        normalize = False
        if parts and parts[-1] == "norm":
            normalize = True
            parts = parts[:-1]
        if not parts:
            raise ValueError("empty kernel spec")
        kind = parts[0]
        if kind == "linear" and len(parts) == 1:
            return KernelSpec("linear", normalize=normalize)
        if kind == "poly" and len(parts) == 3:
            return KernelSpec("polynomial", degree=int(parts[1]),
                              offset=float(parts[2]), normalize=normalize)
        if kind == "gauss" and len(parts) == 2:
            return KernelSpec("gaussian", gamma=float(parts[1]),
                              normalize=normalize)
        raise ValueError("cannot parse kernel spec %r" % text)

    def to_string(self) -> str:
        if self.kind == "linear":
            base = "linear"
        elif self.kind == "polynomial":
            base = "poly:%d:%g" % (self.degree, self.offset)
        else:
            base = "gauss:%g" % self.gamma
        return base + (":norm" if self.normalize else "")


def _raw(a: SparseVector, b: SparseVector, spec: KernelSpec) -> float:
    dot = a.dot(b)
    if spec.kind == "linear":
        return dot
    if spec.kind == "polynomial":
        return (dot + spec.offset) ** spec.degree
    sq_dist = a.sq_norm() + b.sq_norm() - 2.0 * dot
    return float(np.exp(-spec.gamma * max(sq_dist, 0.0)))


def base_kernel(a: SparseVector, b: SparseVector, spec: KernelSpec) -> float:
    value = _raw(a, b, spec)
    if not spec.normalize:
        return value
    saa = _raw(a, a, spec)
    sbb = _raw(b, b, spec)
    if saa <= 0.0 or sbb <= 0.0:
        raise ZeroNormInstance("cannot normalize a zero self-similarity instance")
    return value / float(np.sqrt(saa * sbb))


def mt_kernel(a: MultitaskInstance, b: MultitaskInstance,
              m: InteractionModel, spec: KernelSpec) -> float:
    return float(m.inverse[a.task - 1, b.task - 1]) * base_kernel(a.x, b.x, spec)


# -- fast paths: stored vectors feature-major, queries dense or sparse --

# A stream whose rows fill less than this fraction of the d features on
# average keeps its queries sparse (see `make_queries`). Measured on 2
# cores, d=200-5000, B=65-700: the column gather beats the dense column
# below a density of about 0.2 on the feature-major slot store that
# ActiveSet and the Perceptron battery share.
SPARSE_DENSITY = 0.1


class Query(NamedTuple):
    """One instance prepared for kernel columns, built once per example;
    the only per-example input of the active set and the learners.

    Sparse form: `idx` holds the zero-based ids of the nonzero features and
    `x` their values. Dense form: `idx` is None and `x` is the whole row.
    `task` is the instance's 1-based task.
    """

    idx: Optional[np.ndarray]
    x: np.ndarray
    self_raw: float
    sq: float
    task: int


def make_queries(stream, spec: KernelSpec):
    """Queries of every row of a DatasetStream, all in one form.

    The form follows the mean density of the rows: below SPARSE_DENSITY a
    kernel column reads the stored vectors only at the query's nonzeros, which
    costs O(B * nnz) instead of the dense row's O(B * d). A sparse query's
    arrays are views into one zero-based copy of the stream's ids and into
    its values; a dense query's row is a view into one n x d scatter of the
    stream. All of them are read-only.

    Under a normalized kernel a zero-norm instance raises ZeroNormInstance
    naming its position (1-based) and task. A raw self kernel whose square
    is not finite raises NumericalFailure: no kernel value, normalized or
    not, could then be trusted.
    """
    n, dim, indptr = len(stream), stream.d, stream.indptr
    sparse = stream.ids.size < SPARSE_DENSITY * dim * n
    if sparse:
        idx = stream.ids - 1
        idx.flags.writeable = False
        bounds = indptr.tolist()
        rows = [(idx[a:b], stream.values[a:b]) for a, b in zip(bounds, bounds[1:])]
    else:
        X = np.zeros((n, dim))
        X[np.repeat(np.arange(n), np.diff(indptr)), stream.ids - 1] = stream.values
        X.flags.writeable = False
        rows = [(None, x) for x in X]
    out = []
    for pos, ((idx, x), task) in enumerate(zip(rows, stream.tasks.tolist()), start=1):
        q_self = dense_self_raw(x, spec)
        if spec.normalize and q_self <= 0.0:
            raise ZeroNormInstance(
                "example %d (task %d) has zero norm, which a normalized "
                "kernel cannot scale" % (pos, task))
        if not math.isfinite(q_self * q_self):
            raise NumericalFailure(
                "example %d (task %d): kernel %s gives the raw self kernel %r, "
                "whose square is not finite" % (pos, task, spec.to_string(), q_self))
        # the linear raw self kernel is the squared norm
        sq = q_self if spec.kind == "linear" else float(np.dot(x, x))
        out.append(Query(idx, x, q_self, sq, task))
    return out


def dense_self_raw(x: np.ndarray, spec: KernelSpec) -> float:
    """Raw self-similarity of one dense row (inf if it overflows)."""
    if spec.kind == "gaussian":
        return 1.0
    sq = float(np.dot(x, x))
    if spec.kind == "linear":
        return sq
    try:
        return (sq + spec.offset) ** spec.degree
    except OverflowError:
        return math.inf


def dense_kernel_vector(X: np.ndarray, self_raw: np.ndarray,
                        sq_norms: np.ndarray, q: np.ndarray,
                        q_self: float, q_sq: float,
                        spec: KernelSpec) -> np.ndarray:
    """Kernel of dense query q against every column of X, honoring normalize.

    X is feature-major, one column per stored vector, as a SlotStore holds
    them. `self_raw` and `sq_norms` are the per-column raw self kernels and
    squared norms cached at insertion time; `q_self`, `q_sq` the query
    counterparts.
    """
    dots = q @ X
    if spec.kind == "linear":
        raw = dots
    elif spec.kind == "polynomial":
        raw = (dots + spec.offset) ** spec.degree
    else:
        sq_dist = np.maximum(sq_norms + q_sq - 2.0 * dots, 0.0)
        raw = np.exp(-spec.gamma * sq_dist)
    if not spec.normalize:
        return raw
    return raw / np.sqrt(self_raw * q_self)
