"""Base kernels and the queries the learners step on.

All learners require the normalized form of the base kernel, so that
every single-task instance has unit self-similarity; `make_queries` folds
it into every row once, so a kernel column is one matrix-vector product.
Its result, a stream's `Prepared` input for one kernel, is arrays only and
the only input of a run; the stream keeps it (`DatasetStream.prepared`).
A step's `Query` is cut from it by `Prepared.query` and lives only while
the step uses it."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import NumericalFailure, ZeroNormInstance


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

        def number(cast, field):
            try:
                return cast(field)
            except ValueError as err:
                raise ValueError("cannot parse kernel spec %r: %s" % (text, err)) from None

        if kind == "linear" and len(parts) == 1:
            return KernelSpec("linear", normalize=normalize)
        if kind == "poly" and len(parts) == 3:
            return KernelSpec("polynomial", degree=number(int, parts[1]),
                              offset=number(float, parts[2]), normalize=normalize)
        if kind == "gauss" and len(parts) == 2:
            return KernelSpec("gaussian", gamma=number(float, parts[1]),
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


# -- stored vectors feature-major, queries dense or sparse --

# A stream whose rows fill less than this fraction of the d features on
# average keeps its queries sparse (see `make_queries`). Measured on 2
# cores, d=200-5000, B=65-700: the column gather beats the dense column
# below a density of about 0.2 on the feature-major slot store that
# ActiveSet and the Perceptron battery share.
SPARSE_DENSITY = 0.1


class Query(NamedTuple):
    """Row r of a stream's prepared input as the core's per-example input,
    cut by `Prepared.query` for the step that uses it.

    Sparse form: `idx` holds the zero-based ids of the nonzero features and
    `x` their values. Dense form: `idx` is None and `x` is the whole row.
    `x` is folded into the kernel (`make_queries`), `sq` is its squared norm
    (only the gaussian reads it) and `task` the zero-based task."""

    idx: Optional[np.ndarray]
    x: np.ndarray
    sq: float
    task: int


class Prepared(NamedTuple):
    """A stream's rows prepared for one kernel by `make_queries`, arrays
    only: the only input of a run.

    A dense stream has `X`, its n x d' array of folded rows; a sparse one X
    None and the CSR arrays of its folded rows, row r being
    `idx[indptr[r]:indptr[r + 1]]` with its `values`. `sq`, `tasks` and
    `labels` hold the rows' squared norms, zero-based tasks and int labels.
    `rows(i, j)` is the input of rows i..j-1, every array a view."""

    spec: KernelSpec
    X: Optional[np.ndarray]
    indptr: Optional[np.ndarray]
    idx: Optional[np.ndarray]
    values: Optional[np.ndarray]
    sq: np.ndarray
    tasks: np.ndarray
    labels: list

    def query(self, r):
        """Row r's Query, of views: the one place a Query is built, with
        tuple.__new__, in C; Query's own __new__ is Python code."""
        sq, task = self.sq.item(r), self.tasks.item(r)
        if self.X is not None:
            return tuple.__new__(Query, (None, self.X[r], sq, task))
        a, b = self.indptr.item(r), self.indptr.item(r + 1)
        return tuple.__new__(Query, (self.idx[a:b], self.values[a:b], sq, task))

    def rows(self, i, j):
        X = None if self.X is None else self.X[i:j]
        indptr = None if self.indptr is None else self.indptr[i:j + 1]
        return Prepared(self.spec, X, indptr, self.idx, self.values, self.sq[i:j],
                        self.tasks[i:j], self.labels[i:j])


def require_normalized(spec: KernelSpec):
    """The learners' kernels: normalized, or gaussian (already so)."""
    if not spec.normalize and spec.kind != "gaussian":
        raise ValueError("learners require a normalized kernel (`:norm`)")


def folded_dim(dim, spec: KernelSpec):
    """Query length of a `dim`-feature stream (see `make_queries`)."""
    return dim + int(spec.kind == "polynomial" and spec.offset > 0)


def make_queries(stream, spec: KernelSpec) -> Prepared:
    """The Prepared input of a DatasetStream for `spec`, every row folded
    into a kernel `require_normalized` accepts so that the kernel is a power
    of the plain dot product: `linear:norm` stores x / |x|, `poly:p:c:norm`
    (x, sqrt(c)) / sqrt(|x|^2 + c), whose extra coordinate is feature id d
    and exists only when c > 0, and a gaussian keeps x.

    Below a mean row density of SPARSE_DENSITY the rows stay sparse, in one
    copy of the folded CSR arrays, so a kernel column costs O(B * nnz), not
    O(B * d); otherwise they form one n x d' array. Both are read-only, and
    no per-row object is built. A zero-norm instance raises ZeroNormInstance,
    and a raw self kernel whose square is not finite (for the gaussian,
    |x|^2) NumericalFailure, naming its position and task. Runs read the
    input through `DatasetStream.prepared`, once per stream and kernel.
    """
    require_normalized(spec)
    n, dim, indptr = len(stream), stream.d, stream.indptr
    sparse = stream.ids.size < SPARSE_DENSITY * dim * n
    row_of = np.repeat(np.arange(n), np.diff(indptr))
    idx, values, X, norm = stream.ids - 1, stream.values, None, None
    offset = spec.offset if spec.kind == "polynomial" else 0.0
    gaussian = spec.kind == "gaussian"
    with np.errstate(over="ignore"):
        sq = np.bincount(row_of, values * values, minlength=n)
        raw = (sq + offset) ** spec.degree if spec.kind == "polynomial" else sq
        bad = np.flatnonzero(~np.isfinite(sq) if gaussian
                             else (raw <= 0.0) | ~np.isfinite(raw * raw))
    if bad.size:
        row = bad[0]
        where = "example %d (task %d)" % (row + 1, stream.tasks[row])
        if raw[row] <= 0.0:
            raise ZeroNormInstance("%s has zero norm, which a normalized kernel "
                                   "cannot scale" % where)
        what = ("squared norm %r, which is" if gaussian
                else "raw self kernel %r, whose square is") % float(raw[row])
        raise NumericalFailure("%s: kernel %s gives the %s not finite"
                               % (where, spec.to_string(), what))
    # Both forms hold x / norm and sqrt(offset) / norm, so they agree bitwise.
    if not gaussian:
        norm, sq = np.sqrt(sq + offset), np.ones(n)
    if sparse:
        if norm is not None:
            values = values / norm[row_of]
            if offset:
                idx = np.insert(idx, indptr[1:], dim)
                values = np.insert(values, indptr[1:], math.sqrt(offset) / norm)
                indptr = indptr + np.arange(n + 1)
        idx.flags.writeable = values.flags.writeable = indptr.flags.writeable = False
    else:
        X = np.zeros((n, folded_dim(dim, spec)))
        X[row_of, idx] = values
        if norm is not None:
            X[:, dim:] = math.sqrt(offset)     # the extra column, if any
            X /= norm[:, None]
        X.flags.writeable = False
        indptr = idx = values = None
    tasks = stream.tasks - 1    # the one place a task id becomes an index
    sq.flags.writeable = tasks.flags.writeable = False
    return Prepared(spec, X, indptr, idx, values, sq, tasks,
                    stream.labels.astype(np.int64).tolist())


def dense_kernel_vector(X: np.ndarray, sq_norms: np.ndarray, q: np.ndarray,
                        q_sq: float, spec: KernelSpec) -> np.ndarray:
    """Kernel of the folded query q against every column of X.

    X is feature-major, one column per stored vector, as a SlotStore holds
    them; `sq_norms` and `q_sq` are the squared norms the gaussian reads.
    A 2-D q is a block of queries, one per row, with `q_sq` an array of
    their squared norms; the result then has one row per query.
    """
    dots = q @ X
    if spec.kind == "linear":
        return dots
    if spec.kind == "polynomial":
        return dots ** spec.degree
    if dots.ndim == 2:
        q_sq = q_sq[:, None]
    return np.exp(-spec.gamma * np.maximum(sq_norms + q_sq - 2.0 * dots, 0.0))
