"""Dataset ingestion, preprocessing and synthetic stream generation.

The `mtsvm` line format is `<task> <label> <idx>:<val> ...` with 1-based
feature ids, `#` comments and real-valued labels permitted until
percentile binarization.

A stream is held as CSR (compressed sparse row) arrays, so its memory is
O(nnz) and no per-row object is built from the file to the queries.
`parse_dataset` reads the file in blocks of lines and converts each
block's tokens with one numpy call per column; only when a check fails
does it scan the file again, line by line, to name the first bad line.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import EmptyStream, ParseError, TaskOutOfRange
from .graph import TaskGraph
from .kernels import MultitaskInstance, SparseVector

# Bytes of lines `parse_dataset` reads per block: large enough that the
# per-block numpy calls amortize, small enough that the block's token
# strings stay a few MiB.
_BLOCK_BYTES = 1 << 18
_INT64_MAX = int(np.iinfo(np.int64).max)
# every byte but the two separators of a joined `id:value id:value ...` run
_NOT_SEPARATOR = bytes(b for b in range(256) if b not in b": ")


def _frozen(values, dtype):
    """A read-only view of `values` as `dtype`: streams share their arrays,
    so a write through one must not change another."""
    out = np.asarray(values, dtype=dtype).view()
    out.flags.writeable = False
    return out


@dataclass
class DatasetStream:
    """Ordered multitask examples as CSR arrays; labels may be real before
    binarization.

    Row r holds the 1-based, strictly increasing feature ids
    `ids[indptr[r]:indptr[r+1]]`, their `values` and the 1-based task
    `tasks[r]`; `labels[r]` is its label. Every array is read-only. Every
    task must lie in 1..k (TaskOutOfRange otherwise) and every id in 1..d
    (ValueError).
    Build a stream from `rows = (indptr, ids, values, tasks)`; a list of
    MultitaskInstances is also accepted and converted once.
    """

    rows: InitVar[object]
    labels: np.ndarray
    k: int
    d: int
    indptr: np.ndarray = field(init=False)
    ids: np.ndarray = field(init=False)
    values: np.ndarray = field(init=False)
    tasks: np.ndarray = field(init=False)

    def __post_init__(self, rows):
        if isinstance(rows, list):
            rows = _csr_of_instances(rows)
        indptr, ids, values, tasks = rows
        self.indptr = _frozen(indptr, np.int64)
        self.ids = _frozen(ids, np.int64)
        self.values = _frozen(values, np.float64)
        self.tasks = _frozen(tasks, np.int64)
        self.labels = _frozen(self.labels, np.float64)
        n = self.labels.size
        if (self.indptr.shape != (n + 1,) or self.tasks.shape != (n,)
                or self.ids.shape != self.values.shape
                or self.ids.shape != (int(self.indptr[-1]),)):
            raise ValueError("inconsistent stream arrays: %d labels, %d tasks, "
                             "indptr of %d, %d ids and %d values"
                             % (n, self.tasks.size, self.indptr.size,
                                self.ids.size, self.values.size))
        bad = np.flatnonzero((self.tasks < 1) | (self.tasks > self.k))
        if bad.size:
            raise TaskOutOfRange("example %d has task %d, outside 1..%d"
                                 % (bad[0] + 1, self.tasks[bad[0]], self.k))
        bad = np.flatnonzero((self.ids < 1) | (self.ids > self.d))
        if bad.size:
            row = np.searchsorted(self.indptr, bad[0], "right")    # one-based
            raise ValueError("example %d has feature id %d, outside 1..%d"
                             % (row, self.ids[bad[0]], self.d))

    def __len__(self):
        return self.labels.size

    @property
    def binary(self) -> bool:
        return bool(np.all(np.isin(self.labels, (-1.0, 1.0))))

    @property
    def instances(self):
        """The rows as MultitaskInstances, built on each read; the package
        itself never reads them."""
        bounds = self.indptr.tolist()
        return [MultitaskInstance(SparseVector(self.ids[a:b], self.values[a:b]), t)
                for a, b, t in zip(bounds, bounds[1:], self.tasks.tolist())]


def _indptr(counts):
    """CSR row bounds of rows holding `counts` entries each."""
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def _csr_of_instances(instances):
    indptr = _indptr([inst.x.indices.size for inst in instances])
    ids = np.concatenate([inst.x.indices for inst in instances] + [np.zeros(0, np.int64)])
    values = np.concatenate([inst.x.values for inst in instances] + [np.zeros(0)])
    tasks = np.array([inst.task for inst in instances], dtype=np.int64)
    return indptr, ids, values, tasks


@dataclass
class ReferenceTaskSet:
    """Known per-task reference vectors, one row per task, plus shifts."""

    weights: np.ndarray                      # k x d
    shifts: list = field(default_factory=list)  # [(step, k x d), ...]

    def sequence(self):
        return [self.weights] + [w for _, w in self.shifts]


def parse_dataset(path, k=None) -> DatasetStream:
    """Load an mtsvm file; validates tasks against k when given.

    `_read_columns` converts the file block by block. The checks of ranges,
    finiteness and duplicate ids then run on the whole arrays, after rows
    with unsorted ids are sorted. Any failure re-reads the file with
    `_raise_first_error`, which names the first bad line.
    """
    columns = _read_columns(path)
    if columns is None:
        _raise_first_error(path, k)
    counts, tasks, labels, ids, values = columns
    indptr = _indptr(counts)
    row = np.repeat(np.arange(counts.size), counts)
    same_row = row[1:] == row[:-1]
    if np.any((np.diff(ids) <= 0) & same_row):
        order = np.lexsort((ids, row))
        ids, values = ids[order], values[order]
    if (not (np.all(np.isfinite(labels)) and np.all(np.isfinite(values)))
            or np.any(tasks < 1) or (k is not None and np.any(tasks > k))
            or np.any(ids < 1) or np.any((np.diff(ids) == 0) & same_row)):
        _raise_first_error(path, k)
    if k is None:
        k = max(int(tasks.max(initial=0)), 1)
    return DatasetStream((indptr, ids, values, tasks), labels, k,
                         int(ids.max(initial=0)))


def _read_columns(path):
    """(features per row, tasks, labels, ids, values) of an mtsvm file,
    each row's ids in file order; None when a token does not convert, a
    row has no label, or a feature token is not exactly `id:value`.

    Each block of lines gets one `split` per line and one numpy conversion
    per column.
    """
    counts, tasks, labels, ids, values = [], [], [], [], []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            while True:
                lines = fh.readlines(_BLOCK_BYTES)
                if not lines:
                    break
                block_tasks, block_labels, feats = [], [], []
                for line in lines:
                    if "#" in line:
                        line = line[:line.index("#")]
                    toks = line.split()
                    if toks:
                        block_tasks.append(toks[0])
                        block_labels.append(toks[1])
                        counts.append(len(toks) - 2)
                        feats += toks[2:]
                tasks.append(np.array(block_tasks, dtype=np.int64))
                labels.append(np.array(block_labels, dtype=np.float64))
                if feats:
                    # one colon per token, so the separators alternate, and
                    # two nonempty fields per token
                    text = " ".join(feats)
                    seps = text.encode("utf-8").translate(None, _NOT_SEPARATOR)
                    fields = text.replace(":", " ").split()
                    if (seps != b": " * (len(feats) - 1) + b":"
                            or len(fields) != 2 * len(feats)):
                        return None
                    ids.append(np.array(fields[0::2], dtype=np.int64))
                    values.append(np.array(fields[1::2], dtype=np.float64))
    except (ValueError, IndexError, OverflowError):
        return None
    # one column at a time, so that only one column's blocks are ever copied
    ids = np.concatenate(ids + [np.zeros(0, np.int64)])
    values = np.concatenate(values + [np.zeros(0)])
    return (np.array(counts, dtype=np.int64),
            np.concatenate(tasks + [np.zeros(0, np.int64)]),
            np.concatenate(labels + [np.zeros(0)]), ids, values)


def _raise_first_error(path, k):
    """Re-read an mtsvm file line by line and raise the error of its first
    bad line: ParseError with the line number, or TaskOutOfRange."""
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            toks = raw.split("#", 1)[0].split()
            if not toks:
                continue
            if len(toks) < 2:
                raise ParseError("expected `<task> <label> ...`", line_no)
            try:
                task = int(toks[0])
            except ValueError:
                raise ParseError("bad task id %r" % toks[0], line_no)
            if task < 1 or task > _INT64_MAX or (k is not None and task > k):
                raise TaskOutOfRange("line %d: task %d outside 1..%s"
                                     % (line_no, task, k if k else "?"))
            try:
                label = float(toks[1])
            except ValueError:
                raise ParseError("bad label %r" % toks[1], line_no)
            if not math.isfinite(label):
                raise ParseError("non-finite label %r" % toks[1], line_no)
            seen = set()
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
                if idx > _INT64_MAX:
                    raise ParseError("feature id %d does not fit in 64 bits" % idx,
                                     line_no)
                seen.add(idx)
            if len(seen) < len(toks) - 2:
                raise ParseError("duplicate feature id", line_no)
    raise ParseError("%s: malformed dataset" % path)


def write_dataset(stream: DatasetStream, path):
    bounds = stream.indptr.tolist()
    ids, values = stream.ids.tolist(), stream.values.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        for a, b, task, y in zip(bounds, bounds[1:], stream.tasks.tolist(),
                                 stream.labels.tolist()):
            label = "%+d" % int(y) if y in (-1.0, 1.0) else "%.17g" % y
            feats = " ".join("%d:%.17g" % iv for iv in zip(ids[a:b], values[a:b]))
            fh.write(("%d %s %s" % (task, label, feats)).rstrip() + "\n")


def binarize_by_percentile(stream: DatasetStream, pct=75.0) -> DatasetStream:
    """Scores strictly above the pct-th percentile become +1, the rest -1.
    The new stream shares the features and tasks of `stream`."""
    if len(stream) == 0:
        raise EmptyStream("cannot binarize an empty stream")
    threshold = float(np.percentile(stream.labels, pct))
    labels = np.where(stream.labels > threshold, 1.0, -1.0)
    return DatasetStream((stream.indptr, stream.ids, stream.values, stream.tasks),
                         labels, stream.k, stream.d)


def rescale_features(stream: DatasetStream) -> DatasetStream:
    """Affinely map each non-binary feature's observed values onto [0, 1].

    Only stored values are observed: a feature's implicit zeros do not
    move its range. A feature seen with one value only maps it to 0, and
    values that map to 0 are dropped.
    """
    ids, vals = stream.ids, stream.values
    size = int(ids.max()) + 1 if ids.size else 0
    lo = np.full(size, np.inf)
    hi = np.full(size, -np.inf)
    scaled = np.zeros(size, dtype=bool)     # observed a value other than 0, 1
    np.minimum.at(lo, ids, vals)
    np.maximum.at(hi, ids, vals)
    np.logical_or.at(scaled, ids, (vals != 0.0) & (vals != 1.0))
    lo, span, scaled = lo[ids], hi[ids] - lo[ids], scaled[ids]
    new = np.where(scaled, 0.0, vals)
    moved = scaled & (span != 0.0)
    new[moved] = (vals[moved] - lo[moved]) / span[moved]
    keep = new != 0.0
    # sorted ids stay sorted when zeros drop out, so rows are cut, not rebuilt
    kept_before = np.concatenate(([0], np.cumsum(keep)))
    return DatasetStream((kept_before[stream.indptr], ids[keep], new[keep],
                          stream.tasks), stream.labels, stream.k, stream.d)


def _unit(v):
    return v / np.linalg.norm(v)


def _random_rotation(d, angle, rng):
    """Rotation by `angle` in the plane of two random orthonormal vectors."""
    p = _unit(rng.standard_normal(d))
    q = rng.standard_normal(d)
    q = _unit(q - np.dot(q, p) * p)
    c, s = np.cos(angle), np.sin(angle)
    return (np.eye(d) + (c - 1.0) * (np.outer(p, p) + np.outer(q, q))
            + s * (np.outer(q, p) - np.outer(p, q)))


def generate_synthetic(k, d, n, relatedness, noise, shift_schedule=None,
                       seed=0, min_margin=0.0):
    """Round-robin multitask stream with known reference classifiers.

    Task vectors mix a shared direction with per-task perturbations
    (`relatedness` = 1 makes all tasks identical). Labels are the signs of
    the reference scores, flipped with probability `noise`. An optional
    schedule [(step, angle), ...] rotates all reference vectors at the
    scheduled steps; `min_margin` rejection-samples instances whose
    reference score magnitude falls below the margin.
    """
    for name, value, least in (("k", k, 1), ("d", d, 1), ("n", n, 0)):
        if value < least:
            raise ValueError("%s must be at least %d, got %d" % (name, least, value))
    if not 0.0 <= relatedness <= 1.0:
        raise ValueError("relatedness must lie in [0,1]")
    if not 0.0 <= noise < 1.0:
        raise ValueError("noise must lie in [0,1)")
    rng = np.random.default_rng(seed)
    u = _unit(rng.standard_normal(d))
    g = np.empty((k, d))
    for i in range(k):
        v = _unit(rng.standard_normal(d))
        g[i] = _unit(relatedness * u + (1.0 - relatedness) * v)
    refs = ReferenceTaskSet(g.copy())
    schedule = sorted(shift_schedule or [])
    X = np.empty((n, d))
    tasks = np.arange(n, dtype=np.int64) % k + 1
    labels = np.empty(n)
    current = g.copy()
    next_shift = 0
    for t in range(1, n + 1):
        while next_shift < len(schedule) and schedule[next_shift][0] == t:
            rot = _random_rotation(d, schedule[next_shift][1], rng)
            current = current @ rot.T
            refs.shifts.append((t, current.copy()))
            next_shift += 1
        gi = current[tasks[t - 1] - 1]
        for _ in range(10000):
            x = _unit(rng.standard_normal(d))
            score = float(np.dot(gi, x))
            if abs(score) >= min_margin:
                break
        else:
            raise RuntimeError("margin rejection sampling did not terminate")
        y = 1.0 if score >= 0.0 else -1.0
        if noise > 0.0 and rng.random() < noise:
            y = -y
        X[t - 1] = x
        labels[t - 1] = y
    rows, cols = np.nonzero(X)
    return DatasetStream((_indptr(np.count_nonzero(X, axis=1)), cols + 1,
                          X[rows, cols], tasks), labels, k, d), refs


def shift_term(refs: ReferenceTaskSet, graph: TaskGraph):
    """(total shift, per-step trace values) of a reference sequence.

    Each consecutive difference contributes
    sqrt(sum_i |dg_i|^2 + sum_{(i,j) in E} |dg_i - dg_j|^2); the trace of
    step t is sum_i |g_i|^2 + sum_{(i,j) in E} |g_i - g_j|^2, the quantity
    capped by the comparison-class inequalities.
    """
    seq = refs.sequence()
    i, j = (graph.edges - 1).T

    def quad_form(mat):
        diff = mat[i] - mat[j]
        return float(np.sum(mat * mat)) + float(np.sum(diff * diff))

    total_shift = 0.0
    for prev, cur in zip(seq, seq[1:]):
        total_shift += float(np.sqrt(quad_form(cur - prev)))
    traces = [quad_form(mat) for mat in seq]
    return total_shift, traces
