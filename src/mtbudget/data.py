"""Dataset ingestion, preprocessing and synthetic stream generation.

The `mtsvm` line format is `<task> <label> <idx>:<val> ...` with 1-based
feature ids, `#` comments and real-valued labels permitted until
percentile binarization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyStream, ParseError, TaskOutOfRange
from .graph import TaskGraph
from .kernels import MultitaskInstance, SparseVector


@dataclass
class DatasetStream:
    """Ordered multitask examples; labels may be real before binarization."""

    instances: list
    labels: np.ndarray
    k: int
    d: int

    def __len__(self):
        return len(self.instances)

    @property
    def binary(self) -> bool:
        return bool(np.all(np.isin(self.labels, (-1.0, 1.0))))


@dataclass
class ReferenceTaskSet:
    """Known per-task reference vectors, one row per task, plus shifts."""

    weights: np.ndarray                      # k x d
    shifts: list = field(default_factory=list)  # [(step, k x d), ...]

    def sequence(self):
        return [self.weights] + [w for _, w in self.shifts]


def parse_dataset(path, k=None) -> DatasetStream:
    """Load an mtsvm file; validates tasks against k when given."""
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


def write_dataset(stream: DatasetStream, path):
    with open(path, "w", encoding="utf-8") as fh:
        for inst, y in zip(stream.instances, stream.labels):
            label = "%+d" % int(y) if float(y) in (-1.0, 1.0) else "%.17g" % y
            feats = " ".join("%d:%.17g" % (i, v)
                             for i, v in zip(inst.x.indices, inst.x.values))
            fh.write(("%d %s %s" % (inst.task, label, feats)).rstrip() + "\n")


def binarize_by_percentile(stream: DatasetStream, pct=75.0) -> DatasetStream:
    """Scores strictly above the pct-th percentile become +1, the rest -1."""
    if len(stream) == 0:
        raise EmptyStream("cannot binarize an empty stream")
    threshold = float(np.percentile(stream.labels, pct))
    labels = np.where(stream.labels > threshold, 1.0, -1.0)
    return DatasetStream(list(stream.instances), labels, stream.k, stream.d)


def rescale_features(stream: DatasetStream) -> DatasetStream:
    """Affinely map each non-binary feature's observed values onto [0, 1].

    Only stored values are observed: a feature's implicit zeros do not
    move its range. A feature seen with one value only maps it to 0, and
    values that map to 0 are dropped.
    """
    rows = [inst.x for inst in stream.instances]
    sizes = np.array([x.indices.size for x in rows], dtype=np.int64)
    ids = np.concatenate([x.indices for x in rows] + [np.zeros(0, np.int64)])
    vals = np.concatenate([x.values for x in rows] + [np.zeros(0)])
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
    cuts = np.concatenate(([0], np.cumsum(keep)))[np.cumsum(sizes)][:-1]
    instances = [MultitaskInstance(SparseVector(i, v), inst.task)
                 for inst, i, v in zip(stream.instances, np.split(ids[keep], cuts),
                                       np.split(new[keep], cuts))]
    return DatasetStream(instances, stream.labels.copy(), stream.k, stream.d)


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
    instances, labels = [], []
    current = g.copy()
    next_shift = 0
    for t in range(1, n + 1):
        while next_shift < len(schedule) and schedule[next_shift][0] == t:
            rot = _random_rotation(d, schedule[next_shift][1], rng)
            current = current @ rot.T
            refs.shifts.append((t, current.copy()))
            next_shift += 1
        task = (t - 1) % k + 1
        gi = current[task - 1]
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
        instances.append(MultitaskInstance(SparseVector.from_dense(x), task))
        labels.append(y)
    return DatasetStream(instances, np.array(labels), k, d), refs


def shift_term(refs: ReferenceTaskSet, graph: TaskGraph):
    """(total shift, per-step trace values) of a reference sequence.

    Each consecutive difference contributes
    sqrt(sum_i |dg_i|^2 + sum_{(i,j) in E} |dg_i - dg_j|^2); the trace of
    step t is sum_i |g_i|^2 + sum_{(i,j) in E} |g_i - g_j|^2, the quantity
    capped by the comparison-class inequalities.
    """
    seq = refs.sequence()
    edges = [(i - 1, j - 1) for (i, j) in graph.edges]

    def quad_form(mat):
        total = float(np.sum(mat * mat))
        for (i, j) in edges:
            diff = mat[i] - mat[j]
            total += float(np.dot(diff, diff))
        return total

    total_shift = 0.0
    for prev, cur in zip(seq, seq[1:]):
        total_shift += float(np.sqrt(quad_form(cur - prev)))
    traces = [quad_form(mat) for mat in seq]
    return total_shift, traces
