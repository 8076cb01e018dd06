"""Seeded input streams of the benchmark, written as `mtsvm` files.

The generators here are the benchmark's own and do not call
`mtbudget.data.generate_synthetic`, so a change to the package cannot
change the inputs. The same (workload, seed) pair always gives the same
file, and files are cached under `perfbench/.cache/inputs/`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

CACHE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".cache")

# Settings shared by every workload, as `mtbudget run` would receive them.
GRAPH = "complete"
KERNEL = "linear:norm"
ETA = 0.01
PERCENTILE = 75.0


def _unit_rows(a):
    return a / np.linalg.norm(a, axis=-1, keepdims=True)


def dense_lines(rng, k=10, d=20, n=10_000, relatedness=0.9, noise=0.1):
    """Round-robin tasks; each task's reference vector mixes one shared
    direction with its own, and labels are the sign of the reference score
    flipped with probability `noise`. Every feature is nonzero."""
    shared = _unit_rows(rng.standard_normal(d))
    own = _unit_rows(rng.standard_normal((k, d)))
    refs = _unit_rows(relatedness * shared + (1.0 - relatedness) * own)
    X = _unit_rows(rng.standard_normal((n, d)))
    tasks = np.arange(n) % k
    labels = np.where(np.einsum("ij,ij->i", X, refs[tasks]) >= 0.0, 1, -1)
    labels[rng.random(n) < noise] *= -1
    ids = np.arange(1, d + 1)
    for t, y, x in zip(tasks, labels, X):
        feats = " ".join("%d:%.17g" % (i, v) for i, v in zip(ids, x) if v != 0.0)
        yield "%d %+d %s" % (t + 1, y, feats)


def sparse_lines(rng, k=4, d=20_000, n=2_000, nnz=40, zipf=1.1, noise=0.5):
    """Round-robin tasks over sparse rows whose feature ids follow a Zipf-like
    law (id r drawn with weight r^-zipf). Values are lognormal; the real
    label is a shared-plus-per-task linear score plus Gaussian noise. The
    first row always holds feature d, so the parsed dimension is d."""
    weights = np.arange(1, d + 1, dtype=float) ** -zipf
    weights /= weights.sum()
    shared = rng.standard_normal(d)
    own = rng.standard_normal((k, d))
    for row in range(n):
        t = row % k
        ids = rng.choice(d, size=nnz, replace=False, p=weights) + 1
        if row == 0 and d not in ids:
            ids[-1] = d
        ids.sort()
        vals = rng.lognormal(0.0, 0.5, size=nnz)
        score = (vals @ (shared[ids - 1] + own[t, ids - 1]) / np.sqrt(nnz)
                 + noise * rng.standard_normal())
        feats = " ".join("%d:%.17g" % (i, v) for i, v in zip(ids, vals))
        yield "%d %.17g %s" % (t + 1, score, feats)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    stream: str                      # key of STREAMS, also the cache name
    budget: str                      # `--budget` of `mtbudget run`
    rescale: bool                    # `--rescale`
    reference: bool                  # time at reference speed (reference.py)


STREAMS = {"dense": dense_lines, "sparse": sparse_lines}

WORKLOADS = {w.name: w for w in (
    Workload("dense-evict",
             "k=10 d=20 n=10000 at budget 5%: the budget binds hard, so "
             "mtbprj spends its mistakes on insert plus evict (rank-1 "
             "downdate and row shift) and the kernels cost little",
             "dense", "5%", False, True),
    Workload("dense-project",
             "the dense-evict stream at budget 25% (B > k*d): mtbprj's span "
             "saturates, so mistakes become projections with no evictions, "
             "while mtrbp and mtforg predict against B rows",
             "dense", "25%", False, True),
    Workload("sparse-hd",
             "k=4 d=20000 n=2000, 40 Zipf-like nonzeros, real labels, "
             "--rescale, budget 10%: B x d work per step (kernel column, "
             "eviction row shift) and the n x d densification dominate",
             "sparse", "10%", True, False),
)}


def input_path(workload: Workload, seed: int) -> str:
    """Path of the workload's input for `seed`, generated on first use."""
    path = os.path.join(CACHE_DIR, "inputs", "%s-%d.mtsvm" % (workload.stream, seed))
    if not os.path.exists(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = "%s.%d.tmp" % (path, os.getpid())
        with open(tmp, "w", encoding="utf-8") as fh:
            for line in STREAMS[workload.stream](np.random.default_rng(seed)):
                fh.write(line + "\n")
        os.replace(tmp, path)
    return path
