"""Memory of a stream's prepared input (`kernels.make_queries`), by stream.

    python3 tools/prepared_memory.py > memory.jsonl

Run from the repository root; it measures the package under `src/` and
takes no options. It prints one JSON line per stream and method:

- `dense-evict-0`: perfbench's `dense-evict` stream for seed 0, parsed and
  binarized as perfbench does (written to a temporary directory);
- `dense-1e4`, `dense-1e6`: generated streams of n = 10^4 and 10^6 rows,
  k = 10 tasks, d = 20 features and 4 nonzeros per row (dense form).

Each line comes from a fresh process. Method `tracemalloc` gives
`kept_bytes`, what the call allocated and its result still holds, and
`peak_bytes`, the most it held at once during the call. Method `rss` runs
without tracemalloc and gives the process's resident MiB after the stream
is built, its peak after the call (`ru_maxrss`) and its resident MiB while
the result is held. `array_bytes` is what the result's own arrays and its
label list take: the floor of `kept_bytes`.
"""

import json
import os
import resource
import subprocess
import sys
import tempfile
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from mtbudget import data  # noqa: E402
from mtbudget.kernels import KernelSpec, make_queries  # noqa: E402

STREAMS = ("dense-evict-0", "dense-1e4", "dense-1e6")
SPEC = KernelSpec.parse("linear:norm")


def build(name, folder):
    if name == "dense-evict-0":
        path = os.path.join(folder, "dense-evict-0.mtsvm")
        lines = workloads.STREAMS[workloads.WORKLOADS["dense-evict"].stream](
            np.random.default_rng(0))
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(line + "\n" for line in lines)
        return data.binarize_by_percentile(data.parse_dataset(path), workloads.PERCENTILE)
    n, k, d, nnz = int(float(name.split("-")[1])), 10, 20, 4
    rng = np.random.default_rng(0)
    # one id in each block of d / nnz features, so each row's ids ascend
    ids = rng.integers(0, d // nnz, (n, nnz)) + np.arange(0, d, d // nnz) + 1
    return data.DatasetStream((np.arange(n + 1) * nnz, ids.ravel(),
                               rng.standard_normal(n * nnz), np.arange(n) % k + 1),
                              np.where(rng.random(n) < 0.5, -1.0, 1.0), k, d)


def resident_mib():
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2 ** 20


def array_bytes(prepared):
    arrays = [v for v in prepared if isinstance(v, np.ndarray) and v.base is None]
    return sum(a.nbytes for a in arrays) + sys.getsizeof(prepared.labels)


def measure(name, method):
    with tempfile.TemporaryDirectory() as folder:
        stream = build(name, folder)
    line = {"stream": name, "n": len(stream), "d": stream.d, "method": method}
    if method == "tracemalloc":
        tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        prepared = make_queries(stream, SPEC)
        kept, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        line.update(kept_bytes=kept - before, peak_bytes=peak - before)
    else:
        line["rss_before_mib"] = round(resident_mib(), 1)
        prepared = make_queries(stream, SPEC)
        line["peak_rss_mib"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
        line["rss_held_mib"] = round(resident_mib(), 1)
    line["array_bytes"] = array_bytes(prepared)
    return line


def main():
    if len(sys.argv) == 3:      # one measurement, in this fresh process
        print(json.dumps(measure(*sys.argv[1:])))
        return 0
    for name in STREAMS:
        for method in ("tracemalloc", "rss"):
            subprocess.run([sys.executable, os.path.abspath(__file__), name, method],
                           check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
