"""Stream throughput of mtbudget's learners, end to end and per layer.

    python3 perfbench/run.py --workload dense-evict --seed 0 --seconds 30 --trace 0

Run from the repository root; it measures the package under `src/`. The
last line of output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. See README.md in this directory.
"""

import os
import sys

# Pin BLAS threads to the cores this process may use, before numpy loads.
# The setting reaches only this process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(len(os.sched_getaffinity(0)))

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main():
    if not os.path.isfile(os.path.join(SRC, "mtbudget", "__init__.py")):
        sys.stderr.write("perfbench: no mtbudget sources under %s\n" % SRC)
        return 2
    sys.path[:0] = [SRC, HERE]
    import bench
    return bench.main()


if __name__ == "__main__":
    sys.exit(main())
