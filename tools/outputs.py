"""Every output of every run on the benchmark's workloads, one JSON line each.

    python3 tools/outputs.py > outputs.jsonl

Run from the repository root; it measures the package under `src/` and
takes no options. For each workload of `perfbench/workloads.py` and seeds
0-5 it builds the stream as perfbench does (parse, `--rescale` where the
workload asks for it, binarize at the 75th percentile unless the labels
are already binary), writing the input to a temporary directory so that
nothing under `perfbench/` changes. For each of the kernels `linear:norm`,
`poly:2:1:norm` and `gauss:0.5` it resolves the workload's budget, then
runs the Perceptron battery (edgeless graph) and the four learners
(complete graph, eta 0.01, seed 0) for 1 and 2 epochs. Each line holds the
resolved budget, mistakes, final |S|, per-task counts and the trajectory,
with every F as `float.hex`, so two checkouts whose decisions agree print
byte-identical output (compare with `cmp`).
"""

import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from mtbudget import data, harness  # noqa: E402
from mtbudget.graph import TaskGraph  # noqa: E402
from mtbudget.kernels import KernelSpec  # noqa: E402
from mtbudget.learners import LearnerConfig  # noqa: E402

SEEDS = range(6)
KERNELS = ("linear:norm", "poly:2:1:norm", "gauss:0.5")
LEARNERS = ("mtbprj", "mtbprj2", "mtrbp", "mtforg")
EPOCHS = (1, 2)


def load(workload, seed, folder):
    """The workload's binarized stream for `seed`, set up as perfbench does."""
    path = os.path.join(folder, "%s-%d.mtsvm" % (workload.stream, seed))
    if not os.path.exists(path):
        lines = workloads.STREAMS[workload.stream](np.random.default_rng(seed))
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(line + "\n" for line in lines)
    stream = data.parse_dataset(path)
    if workload.rescale:
        stream = data.rescale_features(stream)
    if not stream.binary:
        stream = data.binarize_by_percentile(stream, workloads.PERCENTILE)
    return stream


def record(metrics):
    return {"mistakes": metrics.mistakes, "final_active": metrics.final_active,
            "per_task": metrics.per_task.tolist(),
            "trajectory": [[step, float(f).hex(), size]
                           for step, f, size in metrics.trajectory]}


def main():
    with tempfile.TemporaryDirectory() as folder:
        for name, workload in workloads.WORKLOADS.items():
            for seed in SEEDS:
                stream = load(workload, seed, folder)
                for text in KERNELS:
                    kernel = KernelSpec.parse(text)
                    budget = harness.resolve_budget(workload.budget, stream, kernel)
                    configs = [LearnerConfig("perceptron_battery",
                                             TaskGraph.edgeless(stream.k), kernel=kernel)]
                    configs += [LearnerConfig(algo, TaskGraph.complete(stream.k), budget,
                                              workloads.ETA, kernel, seed=0)
                                for algo in LEARNERS]
                    for config in configs:
                        for epochs in EPOCHS:
                            metrics = harness.run_stream(stream, config, epochs=epochs)
                            line = {"workload": name, "seed": seed, "kernel": text,
                                    "algorithm": config.algorithm, "epochs": epochs,
                                    "budget": budget, **record(metrics)}
                            print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
