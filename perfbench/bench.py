"""Measurement loop of the benchmark; `run.py` is the entry point.

The benchmark makes the same calls as `mtbudget run`, in the same order:
parse, optional rescale, binarize, graph, budget resolution (which runs the
Perceptron-battery baseline), then `run_stream` for each learner. Untraced,
it repeats rounds of the baseline and the four learners until the time is
spent and reports medians. Traced, it also repeats every run with spans
recorded around the package's layer boundaries (spans.py) and reports
per-layer figures instead. Every run passes the correctness gate (gate.py)
or counts as failed.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from collections import Counter
from time import perf_counter

import numpy as np

import gate
from mtbudget import data, graph, harness
from mtbudget.kernels import KernelSpec
from mtbudget.learners import LearnerConfig
from reference import Clock
from spans import Tracer, self_times, traced
from workloads import (CACHE_DIR, ETA, GRAPH, KERNEL, PERCENTILE, WORKLOADS,
                       input_path)

ALGOS = ("mtbprj", "mtbprj2", "mtrbp", "mtforg")
RUNS = ("baseline",) + ALGOS   # the baseline resolves the budget first
OPS = ("predict", "projection", "insert", "evict", "loo")
SETUP_EVERY_S = 2.0
LEARNER_SEED = 0   # `mtbudget run --seed`, which only mtrbp's evictions use


def end_to_end_specs():
    """Metric name -> (unit, better) of a `--trace 0` run."""
    specs = {"steps_per_s." + a: ("1/s", "higher") for a in RUNS}
    specs["setup_s"] = ("s", "lower")
    specs["peak_rss_mb"] = ("MiB", "lower")
    return specs


def per_layer_specs():
    """Metric name -> (unit, better) of a `--trace 1` run."""
    specs = {"data.parse_s": ("s", "lower"), "data.rescale_s": ("s", "lower"),
             "data.binarize_s": ("s", "lower"),
             "data.examples": ("count", "higher"), "data.nnz": ("count", "lower"),
             "harness.cache_mb": ("MB", "lower"),
             "learners.compute_phi_s.mtforg": ("s", "lower")}
    for a in RUNS:
        specs.update({"harness.run_s." + a: ("s", "lower"),
                      "harness.self_s." + a: ("s", "lower"),
                      "learners.self_s." + a: ("s", "lower"),
                      "learners.step_p50_us." + a: ("us", "lower"),
                      "learners.step_p99_us." + a: ("us", "lower"),
                      "learners.mistakes." + a: ("count", "lower"),
                      "kernels.kernel_vector_s." + a: ("s", "lower"),
                      "kernels.kernel_vector_calls." + a: ("count", "lower"),
                      "kernels.kernel_vector_mb." + a: ("MB", "lower"),
                      "trace.overhead_frac." + a: ("frac", "lower")})
    for a in ALGOS:
        specs["learners.evictions." + a] = ("count", "lower")
        specs["learners.projections." + a] = ("count", "higher")
        specs["active_set.projection_accept." + a] = ("frac", "higher")
        for op in OPS:
            specs["active_set.%s_s.%s" % (op, a)] = ("s", "lower")
    return specs


def environment():
    """The machine and libraries a result was measured with."""
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "machine": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "blas_threads": _blas_threads()}


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, else the pinned setting."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        for lib in sorted(libs):
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return int(fn())
    except OSError:
        pass
    return os.environ.get("OPENBLAS_NUM_THREADS", "unset")


class Bench:
    """One workload on one seed: runs each call cmd_run makes and gates it."""

    def __init__(self, workload, seed, expected):
        self.workload = workload
        self.seed = seed
        self.path = input_path(workload, seed)
        self.expected = expected
        self.kernel = KernelSpec.parse(KERNEL)
        self.attempted = 0
        self.failed = 0
        self.first = {}     # run -> first result, for the determinism check
        self.stream = self.graph = self.budget = None

    def prepare(self, times=None):
        """parse -> rescale -> binarize -> graph, each call timed into
        `times`; return the seconds of the whole set-up."""
        self.stream = None      # so the old stream is freed before parsing
        self.attempted += 1
        t0 = perf_counter()
        stream = data.parse_dataset(self.path)
        t1 = perf_counter()
        if self.workload.rescale:
            stream = data.rescale_features(stream)
        t2 = perf_counter()
        if not stream.binary:
            stream = data.binarize_by_percentile(stream, PERCENTILE)
        t3 = perf_counter()
        self.graph = graph.resolve_graph(GRAPH, stream.k)
        t4 = perf_counter()
        self.stream = stream
        if times is not None:
            times.update({"data.parse_s": t1 - t0, "data.rescale_s": t2 - t1,
                          "data.binarize_s": t3 - t2})
        return t4 - t0

    def run(self, name):
        """Seconds one gated run of `name` took, or None if it failed."""
        self.attempted += 1
        try:
            if name == "baseline":
                start = perf_counter()
                budget = harness.resolve_budget(self.workload.budget, self.stream,
                                                self.kernel)
                seconds = perf_counter() - start
                result = {"budget": budget}
                problems = []
                if self.expected is not None and budget != self.expected["budget"]:
                    problems.append("budget %d, expected %d"
                                    % (budget, self.expected["budget"]))
                if self.budget is None:
                    self.budget = budget
            else:
                config = LearnerConfig(name, self.graph, self.budget, ETA,
                                       self.kernel, LEARNER_SEED)
                start = perf_counter()
                metrics = harness.run_stream(self.stream, config)
                seconds = perf_counter() - start
                result = gate.summary(metrics)
                problems = gate.check(result, len(self.stream), self.budget,
                                      self.expected and self.expected[name])
            if self.first.setdefault(name, result) != result:
                problems.append("differs from this process's first run")
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        if problems:
            sys.stderr.write("%s %s: %s\n" % (self.workload.name, name,
                                               "; ".join(problems)))
            self.failed += 1
            return None
        return seconds


def schedule(seconds):
    """Yield (round, run name) pairs for about `seconds`.

    Round 0 is the baseline alone: it resolves the budget and pays the
    process's first-run costs (the first baseline on sparse-hd ran at half
    the speed of later ones), and it is gated but not timed. Later rounds go through every run. The schedule
    ends before a run that, going by its previous duration, would overrun
    `seconds`, but never before one timed round is complete.
    """
    deadline = perf_counter() + seconds
    yield 0, "baseline"
    last = {}
    round_no = 1
    while True:
        for name in RUNS:
            start = perf_counter()
            if round_no > 1 and start + last[name] > deadline:
                return
            yield round_no, name
            last[name] = perf_counter() - start
        round_no += 1


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def measure(bench, seconds, trace):
    """Follow `schedule(seconds)`; return the timed rounds' samples.

    A set-up starts every round and runs again before any run that starts
    more than SETUP_EVERY_S after the last set-up, so set-up samples spread
    over the whole window like the runs do. Set-ups and runs are timed at
    reference speed (reference.py); "setup" and "plain" hold those times,
    "wall" the runs' own seconds. With `trace`, every run is
    repeated under a tracer right after its untraced run.
    """
    samples = {"setup": [], "plain": {n: [] for n in RUNS},
               "wall": {n: [] for n in RUNS},
               "traced": {n: [] for n in RUNS}, "layers": {n: [] for n in RUNS},
               "tracers": {}}
    timed = Clock(bench.workload.reference).time
    last_setup = None
    for round_no, name in schedule(seconds):
        if name == RUNS[0] or perf_counter() - last_setup > SETUP_EVERY_S:
            setup = {}
            _, setup["setup_s"] = timed("setup", lambda: bench.prepare(setup))
            last_setup = perf_counter()
            if round_no:
                samples["setup"].append(setup)
        wall, scaled = timed(name, lambda: bench.run(name))
        if not round_no:
            continue
        if wall is not None:
            samples["plain"][name].append(scaled)
            samples["wall"][name].append(wall)
        if trace:
            tracer = Tracer()
            with traced(tracer):
                _, scaled = timed(name, lambda: bench.run(name))
            if scaled is not None:
                samples["traced"][name].append(scaled)
                samples["layers"][name].append(layer_metrics(name, tracer.spans))
                samples["tracers"][name] = tracer
    return samples


def end_to_end(bench, samples):
    """`--trace 0` metrics from the timed rounds' samples."""
    n = len(bench.stream)
    out = {"steps_per_s." + name: n / statistics.median(ts) if ts else 0.0
           for name, ts in samples["plain"].items()}
    out["setup_s"] = statistics.median(s["setup_s"] for s in samples["setup"])
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def layer_metrics(name, spans):
    """Per-layer figures of one traced run of `name`."""
    layers = self_times(spans)

    def count(layer):
        return layers.get(layer, (0, 0.0, 0.0))[0]

    def own(layer):
        return layers.get(layer, (0, 0.0, 0.0))[2]

    steps = [span for span in spans if span[0] == "learners.step"]
    actions = Counter(span[4] for span in steps)
    p50, p99 = np.percentile([t1 - t0 for _, _, t0, t1, _ in steps], [50, 99])
    elements = sum(span[4] for span in spans if span[0] == "kernels.kernel_vector")
    out = {"harness.run_s." + name: layers["harness.run_stream"][1],
           "harness.self_s." + name: own("harness.run_stream"),
           "learners.self_s." + name: own("learners.step"),
           "learners.step_p50_us." + name: p50 * 1e6,
           "learners.step_p99_us." + name: p99 * 1e6,
           "learners.mistakes." + name: len(steps) - actions["none"],
           "kernels.kernel_vector_s." + name: own("kernels.kernel_vector"),
           "kernels.kernel_vector_calls." + name: count("kernels.kernel_vector"),
           "kernels.kernel_vector_mb." + name: elements * 8 / 1e6}
    if name == "mtforg":
        out["learners.compute_phi_s.mtforg"] = own("learners.compute_phi")
    if name in ALGOS:
        projections = actions["weight_update_projection"]
        tried = count("active_set.projection")
        out["learners.evictions." + name] = count("active_set.evict")
        out["learners.projections." + name] = projections
        out["active_set.projection_accept." + name] = projections / tried if tried else 0.0
        for op in OPS:
            out["active_set.%s_s.%s" % (op, name)] = own("active_set." + op)
    return out


def per_layer(bench, samples):
    """`--trace 1` metrics: medians of the traced runs' layer figures."""
    stream = bench.stream
    out = {key: statistics.median(s[key] for s in samples["setup"])
           for key in ("data.parse_s", "data.rescale_s", "data.binarize_s")}
    out["data.examples"] = len(stream)
    out["data.nnz"] = sum(inst.x.indices.size for inst in stream.instances)
    out["harness.cache_mb"] = len(stream) * stream.d * 8 / 1e6
    for name in RUNS:
        reps = samples["layers"][name]
        for key in reps[0] if reps else ():
            out[key] = statistics.median(rep[key] for rep in reps)
        slow = median_or_zero(samples["traced"][name])
        fast = median_or_zero(samples["plain"][name])
        out["trace.overhead_frac." + name] = slow / fast - 1.0 if fast else 0.0
    return out


def dump_traces(bench, tracers):
    """Write the last traced run of each learner under .cache/traces/."""
    traces = os.path.join(CACHE_DIR, "traces")
    os.makedirs(traces, exist_ok=True)
    for name, tracer in tracers.items():
        tracer.dump(os.path.join(traces, "%s-%s.tsv.gz" % (bench.workload.name, name)),
                    header="workload=%s seed=%s run=%s"
                    % (bench.workload.name, bench.seed, name))


def record_expected(bench):
    """Store this process's first results as the default seed's expected."""
    try:
        with open(gate.EXPECTED_PATH, encoding="utf-8") as fh:
            recorded = json.load(fh)
    except FileNotFoundError:
        recorded = {}
    entry = {"budget": bench.first["baseline"]["budget"]}
    entry.update({a: bench.first[a] for a in ALGOS})
    recorded[bench.workload.name] = entry
    with open(gate.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="write the default seed's expected results")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.record and args.seed != gate.DEFAULT_SEED:
        parser.error("--record needs --seed %d" % gate.DEFAULT_SEED)
    expected = None if args.record else gate.load_expected(workload.name, args.seed)
    bench = Bench(workload, args.seed, expected)

    samples = measure(bench, args.seconds, args.trace)
    if args.trace:
        metrics, specs = per_layer(bench, samples), per_layer_specs()
        dump_traces(bench, samples["tracers"])
    else:
        metrics, specs = end_to_end(bench, samples), end_to_end_specs()
    if args.record:
        record_expected(bench)

    missing = sorted(set(specs) - set(metrics))
    extra = sorted(set(metrics) - set(specs))
    if missing or extra:
        raise RuntimeError("metric set mismatch: missing %s, extra %s" % (missing, extra))
    print("env " + json.dumps(environment(), sort_keys=True))
    for name in sorted(metrics):
        print("%-44s %16.6g %s" % (name, metrics[name], specs[name][0]))
    # Throughput at the host's speed during the run, for reading only.
    for name, ts in samples["wall"].items():
        print("%-44s %16.6g %s" % ("wall_steps_per_s." + name,
                                   len(bench.stream) / statistics.median(ts) if ts else 0.0,
                                   "1/s"))
    # Failures travel as `failed` / `attempted`, not as a metric that reads 0.
    print("%-44s %16.6g %s" % ("failed_frac", bench.failed / bench.attempted, "frac"))
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed,
                      "metrics": {name: {"value": metrics[name], "unit": specs[name][0]}
                                  for name in sorted(metrics)}}))
    return 0
