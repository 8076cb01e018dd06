"""Tests of the benchmark's own logic: span arithmetic, the correctness
gate and the metric names it emits."""

import json
import math
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import bench  # noqa: E402
import gate  # noqa: E402
import reference  # noqa: E402
from mtbudget import active_set, harness, learners  # noqa: E402
from mtbudget.data import DatasetStream  # noqa: E402
from mtbudget.graph import TaskGraph  # noqa: E402
from mtbudget.kernels import KernelSpec, MultitaskInstance, SparseVector  # noqa: E402
from mtbudget.learners import LearnerConfig  # noqa: E402
from spans import Tracer, self_times, traced  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")


def test_self_times_of_hand_built_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]; b holds a [6, 7].
    spans = [["root", -1, 0.0, 10.0, None],
             ["a", 0, 1.0, 4.0, None],
             ["c", 1, 2.0, 3.0, None],
             ["b", 0, 5.0, 9.0, None],
             ["a", 3, 6.0, 7.0, None]]
    got = self_times(spans)
    assert got["root"] == (1, 10.0, 3.0)
    assert got["a"] == (2, 4.0, 3.0)
    assert got["b"] == (1, 4.0, 3.0)
    assert got["c"] == (1, 1.0, 1.0)
    assert sum(own for _, _, own in got.values()) == 10.0


def test_tracer_records_parents_and_notes():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1, note=lambda args, out: out)
    outer = tracer.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    assert [(s[0], s[1], s[4]) for s in tracer.spans] == [
        ("outer", -1, None), ("inner", 0, 2), ("inner", 0, 3)]
    assert all(s[2] <= s[3] for s in tracer.spans)


def _summary():
    return {"mistakes": 7, "f_measure": 0.5, "final_active": 3,
            "per_task": [[1, 2, 3, 4], [0, 0, 0, 10]]}


def test_gate_passes_matching_result():
    assert gate.check(_summary(), n=20, budget=3, expected=_summary()) == []


@pytest.mark.parametrize("key, value", [("mistakes", 8), ("f_measure", math.nextafter(0.5, 1.0)),
                                        ("final_active", 2),
                                        ("per_task", [[1, 2, 3, 4], [0, 0, 1, 9]])])
def test_gate_flags_perturbed_expected(key, value):
    expected = dict(_summary(), **{key: value})
    problems = gate.check(_summary(), n=20, budget=3, expected=expected)
    assert len(problems) == 1 and problems[0].startswith(key)


@pytest.mark.parametrize("key, value, n, budget", [
    ("per_task", [[1, 2, 3, 4], [0, 0, 0, 9]], 20, 3),
    ("final_active", 4, 20, 3),
    ("f_measure", math.nan, 20, 3),
    ("f_measure", 1.5, 20, 3)])
def test_gate_checks_any_seed(key, value, n, budget):
    assert gate.check(dict(_summary(), **{key: value}), n, budget) != []


def test_expected_results_cover_every_workload_and_learner():
    for name in bench.WORKLOADS:
        expected = gate.load_expected(name, gate.DEFAULT_SEED)
        assert set(expected) == {"budget", *bench.ALGOS}
    assert gate.load_expected("dense-evict", gate.DEFAULT_SEED + 1) is None


def test_metric_names_and_benchmark_json_agree():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for key, table in (("end_to_end", bench.end_to_end_specs()),
                       ("per_layer", bench.per_layer_specs())):
        assert all(NAME.match(name) and len(name) <= 64 for name in table)
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert listed == table
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)


def _tiny_stream(n=240, k=3, d=6, seed=1):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    tasks = np.arange(n) % k + 1
    labels = np.where(X[:, 0] + 0.3 * rng.standard_normal(n) > 0, 1.0, -1.0)
    return DatasetStream([MultitaskInstance(SparseVector.from_dense(x), int(t))
                          for x, t in zip(X, tasks)], labels, k, d)


@pytest.mark.filterwarnings("ignore:mtforg mistake bound")
@pytest.mark.parametrize("algo", bench.ALGOS)
def test_traced_run_partitions_time_and_leaves_package_unpatched(algo):
    stream = _tiny_stream()
    kernel = KernelSpec("linear", normalize=True)
    config = LearnerConfig(algo, TaskGraph.complete(stream.k), budget=12,
                           kernel=kernel)
    plain = gate.summary(harness.run_stream(stream, config))
    before = (harness.run_stream, harness.make_learner, active_set.ActiveSet.evict,
              active_set.dense_kernel_vector, learners.dense_kernel_vector)
    tracer = Tracer()
    with traced(tracer):
        assert gate.summary(harness.run_stream(stream, config)) == plain
    assert before == (harness.run_stream, harness.make_learner, active_set.ActiveSet.evict,
                      active_set.dense_kernel_vector, learners.dense_kernel_vector)
    layers = bench.layer_metrics(algo, tracer.spans)
    parts = [v for k, v in layers.items()
             if re.match(r"(harness\.self|learners\.self|learners\.compute_phi"
                         r"|active_set\.\w+|kernels\.kernel_vector)_s\.", k)]
    assert sum(parts) == pytest.approx(layers["harness.run_s." + algo], rel=1e-9)
    assert layers["learners.mistakes." + algo] == plain["mistakes"]
    assert set(layers) <= set(bench.per_layer_specs())


def test_clock_scales_by_reference_unit():
    clock = reference.Clock()
    assert clock.time("failed", lambda: None) == (None, None)
    seconds, scaled = clock.time("run", lambda: 2.0)
    assert seconds == 2.0 and math.isfinite(scaled) and scaled > 0.0
    # The next call of the same kind gets about SHARE of 2 s of reference work.
    assert clock.units["run"] == max(1, round(reference.SHARE * 2.0 / reference.UNIT_S))
