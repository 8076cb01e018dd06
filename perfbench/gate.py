"""Correctness gate: every run's outcome is checked before it counts.

Any seed: per-task counts sum to the stream length, the final support size
stays within the budget and the F-measure is finite and in [0, 1]. The
default seed additionally has recorded results (`expected.json`) that each
run must match exactly, since the package's mistake sequences are a fixed
point that a speed-up may not move.
"""

from __future__ import annotations

import json
import math
import os

DEFAULT_SEED = 0
EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")


def summary(metrics):
    """The outcome of one `run_stream` call that the gate compares."""
    return {"mistakes": int(metrics.mistakes),
            "f_measure": float(metrics.f_measure),
            "final_active": int(metrics.final_active),
            "per_task": [[int(v) for v in row] for row in metrics.per_task]}


def load_expected(workload, seed):
    """Recorded results of `workload`, or None when `seed` has none."""
    if seed != DEFAULT_SEED:
        return None
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)[workload]


def check(result, n, budget, expected=None):
    """Problems found in one run's `summary`; empty when it passes."""
    problems = []
    counted = sum(sum(row) for row in result["per_task"])
    if counted != n:
        problems.append("per-task counts sum to %d, not %d" % (counted, n))
    if not result["final_active"] <= budget:
        problems.append("final_active %d exceeds B=%d" % (result["final_active"], budget))
    f = result["f_measure"]
    if not (math.isfinite(f) and 0.0 <= f <= 1.0):
        problems.append("F-measure %r outside [0, 1]" % f)
    if expected is not None:
        for key in ("mistakes", "f_measure", "final_active", "per_task"):
            if result[key] != expected[key]:
                problems.append("%s is %r, expected %r" % (key, result[key], expected[key]))
    return problems
