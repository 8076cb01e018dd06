"""Host speed, read from fixed reference work timed next to each measured call.

On a shared machine the host's speed drifts by a quarter within seconds and
differs between processes, so a call's raw seconds say as much about the
neighbours as about the program. Each timed call is therefore run between
two timings of a reference unit and reported at reference speed: its seconds
times `UNIT_S / (the unit's mean seconds around it)`. `UNIT_S` is what one
unit took on the reference machine (Intel Xeon, 2 vCPUs, Python 3.11), so
figures stay close to wall-clock figures there.

The unit mixes the three kinds of work the learners do, because each kind
slows by a different amount under a different neighbour: pure-Python
integer arithmetic, a pass over a list of small objects that each hold a
numpy row, and a small numpy perceptron. Its inputs are fixed here and do
not depend on the package, so no change to the package can move them.

Calls bound by memory traffic rather than by the interpreter slow under
other neighbours than the unit does; workloads made of them are timed by
the wall clock instead (`Workload.reference` in workloads.py).
"""

from __future__ import annotations

from time import perf_counter
from types import SimpleNamespace

import numpy as np

UNIT_S = 0.013
SHARE = 0.04        # reference time on each side of a call, as a share of it

_rng = np.random.default_rng(0)
_OBJECTS = [SimpleNamespace(x=_rng.standard_normal(20), t=i % 10)
            for i in range(10_000)]
_W0 = _rng.standard_normal((10, 20))
_X = _rng.standard_normal((1_500, 20))
_Y = np.sign(_rng.standard_normal(1_500))


def unit():
    """One reference unit: about UNIT_S seconds on the reference machine."""
    total = 0
    for i in range(30_000):
        total += i * i
    w = _W0.copy()
    for obj in _OBJECTS[::6]:
        if float(w[obj.t] @ obj.x) <= 0.0:
            w[obj.t] += 0.01 * obj.x
    w = np.zeros((10, 20))
    kept = []
    for i in range(_X.shape[0]):
        x, t = _X[i], i % 10
        if _Y[i] * float(w[t] @ x) <= 0.0:
            w[t] += _Y[i] * x
            kept.append(i)
    return total, len(kept)


def unit_seconds(units):
    """Mean seconds of one unit, over `units` units run now.

    One untimed unit runs first: a measured call can leave the caches full
    of its own data, and the unit's first pass would then time the memory
    rather than the host."""
    unit()
    start = perf_counter()
    for _ in range(units):
        unit()
    return (perf_counter() - start) / units


class Clock:
    """Times calls at reference speed, sizing the reference time to each
    kind of call from that kind's last duration. A clock made with
    `enabled=False` runs no reference and reports wall-clock seconds."""

    def __init__(self, enabled=True):
        self.enabled = enabled
        self.units = {}

    def time(self, key, call):
        """Run `call`, which returns its own seconds or None when it failed;
        return (seconds, seconds at reference speed), or (None, None)."""
        if not self.enabled:
            seconds = call()
            return seconds, seconds
        units = self.units.get(key, 1)
        before = unit_seconds(units)
        seconds = call()
        after = unit_seconds(units)
        if seconds is None:
            return None, None
        self.units[key] = max(1, round(SHARE * seconds / UNIT_S))
        return seconds, seconds * UNIT_S * 2 / (before + after)
