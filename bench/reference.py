"""A fixed reference loop that scales measured times to one machine speed.

Wall time on a small shared VM drifts with load from outside the process:
the same `point_queries` op mix ran 625 to 1080 ops/s in 10 s windows of one
10-minute run.  The drift slows all interpreted code alike, so the worker
times this loop, which uses none of statesphere, next to the ops it measures.
`speed()` is the loop's rate over NOMINAL_RATE: 1.0 on the machine the
constant was measured on, 0.5 while the machine runs at half that speed.  An
op time multiplied by the speed around it is the time the op would take at
the nominal speed.  In 60 s of fixed `point_queries` passes interleaved with
0.04 s samples of the loop, the scaling cut the coefficient of variation of
20 s window means from 0.10 to 0.03.

NOMINAL_RATE is part of the benchmark's definition: changing it rescales
every end-to-end time.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

# Loop calls per second on a 2-vCPU VM (Python 3.11, numpy 2.4), median of
# one-second samples over 40 s.
NOMINAL_RATE = 5800.0

_GRID = np.linspace(-1.0, 1.0, 8)


def _loop() -> float:
    """Small-object Python work with a few small numpy calls, the mix that
    statesphere's closed-form layers run."""
    acc = 0j
    table = {}
    for i in range(40):
        z = complex(math.cos(0.1 * i), math.sin(0.1 * i)) * math.exp(-0.01 * i)
        acc += z * float(_GRID @ _GRID)
        table[(i % 7, i % 5)] = (acc, z)
        acc += float(np.exp(-_GRID[i % 8]))
    return abs(acc) + len(table)


def speed(seconds: float) -> float:
    """Machine speed relative to the nominal one, from running the loop for
    about `seconds` (at least one call)."""
    calls = 0
    t0 = perf_counter()
    while True:
        _loop()
        calls += 1
        elapsed = perf_counter() - t0
        if elapsed >= seconds:
            return calls / elapsed / NOMINAL_RATE
