"""Machine-speed calibration, timed next to every measurement.

The shared hosts this benchmark runs on slow a process down by up to ~70% for
a minute at a time.  Each measured time is therefore divided by how much
slower than its reference a calibration ran right next to it, which expresses
the time at the reference speed.  In-process work is calibrated by a fixed
pure-Python loop; process set-up by a fresh interpreter that imports numpy,
which is most of what ``import arcrotor`` costs.  Neither touches arcrotor,
so a change to the package cannot move them.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

NUMPY_CHILD_REFERENCE_S = 0.095  # spawn, ``import numpy``, report: same VM, unloaded

REFERENCE_S = 3.95e-3  # one calibration loop on an unloaded 2-core Intel Xeon VM


def _loop(n: int = 20_000) -> float:
    # Small and multi-digit integer products and remainders, float adds and
    # dict stores: the operations the solvers and the harness spend time on.
    acc, big, total, seen = 1, 3, 0.0, {}
    t0 = time.perf_counter()
    for i in range(n):
        acc = acc * 7919 % 1_000_003
        big = big * 7919 % 1_000_000_000_039
        total += 0.1
        if acc & 7 == 0:
            seen[acc] = (i, total)
    return time.perf_counter() - t0


def sample() -> float:
    """Median time of five calibration loops."""
    return statistics.median(_loop() for _ in range(5))


def slowdown(before: float, after: float) -> float:
    """How much slower than the reference the machine ran between two samples."""
    return (before + after) / 2 / REFERENCE_S


def child_seconds(args: list[str], cwd, env=None, timeout: float = 60) -> float:
    """Time from spawning ``python3 args`` until it prints its monotonic clock reading."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=timeout, check=True)
    return float(done.stdout.split()[-1]) - t0


def numpy_child_slowdown(cwd) -> float:
    """How much slower than the reference a fresh interpreter starts and imports numpy."""
    code = "import numpy, time; print(time.clock_gettime(time.CLOCK_MONOTONIC))"
    seconds = child_seconds(["-c", code], cwd)
    return seconds / NUMPY_CHILD_REFERENCE_S
