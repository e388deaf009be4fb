"""A fixed computation that measures how fast the host runs at the moment.

The benchmark runs on shared machines whose speed drifts: on the 2-core box
the baseline was taken on, the CPU time of this kernel ranged from 0.047 s
to 0.078 s within five minutes, and the CPU time of the same curvlab job
moved with it.  The kernel does the kind of work curvlab does, Python-level
adaptive quadrature of a closure that calls ``math`` functions, and it is
part of the benchmark, so a change to curvlab does not change it.  A job's
CPU time multiplied by ``REFERENCE_S / <kernel CPU time>``, both measured
in the same process a moment apart, keeps the cost of the job and drops
most of the drift: it is the job's CPU time at the speed at which the
kernel takes ``REFERENCE_S`` seconds.
"""

from __future__ import annotations

import math
import statistics
import time

REFERENCE_S = 0.06  # nominal CPU seconds of one kernel run


def _f(x: float) -> float:
    return math.exp(-x) * math.sqrt(1.0 + x * x) / (1.0 + math.sin(x) ** 2)


def _simpson(a: float, b: float, fa: float, fm: float, fb: float) -> float:
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adapt(a: float, b: float, fa: float, fm: float, fb: float, whole: float, tol: float, depth: int) -> float:
    m = 0.5 * (a + b)
    flm = _f(0.5 * (a + m))
    frm = _f(0.5 * (m + b))
    left = _simpson(a, m, fa, flm, fm)
    right = _simpson(m, b, fm, frm, fb)
    if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
        return left + right
    return _adapt(a, m, fa, flm, fm, left, 0.5 * tol, depth - 1) + _adapt(m, b, fm, frm, fb, right, 0.5 * tol, depth - 1)


def kernel() -> float:
    """Integrate a fixed function over 24 fixed intervals."""
    total = 0.0
    for k in range(24):
        a, b = 0.0, 10.0 + k
        fa, fm, fb = _f(a), _f(0.5 * (a + b)), _f(b)
        total += _adapt(a, b, fa, fm, fb, _simpson(a, b, fa, fm, fb), 1e-11, 40)
    return total


def measure(runs: int) -> float:
    """Median CPU seconds of ``runs`` kernel runs."""
    times = []
    for _ in range(runs):
        t0 = time.process_time()
        kernel()
        times.append(time.process_time() - t0)
    return statistics.median(times)
