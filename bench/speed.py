"""CPU-speed calibration, so timings from a shared host can be compared.

On a shared host the speed of a guest's CPU moves between levels up to
2x apart, for seconds to a minute at a time; a plain loop shows the same
levels in CPU time, so they come from the host, not from scheduling.  A
run cannot choose its level, so its raw latencies say as much about the
host as about the program.

The benchmark therefore times a fixed kernel, built only from the
benchmark's own code, beside the program: before the first operation and
again after every ``EVERY_S`` of operation time.  Each operation's wall
time is scaled by ``REF_S / mean(kernel before, kernel after)``, which
gives its time at the speed where the kernel takes ``REF_S`` seconds.  A
change to biphase moves the operations but not the kernel, so it still
shows in full.  The kernel mixes interpreter work (a Python loop) with
small-array numpy calls (einsum over a stack of 3x3 matrices, a gradient
along 2001 samples, a 3x3 eigensolve), the two kinds of work biphase does.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Kernel time, in seconds, at the reference speed.  It is about the
#: kernel's time at the fast level of a 2.1 GHz Xeon KVM guest; scaled
#: timings read as wall time at that level.
REF_S = 1.4e-3
#: Operation time, in seconds, between two calibrations.
EVERY_S = 0.1
#: Kernel repeats per calibration; the median is used.
REPEATS = 3

_PY_LOOP = 15_000
_NP_ROUNDS = 5
_rng = np.random.default_rng(0)
_STACK = _rng.normal(size=(2001, 3, 3)) + 1j * _rng.normal(size=(2001, 3, 3))
_STATES = _rng.normal(size=(2001, 3)) + 1j * _rng.normal(size=(2001, 3))


def _kernel() -> int:
    total = 0
    for i in range(_PY_LOOP):
        total += i * i
    for _ in range(_NP_ROUNDS):
        np.einsum("nij,nj->ni", _STACK, _STATES)
        np.gradient(_STATES, axis=0)
        np.linalg.eigvals(_STACK[0])
    return total


def sample() -> float:
    """Median kernel time, in seconds, over ``REPEATS`` runs."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor that turns a wall time taken between two samples into reference-speed time."""
    return REF_S / (0.5 * (before + after))
