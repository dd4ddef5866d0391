"""Host-speed calibration: a fixed kernel that uses nothing from ncelm.

On a shared host the same code runs up to twice as slow for minutes at a
time, as other tenants take the machine's cores, and even the fastest of
many repeats drifts with that load. The workloads run ``seconds`` just
before and just after every timed operation, and run.py multiplies the
operation's time by NOMINAL_S ÷ the mean of the two, so a reported time
reads as the time on a host where the kernel takes NOMINAL_S.

The kernel is shaped like ncelm's work: numpy calls on (64, 16) arrays like
one SGD step at |V| = 16, dim 4 and batch 64, then random gathers from a
1 MiB table into a preallocated buffer. Its inputs are fixed and it makes no
large allocation, so neither the program's memory use nor its data can
change its time; only the host does.
"""

from __future__ import annotations

import time

import numpy as np

# Fastest of 200 runs on a 2-vCPU KVM guest (Intel Xeon) with Python 3.11.7
# and numpy 2.4.
NOMINAL_S = 0.0072

_rng = np.random.default_rng(1410_8251)
_EMB = _rng.standard_normal((16, 4))
_BATCHES = _rng.integers(0, 16, (150, 64))
_TABLE = _rng.standard_normal((32_768, 4))
_GATHER = _rng.integers(0, 32_768, 50_000)
_OUT = np.empty((50_000, 4))


def kernel() -> float:
    w = np.zeros((16, 4))
    b = np.zeros(16)
    for rows in _BATCHES:
        e = _EMB[rows]
        s = e @ w.T + b
        p = np.exp(s - s.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        np.add.at(b, rows, 0.01)
        w += 0.001 * (p.T @ e)
    total = 0.0
    for _ in range(4):
        np.take(_TABLE, _GATHER, axis=0, out=_OUT)
        total += float(_OUT[0, 0])
    return total + float(w.sum())


def seconds() -> float:
    """Seconds one kernel run takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
