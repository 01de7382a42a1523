"""A fixed reference kernel that tracks how fast the machine is running.

On a shared host, other tenants slow every process down: the host flips
between a fast and a slow state many times a second, and the share of
time spent slow drifts over minutes, so a slow stretch can cover a whole
run.  The benchmark times this kernel next to every timed phase.  It
reports the phase's mean time divided by the kernel's mean time, scaled by
``REFERENCE_S``: the phase's time at the speed the kernel ran on a quiet
machine.  The kernel
mixes the work the package does (small float64 matmuls, bit gathers and
packing, a pure-Python loop), so a slow stretch slows it about as much as
it slows the workloads.  It belongs to the benchmark, so a change to the
package cannot move it.
"""

from __future__ import annotations

import functools
import time

import numpy as np

#: Kernel time on a quiet 2-vCPU Intel Xeon host (Python 3.11, numpy 2.4,
#: OpenBLAS pinned to one thread).  Scaling by it keeps reported rates near
#: wall-clock rates; comparisons between runs do not depend on its value.
REFERENCE_S = 0.008


@functools.cache
def _inputs():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(1000, 16))
    weights = [rng.normal(size=s) for s in ((16, 32), (32, 32), (32, 4))]
    blocks = rng.integers(0, 2, (100, 512)).astype(np.uint8)
    gathers = np.stack([rng.permutation(512) for _ in range(64)])
    return x, weights, blocks, gathers


def kernel_seconds() -> float:
    """Wall time of one run of the reference kernel."""
    x, weights, blocks, gathers = _inputs()
    t0 = time.perf_counter()
    for _ in range(12):
        h = x
        for i, w in enumerate(weights):
            h = h @ w
            if i < len(weights) - 1:
                h = np.maximum(h, 0.0)
        h.argmax(axis=1)
    for block in blocks:
        packed = np.packbits(block[gathers] ^ 1, axis=-1, bitorder="little")
        packed.view("<u4").astype(np.int64).sum(axis=-1)
    total = 0
    for i in range(8000):
        total += (i * 7) % 13
    return time.perf_counter() - t0
