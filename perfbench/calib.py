"""Calibration kernel: fixed work, independent of nmpkit, that tracks the
host's speed.

On a shared VM the host runs this process at speeds that drift between
levels up to about 1.7x apart, each lasting tens of seconds to minutes.
Process CPU time tracks wall time, so no clock inside the VM removes the
drift, and a 30-60 s run often sits inside one level. The kernel mixes the
kinds of work nmpkit does: interpreted integer loops, dict and list
allocation, numpy streaming over a buffer larger than L2, many small numpy
calls, and sorting a list of tuples spread over several MB. Timed right
before an op, it slows with the host, and `reference_seconds` rescales the
op's wall time to the time it would take when the kernel takes REF_S. On a
2-vCPU VM, the per-run median op time of ten runs with ten seeds spread
(IQR/median) 0.14 to 0.37 per workload in wall seconds, and 0.04 to 0.08 in
reference seconds.

REF_S is the kernel's median time on that VM; it fixes the scale only.
"""

from __future__ import annotations

import time

import numpy as np

REF_S = 0.3

_BIG = np.ones(8_000_000, dtype=np.uint8)
_SMALL = [np.arange(300, dtype=np.int64) for _ in range(10)]


def kernel() -> int:
    acc = 0
    for i in range(600_000):
        acc += i * i & 7
    d = {}
    for i in range(250_000):
        d[(i % 61, i & 63)] = [i]  # bounded, so peak memory stays small
    acc += len(d)
    for _ in range(20):
        acc += int(_BIG.sum(dtype=np.uint64))
    for _ in range(400):
        for a in _SMALL:
            acc += int((a * 3 + 1).sum())
    for _ in range(2):
        pairs = sorted((i * 7919 % 100_003, i) for i in range(100_000))
        acc += pairs[0][1]
        del pairs  # one list at a time keeps peak memory small
    return acc


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def reference_seconds(wall_s: float, kernel_s: float) -> float:
    """`wall_s` measured while the kernel took `kernel_s`, in reference
    seconds."""
    return wall_s * REF_S / kernel_s
