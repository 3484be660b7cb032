"""Independent blocks of array work on every usable CPU, on threads started
for the call.

numpy lets go of the GIL inside most of its array kernels (sorts, bincount,
ufunc loops, gathers), so blocks of such work run side by side on plain
threads. The calling thread is worker 0; one more thread is started per
further usable CPU, and every thread is joined before the call returns or
raises, so no thread outlives it. A block must not call a function that the
benchmark's span tracer wraps: its recorder keeps one stack of open spans.

Callers: the codegree pair scan and the mixing audit (pseudo), and the
decode of a graph file's edge chunks (graph._canonical_edges), which took
0.62x its one-worker time on the approx_b benchmark's 3.25 MB file.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Sequence, TypeVar

B = TypeVar("B")
R = TypeVar("R")

# Least work, in the caller's measure, for which threads pay. Measured on a
# 2-vCPU VM, one worker against two, medians of 31 to 41 alternating pairs
# of calls on G(k, n, p) and PG(2, q) graphs. Pair scans counting 1.1M to
# 5.4M pairs took 0.60x to 0.93x their one-worker time; scans of 0.5M pairs
# or fewer took 0.87x to 1.87x. Audit blocks of 32 samples touching 1.1M to
# 3.9M elements took 0.63x to 1.02x; blocks of 0.9M elements or fewer took
# 1.1x to 2.05x. Edge-text decodes of 1.07 to 13.1 MB, in 256 KB chunks,
# took 0.62x to 0.71x (41 pairs; 13 at 13.1 MB); the bytes are their work,
# so files under 1 MB decode inline, although with threads forced a 0.45 MB
# file took 0.76x (61 pairs).
_MIN_WORK = 1 << 20


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_blocks(fn: Callable[[B], R], blocks: Sequence[B], work: int) -> list[R]:
    """[fn(b) for b in blocks], on up to one worker per usable CPU.

    `work` is the caller's measure of the array work that threads would
    share; below _MIN_WORK, or below two blocks, the blocks run inline.
    Workers take the blocks in order, each the next one not yet taken, so a
    worker that the host slows down takes fewer. The results come back in block order. When blocks raise, no further block
    is started, and once every thread is joined the exception of the first
    failing block in block order is raised: every block before it had been
    taken, and so has run.
    """
    workers = min(_usable_cpus(), len(blocks)) if work >= _MIN_WORK else 1
    if workers < 2:
        return [fn(b) for b in blocks]
    results: list = [None] * len(blocks)
    errors: dict[int, BaseException] = {}
    lock = threading.Lock()
    taken = 0

    def drain() -> None:
        nonlocal taken
        while True:
            with lock:
                i = taken
                if i >= len(blocks) or errors:
                    return
                taken += 1
            try:
                results[i] = fn(blocks[i])
            except BaseException as exc:
                with lock:
                    errors[i] = exc
                return

    threads = []
    try:
        for _ in range(workers - 1):
            t = threading.Thread(target=drain, name="nmpkit-block")
            try:
                t.start()
            except RuntimeError:
                break  # no thread to spare: the others take its blocks
            threads.append(t)
        drain()
    finally:
        with lock:
            taken = len(blocks)
        for t in threads:
            t.join()
    if errors:
        raise errors[min(errors)]
    return results
