"""Seedable 64-bit PRNG (splitmix64) with index-derived substreams.

Every randomized routine in this package draws from splitmix64, so a run is
fully determined by its seed and is reproducible in any language that
implements the same generator. The generator is counter-based: output number
i of the stream seeded with s is mix64(s + i*GOLDEN mod 2^64), which lets
bulk generation go through numpy with identical results to the scalar path.

Substreams (per trial, per attempt, ...) are derived as
``derive_seed(master, index) = mix64(mix64(master) ^ mix64(index + 1))``.
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Iterator

import numpy as np

ALGORITHM_ID = "splitmix64"

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# The mix's shifts and multipliers as numpy scalars, built once.
_NP_MIX = tuple(np.uint64(v) for v in (30, _MIX1, 27, _MIX2, 31))


def _seed64(seed) -> int:
    """seed as a Python int mod 2^64; numpy integers are accepted as the
    equal Python int, and anything that is not an integer is a TypeError."""
    try:
        return operator.index(seed) & _MASK
    except TypeError:
        raise TypeError(f"seed must be an integer, got {seed!r}") from None


def mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def derive_seed(master: int, index: int) -> int:
    """Seed for substream `index` of the stream seeded with `master`."""
    return mix64(mix64(_seed64(master)) ^ mix64(operator.index(index) + 1))


class SplitMix64:
    """Sequential splitmix64 stream."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = _seed64(seed)

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK
        return mix64(self.state)

    def random(self) -> float:
        # 53 high bits -> uniform double in [0, 1)
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def randbelow(self, n: int) -> int:
        # Plain modulo; the bias of ~n/2^64 is irrelevant at this scale and
        # keeps the mapping trivially portable.
        if n <= 0:
            raise ValueError("randbelow requires n >= 1")
        return self.next_u64() % n

    def sample(self, n: int, size: int) -> list[int]:
        """`size` distinct values from range(n), by partial Fisher-Yates.

        Returned in draw order (not sorted). Swap i takes the stream's next
        output u_i as j_i = i + u_i % (n - i), as `randbelow` would; all
        `size` outputs are drawn at once.
        """
        if not 0 <= size <= n:
            raise ValueError(f"cannot sample {size} items from range({n})")
        idx = np.arange(size, dtype=np.uint64)
        js = (idx + u64_stream(self.state, size) % (np.uint64(n) - idx)).tolist()
        self.state = (self.state + size * _GOLDEN) & _MASK
        pool = list(range(n))
        for i, j in enumerate(js):
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:size]


def _mix64_array(z: np.ndarray, shifted: np.ndarray | None = None) -> np.ndarray:
    """mix64 of every element of the uint64 array z, in place; returns z.

    The scratch array `shifted`, of z's shape, holds the shifts; a fresh
    one is allocated when it is not given.
    """
    if shifted is None:
        shifted = np.empty_like(z)
    s1, m1, s2, m2, s3 = _NP_MIX
    z ^= np.right_shift(z, s1, out=shifted)
    z *= m1
    z ^= np.right_shift(z, s2, out=shifted)
    z *= m2
    z ^= np.right_shift(z, s3, out=shifted)
    return z


def u64_stream(seed: int, count: int) -> np.ndarray:
    """First `count` outputs of SplitMix64(seed), vectorized (uint64)."""
    z = np.arange(1, count + 1, dtype=np.uint64)
    z *= np.uint64(_GOLDEN)
    z += np.uint64(_seed64(seed))
    return _mix64_array(z)


def _sample_masks(states, ns, sizes) -> np.ndarray:
    """Membership masks of SplitMix64(states[d]).sample(ns[d], sizes[d]), all d.

    Returns one flat bool array: draw d's mask is its slice of length ns[d],
    the slices laid end to end in draw order. Exact, without a sort: step
    i < m of a draw takes output u_i = mix64(s + (i+1)*GOLDEN) and swaps
    positions i and j_i = i + u_i % (N - i) >= i. A position p >= m ends up
    holding the value that position last(p) held just before its step,
    last(p) being the latest step whose target is p; and that value is
    R(last(p)), the root of the chain q -> L(q) -> ..., where L(q) is the
    latest step i < q whose target is q (q is the root if there is none).
    So the drawn set is [0, m) plus the targets >= m, less R(last(p)) for
    each target p >= m. `latest[q]`, the latest step whose target is q,
    gives both last(p) and L(q) for every q on a chain, as step q itself
    targets another position.
    """
    ns = np.asarray(ns, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    if np.any(sizes < 0) or np.any(sizes > ns):
        raise ValueError("every draw needs 0 <= size <= n")
    step = np.arange(int(sizes.sum()), dtype=np.int64)
    step -= np.repeat(np.cumsum(sizes) - sizes, sizes)
    z = step.astype(np.uint64)
    z += np.uint64(1)
    z *= np.uint64(_GOLDEN)
    z += np.repeat(np.asarray(states, dtype=np.uint64), sizes)
    _mix64_array(z)
    left = np.repeat(ns, sizes)
    left -= step
    z %= left.view(np.uint64)
    del left
    # Every value is below its n, so z reads as int64 unchanged.
    j = z.view(np.int64)
    j += step
    tail = j >= np.repeat(sizes, sizes)
    # Flat positions of the steps' own slots (i) and of their targets (j_i);
    # steps are named by their index in this concatenation, which orders
    # the steps of one draw. Both are made in place, over step and j.
    shift = np.repeat(np.cumsum(ns) - ns, sizes)
    src, tgt = step, j
    src += shift
    tgt += shift
    del shift
    latest = np.full(int(ns.sum()), -1, dtype=np.int64)
    np.maximum.at(latest, tgt, np.arange(len(tgt)))
    mask = np.zeros(len(latest), dtype=bool)
    mask[src] = True
    mask[tgt] = True
    # Walk each tail's chain up to its root, dropping finished walks; a step
    # that no step targets is its own parent.
    up = latest[src]
    up[up < 0] = np.flatnonzero(up < 0)
    root = latest[tgt[tail]]
    live = np.flatnonzero(up[root] != root)
    while live.size:
        root[live] = up[root[live]]
        live = live[up[root[live]] != root[live]]
    mask[src[root]] = False
    return mask


@functools.lru_cache(maxsize=4)
def _step_table(size: int) -> np.ndarray:
    """(i * GOLDEN) mod 2^64 for i = 1..size, read-only; built on first use."""
    steps = np.arange(1, size + 1, dtype=np.uint64)
    steps *= np.uint64(_GOLDEN)
    steps.flags.writeable = False
    return steps


def _u64_blocks(seed: int, count: int, size: int) -> Iterator[tuple[int, np.ndarray]]:
    """The first `count` outputs of SplitMix64(seed) as (offset, outputs)
    pairs of at most `size` outputs each, so no array exceeds `size`.

    Output start + i is mix64(seed + start*GOLDEN + (i+1)*GOLDEN), so each
    block adds one offset to the cached step table and mixes the sum in
    place. Two buffers serve every block: each yielded array is a view that
    the next block overwrites, so a caller keeps what it needs before
    asking for the next one.
    """
    seed = _seed64(seed)
    steps = _step_table(size)
    z = np.empty(min(size, count), dtype=np.uint64)
    shifted = np.empty_like(z)
    for start in range(0, count, size):
        m = min(size, count - start)
        block = np.add(steps[:m], np.uint64((seed + start * _GOLDEN) & _MASK), out=z[:m])
        yield start, _mix64_array(block, shifted[:m])
