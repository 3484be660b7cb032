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

from collections.abc import Iterator

import numpy as np

ALGORITHM_ID = "splitmix64"

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def derive_seed(master: int, index: int) -> int:
    """Seed for substream `index` of the stream seeded with `master`."""
    return mix64(mix64(master) ^ mix64(index + 1))


class SplitMix64:
    """Sequential splitmix64 stream."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

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


def u64_stream(seed: int, count: int) -> np.ndarray:
    """First `count` outputs of SplitMix64(seed), vectorized (uint64).

    mix64 runs in place on one array, with one scratch array for the shifts.
    """
    z = np.arange(1, count + 1, dtype=np.uint64)
    z *= np.uint64(_GOLDEN)
    z += np.uint64(seed & _MASK)
    shifted = np.empty_like(z)
    z ^= np.right_shift(z, np.uint64(30), out=shifted)
    z *= np.uint64(_MIX1)
    z ^= np.right_shift(z, np.uint64(27), out=shifted)
    z *= np.uint64(_MIX2)
    z ^= np.right_shift(z, np.uint64(31), out=shifted)
    return z


def _u64_blocks(seed: int, count: int, size: int) -> Iterator[tuple[int, np.ndarray]]:
    """The first `count` outputs of SplitMix64(seed) as (offset, outputs)
    pairs of at most `size` outputs each, so no array exceeds `size`."""
    for start in range(0, count, size):
        yield start, u64_stream(seed + start * _GOLDEN, min(size, count - start))


def uniform_stream(seed: int, count: int) -> np.ndarray:
    """First `count` uniform doubles in [0, 1) of SplitMix64(seed)."""
    return (u64_stream(seed, count) >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
