import re

import numpy as np
import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from nmpkit.rng import (
    SplitMix64,
    _sample_masks,
    _u64_blocks,
    derive_seed,
    mix64,
    u64_stream,
)

from conftest import uniform_stream


def test_mix64_reference_values():
    # splitmix64 outputs for seed 0: published sequence of the reference
    # implementation (state += golden gamma, then mix).
    rng = SplitMix64(0)
    first = [rng.next_u64() for _ in range(3)]
    assert first == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_vector_scalar_agreement():
    seed = 0xDEADBEEF
    rng = SplitMix64(seed)
    scalar = [rng.next_u64() for _ in range(64)]
    vector = u64_stream(seed, 64).tolist()
    assert scalar == vector


def assert_blocks_are_the_stream_cut_up(seed, count, size):
    # Each block is a view that the next one overwrites, so copy it out
    # before asking for the next.
    blocks = [(start, b.tolist()) for start, b in _u64_blocks(seed, count, size)]
    assert [start for start, _ in blocks] == list(range(0, count, size))
    assert all(1 <= len(b) <= size for _, b in blocks)
    assert [v for _, b in blocks for v in b] == u64_stream(seed, count).tolist()


@given(st.integers(0, 2**64 - 1), st.integers(1, 300), st.integers(1, 70))
def test_blocks_are_the_stream_cut_up(seed, count, size):
    assert_blocks_are_the_stream_cut_up(seed, count, size)


@given(
    st.one_of(st.integers(0, 2**64 - 1), st.integers(2**64 - 2**12, 2**64 - 1)),
    st.integers(2, 40).flatmap(lambda size: st.tuples(st.just(size), st.integers(1, size - 1))),
)
@example(2**64 - 1, (7, 1))
def test_blocks_cover_several_blocks_and_a_partial_last(seed, size_and_tail):
    # Three full blocks and a partial last one. Near 2^64 the sum
    # seed + (start + i)*GOLDEN wraps, inside a block or between two.
    size, tail = size_and_tail
    assert_blocks_are_the_stream_cut_up(seed, 3 * size + tail, size)


@pytest.mark.parametrize("cast", [np.int64, np.uint64, np.int32, np.uint8])
def test_numpy_integer_seeds_are_the_python_int(cast):
    assert SplitMix64(cast(5)).next_u64() == SplitMix64(5).next_u64()
    assert derive_seed(cast(5), cast(1)) == derive_seed(5, 1)
    assert u64_stream(cast(5), 9).tolist() == u64_stream(5, 9).tolist()
    assert uniform_stream(cast(5), 9).tolist() == uniform_stream(5, 9).tolist()
    blocks = [(s, b.tolist()) for s, b in _u64_blocks(cast(5), 100, 30)]
    assert blocks == [(s, b.tolist()) for s, b in _u64_blocks(5, 100, 30)]


def test_numpy_seed_at_the_top_of_the_range():
    top = np.uint64(2**64 - 1)
    assert SplitMix64(top).next_u64() == SplitMix64(2**64 - 1).next_u64()
    assert derive_seed(top, 3) == derive_seed(2**64 - 1, 3)
    assert u64_stream(top, 5).tolist() == u64_stream(2**64 - 1, 5).tolist()


@pytest.mark.parametrize("bad", [5.0, np.float64(5), "5", None])
def test_non_integer_seed_is_a_type_error(bad):
    for call in (
        lambda: SplitMix64(bad),
        lambda: derive_seed(bad, 0),
        lambda: u64_stream(bad, 3),
        lambda: list(_u64_blocks(bad, 3, 2)),
    ):
        with pytest.raises(TypeError, match=r"seed must be an integer, got " + re.escape(repr(bad))):
            call()


def test_uniforms_match_random():
    seed = 99
    rng = SplitMix64(seed)
    scalar = [rng.random() for _ in range(16)]
    vector = uniform_stream(seed, 16).tolist()
    assert scalar == vector
    assert all(0 <= u < 1 for u in scalar)


def test_derive_seed_distinct():
    seeds = {derive_seed(7, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert derive_seed(7, 0) != derive_seed(8, 0)


@given(st.integers(0, 2**64 - 1), st.integers(1, 500))
def test_randbelow_range(seed, n):
    rng = SplitMix64(seed)
    for _ in range(5):
        assert 0 <= rng.randbelow(n) < n


@pytest.mark.parametrize("n", [0, -1])
def test_randbelow_rejects_an_empty_range(n):
    with pytest.raises(ValueError, match="n >= 1"):
        SplitMix64(1).randbelow(n)


@given(st.integers(0, 2**64 - 1), st.integers(0, 20), st.integers(0, 20))
def test_sample_without_replacement(seed, n_extra, size):
    n = size + n_extra
    rng = SplitMix64(seed)
    got = rng.sample(n, size)
    assert len(got) == size
    assert len(set(got)) == size
    assert all(0 <= v < n for v in got)


def sample_reference(rng, n, size):
    """Scalar partial Fisher-Yates: one randbelow per swap."""
    pool = list(range(n))
    for i in range(size):
        j = i + rng.randbelow(n - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:size]


def assert_sample_matches_reference(seed, n, size):
    rng, ref = SplitMix64(seed), SplitMix64(seed)
    assert rng.sample(n, size) == sample_reference(ref, n, size)
    assert rng.state == ref.state
    assert rng.next_u64() == ref.next_u64()


@pytest.mark.parametrize(
    "seed,n,size",
    [(0, 0, 0), (7, 5, 0), (7, 1, 0), (7, 1, 1), (2**64 - 1, 9, 9), (123, 2257, 2257)],
)
def test_sample_matches_reference_edges(seed, n, size):
    assert_sample_matches_reference(seed, n, size)


@given(st.integers(0, 2**64 - 1), st.integers(1, 400), st.data())
def test_sample_matches_reference(seed, n, data):
    assert_sample_matches_reference(seed, n, data.draw(st.integers(0, n)))


@st.composite
def draws(draw):
    """(start state, N, m) of one sample(N, m) draw; some states wrap."""
    n = draw(st.integers(0, 60))
    size = draw(st.integers(0, n))
    state = draw(st.one_of(st.integers(0, 2**64 - 1), st.integers(2**64 - 200, 2**64 - 1)))
    return state, n, size


def assert_masks_match_sample(batch):
    states, ns, sizes = zip(*batch)
    mask = _sample_masks(states, ns, sizes)
    assert mask.dtype == bool and len(mask) == sum(ns)
    cuts = np.cumsum((0,) + ns).tolist()
    for (state, n, size), lo, hi in zip(batch, cuts, cuts[1:]):
        got = np.flatnonzero(mask[lo:hi]).tolist()
        assert got == sorted(SplitMix64(state).sample(n, size)), (state, n, size)


@given(st.lists(draws(), min_size=1, max_size=6))
@example([(7, 5, 0), (7, 1, 1), (2**64 - 1, 9, 9), (0, 0, 0), (2**64 - 2, 1, 0)])
@example([(2**64 - 1, 60, 60), (2**64 - 3, 60, 59), (2**64 - 60, 2, 1)])
def test_sample_masks_match_sample(batch):
    assert_masks_match_sample(batch)


def test_sample_masks_match_sample_on_long_chains():
    # Draws close to N make long chains of retargeted positions.
    sizes = [2257, 2256, 2000, 1129, 1, 0]
    batch = [(derive_seed(3, i), 2257, m) for i, m in enumerate(sizes)]
    assert_masks_match_sample(batch + [(2**64 - 5, 133, 13), (123, 2257, 2257)])


def test_sample_masks_validate():
    with pytest.raises(ValueError):
        _sample_masks([0, 0], [3, 4], [3, 5])
    with pytest.raises(ValueError):
        _sample_masks([0], [3], [-1])


def test_sample_validates():
    with pytest.raises(ValueError):
        SplitMix64(0).sample(3, 4)


def test_mix64_masks_to_64_bits():
    assert mix64(2**64 + 5) == mix64(5)
    assert 0 <= mix64(2**63) < 2**64
