import hypothesis.strategies as st
import numpy as np
from hypothesis import settings

from nmpkit import BipartiteGraph, TreeCopy, TreeFactor, induced_subgraph, left_set, right_set
from nmpkit.rng import u64_stream

settings.register_profile("suite", deadline=None)
# A deeper search for one part of the suite, chosen with
# --hypothesis-profile=deep.
settings.register_profile("deep", deadline=None, max_examples=2000)
settings.load_profile("suite")


@st.composite
def bipartite_graphs(draw, max_k=8, max_n=10, min_k=1, min_n=1):
    k = draw(st.integers(min_k, max_k))
    n = draw(st.integers(min_n, max_n))
    edges = draw(
        st.sets(
            st.tuples(st.integers(0, k - 1), st.integers(0, n - 1)),
            max_size=k * n,
        )
    )
    return BipartiteGraph.from_edges(k, n, sorted(edges))


def uniform_stream(seed: int, count: int) -> np.ndarray:
    """First `count` uniform doubles in [0, 1) of SplitMix64(seed): the 53
    high bits of each output, as SplitMix64.random() takes them."""
    return (u64_stream(seed, count) >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def complete_graph(k: int, n: int) -> BipartiteGraph:
    return BipartiteGraph.from_edges(k, n, [(x, y) for x in range(k) for y in range(n)])


def remainder_and_factor(g, d_x, d_y, factor):
    """Induced remainder after deleting d_x and d_y, plus the factor remapped
    to the remainder's indices (None, None if a side is emptied)."""
    keep_x = left_set(set(range(g.k)) - set(d_x.members))
    keep_y = right_set(set(range(g.n)) - set(d_y.members))
    sub, lmap, rmap = induced_subgraph(g, keep_x, keep_y)
    if sub is None:
        return None, None
    li = {o: i for i, o in enumerate(lmap)}
    ri = {o: j for j, o in enumerate(rmap)}
    mapped = TreeFactor(
        factor.ell,
        factor.L,
        tuple(
            TreeCopy(
                tuple(li[h] for h in c.left_by_role),
                tuple(ri[h] for h in c.right_by_role),
                tuple((li[x], ri[y]) for x, y in c.edges),
            )
            for c in factor.copies
        ),
    )
    return sub, mapped
