import math
from fractions import Fraction
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from nmpkit import (
    MixingAudit,
    PseudoParams,
    estimate_thomason_params,
    gen_gnp,
    gen_pg2,
    gen_sum_cayley,
    BipartiteGraph,
    edge_count_between,
    left_set,
    mixing_audit,
    mixing_deviation,
    right_set,
    robust_delete,
    verify_thomason,
)
from nmpkit import pseudo
from nmpkit.pseudo import _codegree_scan, _incidence, _is_prime
from nmpkit.rng import SplitMix64, derive_seed, u64_stream

from conftest import bipartite_graphs, complete_graph, uniform_stream


def codegree_oracle(g, u, v):
    return len(set(g.neighbors(u).tolist()) & set(g.neighbors(v).tolist()))


# ---------------------------------------------------------------- generators


def test_gnp_extremes():
    assert gen_gnp(5, 7, 0.0, 1).edge_count == 0
    assert gen_gnp(5, 7, 1.0, 1).edge_count == 35


def test_gnp_determinism_and_concentration():
    a = gen_gnp(100, 100, 0.5, 12345)
    b = gen_gnp(100, 100, 0.5, 12345)
    assert list(a.edges()) == list(b.edges())
    # Binomial(10^4, 1/2): five standard deviations is 250.
    assert abs(a.edge_count - 5000) <= 250
    assert a.edge_count == 4974  # regression: fixed by the seed


def gnp_by_floats(k, n, p, seed):
    """G(k, n, p) as the uniforms define it: pair x*n + y is an edge when
    its uniform is below p."""
    return BipartiteGraph.from_matrix((uniform_stream(seed, k * n) < p).reshape(k, n))


# Below one generation block (2^14 outputs), exactly one, exactly two, and
# several full blocks plus a part.
@pytest.mark.parametrize("k, n", [(1, 1), (1, 9), (3, 7), (64, 256), (128, 256), (200, 300)])
def test_gnp_integer_threshold_gives_the_float_bits(k, n):
    seed = 20 + k
    # Dyadic p = m * 2^-53 with m = v >> 11 of outputs of this very stream,
    # so some pair's uniform equals p exactly and is not an edge, while it
    # is one at the next double up.
    outs = u64_stream(seed, k * n).tolist()
    tops = [v >> 11 for v in outs]
    picks = [tops[0], tops[len(tops) // 2], tops[-1], min(tops), max(tops), 1, 2 ** 52]
    # An output whose low 11 bits are zero equals the integer bound itself.
    picks += [v >> 11 for v in outs if v % 2048 == 0][:1]
    dyadics = [m * 2.0 ** -53 for m in picks]
    ps = [0.0, 1.0, 5e-324, math.nextafter(1, 0), 0.3]
    ps += [q for d in dyadics for q in (d, math.nextafter(d, 0), math.nextafter(d, 1))]
    for p in ps:
        g, ref = gen_gnp(k, n, p, seed), gnp_by_floats(k, n, p, seed)
        for a, b in ((g.indptr, ref.indptr), (g.indices, ref.indices)):
            assert a.tolist() == b.tolist(), p
    assert gen_gnp(k, n, tops[0] * 2.0 ** -53, seed).has_edge(0, 0) is False
    assert gen_gnp(k, n, math.nextafter(tops[0] * 2.0 ** -53, 1), seed).has_edge(0, 0)


def gnp_keys_by_outputs(k, n, p, seed):
    """Edge keys x*n + y of G(k, n, p) from the whole stream at once: the
    outputs below ceil(p * 2^53) * 2^11."""
    return np.flatnonzero(u64_stream(seed, k * n) < np.uint64(math.ceil(p * 2**53) << 11))


@pytest.mark.parametrize("seed", [0, 77, 2**64 - 1, 2**64 - 0x9E3779B97F4A7C15])
def test_gnp_many_blocks_are_the_unblocked_stream(seed):
    # k*n = 90300 outputs, above two blocks of 2^15: five full blocks of
    # 2^14 and a partial last one. Near 2^64 the block offsets wrap.
    k, n = 300, 301
    for p in (0.019, 0.5, math.nextafter(1, 0)):
        g = gen_gnp(k, n, p, seed)
        keys = np.repeat(np.arange(k), np.diff(g.indptr)) * n + g.indices
        assert keys.tolist() == gnp_keys_by_outputs(k, n, p, seed).tolist()


@pytest.mark.parametrize("cast", [np.int64, np.uint64])
def test_gnp_numpy_seeds_are_the_python_int(cast):
    for k, n in ((10, 10), (300, 300)):
        g, ref = gen_gnp(k, n, 0.5, cast(5)), gen_gnp(k, n, 0.5, 5)
        assert g.indptr.tolist() == ref.indptr.tolist()
        assert g.indices.tolist() == ref.indices.tolist()


def test_gnp_rejects_a_float_seed():
    for p in (0.5, 1.0):
        with pytest.raises(TypeError, match=r"seed must be an integer, got 5\.0"):
            gen_gnp(3, 3, p, 5.0)


def test_gnp_validates_p():
    with pytest.raises(ValueError):
        gen_gnp(2, 2, 1.5, 0)


def test_sum_cayley_quadratic_residues_q13():
    res = gen_sum_cayley(13, 2)
    assert res.h == (1, 3, 4, 9, 10, 12)
    assert all(res.graph.degree(x) == 6 for x in range(13))


def test_sum_cayley_singleton_subgroup_q5():
    res = gen_sum_cayley(5, 4)
    assert res.h == (1,)
    # x is adjacent exactly to 1 - x mod 5: a perfect matching pattern.
    assert sorted(res.graph.edges()) == [(0, 1), (1, 0), (2, 4), (3, 3), (4, 2)]


def test_sum_cayley_q101_codegree_scan():
    res = gen_sum_cayley(101, 2)
    assert all(res.graph.degree(x) == 50 for x in range(101))
    max_cod, _ = _codegree_scan(_incidence(res.graph))
    assert max_cod == 25  # regression from the exhaustive scan
    assert max_cod <= len(res.h) ** 2 / 101 + 2 * math.sqrt(101)


def test_sum_cayley_subsets_and_errors():
    res = gen_sum_cayley(13, 2, x_spec=[0, 1, 2], y_spec="all")
    assert res.graph.k == 3 and res.graph.n == 13
    with pytest.raises(ValueError, match="not prime"):
        gen_sum_cayley(12, 2)
    with pytest.raises(ValueError, match="divide"):
        gen_sum_cayley(13, 5)
    with pytest.raises(ValueError, match="outside"):
        gen_sum_cayley(13, 2, x_spec=[13])


def test_is_prime():
    assert [q for q in range(2, 30) if _is_prime(q)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_pg2_fano():
    g = gen_pg2(2)
    assert (g.k, g.n) == (7, 7)
    assert all(g.degree(x) == 3 for x in range(7))
    cods = [codegree_oracle(g, u, v) for u in range(7) for v in range(u + 1, 7)]
    assert set(cods) == {1}


def test_pg2_q3():
    g = gen_pg2(3)
    assert (g.k, g.n) == (13, 13)
    assert all(g.degree(x) == 4 for x in range(13))
    max_cod, _ = _codegree_scan(_incidence(g))
    assert max_cod == 1


def test_pg2_q11_verifies():
    g = gen_pg2(11)
    assert (g.k, g.n) == (133, 133)
    rep = verify_thomason(g, PseudoParams(Fraction(12, 133), 0))
    assert rep.passed
    assert rep.max_codegree == 1


def test_pg2_rejects_non_prime():
    with pytest.raises(ValueError, match="not prime"):
        gen_pg2(9)


def pg2_dense(q):
    """PG(2, q) from the whole point-by-line product, through from_edges."""
    reps = [(0, 0, 1)] + [(0, 1, c) for c in range(q)]
    reps += [(1, b, c) for b in range(q) for c in range(q)]
    pts = np.array(reps, dtype=np.int64)
    inc = (pts @ pts.T) % q == 0
    return BipartiteGraph.from_edges(len(pts), len(pts), np.argwhere(inc))


def sum_cayley_dense(q, d, xs, ys):
    """The sum-Cayley graph from the whole |X| x |Y| table of sums."""
    in_h = np.zeros(q, dtype=bool)
    in_h[[pow(v, d, q) for v in range(1, q)]] = True
    inc = in_h[np.add.outer(np.array(xs), np.array(ys)) % q]
    return BipartiteGraph.from_edges(len(xs), len(ys), np.argwhere(inc))


# From q = 17 on, q^2 + q + 1 > 256 points span several row blocks.
@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13, 17, 19, 23])
def test_pg2_equals_the_dense_construction(q):
    assert gen_pg2(q) == pg2_dense(q)


SUM_CAYLEY_CASES = [
    (13, 2),
    (5, 4),
    (13, 2, [0, 1, 2], "all"),
    (263, 2),
    (1009, 2, "all", list(range(0, 1009, 3))),
]


@pytest.mark.parametrize("args", SUM_CAYLEY_CASES)
def test_sum_cayley_equals_the_dense_construction(args):
    res = gen_sum_cayley(*args)
    assert res.graph == sum_cayley_dense(res.q, res.d, res.x_elements, res.y_elements)


@pytest.mark.parametrize("rows", [1, 7])
def test_generators_equal_the_dense_construction_in_any_row_blocks(rows):
    # Blocks that split the rows unevenly, with a short last block.
    with mock.patch.object(pseudo, "_GEN_ROWS", rows):
        assert gen_pg2(5) == pg2_dense(5)
        res = gen_sum_cayley(13, 2, [1, 4, 5, 9, 12], "all")
        assert res.graph == sum_cayley_dense(13, 2, res.x_elements, res.y_elements)


# ------------------------------------------------------------- verification


def test_verify_complete_graph_p1():
    g = complete_graph(3, 4)
    rep = verify_thomason(g, PseudoParams(1, 0))
    assert rep.passed
    assert rep.min_left_degree == 4 and rep.max_codegree == 4


def test_verify_flags_isolated_vertex():
    g = complete_graph(3, 4).matrix()
    g[1, :] = False
    from nmpkit import BipartiteGraph

    rep = verify_thomason(BipartiteGraph.from_matrix(g), PseudoParams(Fraction(1, 2), 0))
    assert not rep.passed
    assert rep.violating_vertex == 1


def test_verify_flags_codegree_pair():
    from nmpkit import BipartiteGraph

    g = BipartiteGraph.from_edges(3, 4, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3)])
    # p = 1/2: degrees fine (all 2 >= 2); codegree(0,1) = 2 > (1+0)*p^2*n = 1.
    rep = verify_thomason(g, PseudoParams(Fraction(1, 2), 0))
    assert not rep.passed
    assert rep.violating_pair == (0, 1)


def test_verify_requires_two_left_vertices():
    from nmpkit import BipartiteGraph

    g = BipartiteGraph.from_edges(1, 3, [(0, 0)])
    with pytest.raises(ValueError, match="k >= 2"):
        verify_thomason(g, PseudoParams(Fraction(1, 3), 0))


def test_codegree_scan_matches_oracle():
    g = gen_gnp(12, 20, 0.4, 99)
    max_cod, _ = _codegree_scan(_incidence(g))
    oracle = max(
        codegree_oracle(g, u, v) for u in range(12) for v in range(u + 1, 12)
    )
    assert max_cod == oracle


def row_max_oracle(g):
    return [
        max((codegree_oracle(g, u, v) for v in range(u + 1, g.k)), default=0)
        for u in range(g.k)
    ]


@given(
    st.one_of(
        bipartite_graphs(max_k=12, max_n=10, min_k=2),
        st.builds(complete_graph, st.integers(2, 9), st.integers(1, 9)),
    ),
    st.integers(1, 4),
)
@example(BipartiteGraph.from_edges(2, 1, []), 1)
@example(BipartiteGraph.from_edges(2, 1, [(0, 0), (1, 0)]), 1)
@example(BipartiteGraph.from_edges(4, 3, [(0, 0), (0, 2), (3, 0), (3, 2)]), 2)
@example(complete_graph(5, 1), 3)
@settings(max_examples=120)
def test_codegree_scan_row_max_matches_oracle(g, block):
    # Small blocks make the scan cross block boundaries at these sizes.
    want = row_max_oracle(g)
    for rows in (pseudo._SCAN_ROWS, block):
        with mock.patch.object(pseudo, "_SCAN_ROWS", rows):
            max_cod, row_max = _codegree_scan(_incidence(g))
        assert row_max.tolist() == want
        assert max_cod == max(want)


@given(
    st.one_of(
        bipartite_graphs(max_k=12, max_n=10, min_k=1),
        st.builds(complete_graph, st.integers(1, 9), st.integers(1, 9)),
    ),
    st.integers(1, 4),
)
@example(BipartiteGraph.from_edges(2, 1, []), 1)
@example(BipartiteGraph.from_edges(1, 3, [(0, 0), (0, 2)]), 1)
@example(complete_graph(5, 1), 3)
@settings(max_examples=120)
def test_pair_scan_matches_the_gram_scan(g, block):
    # Small blocks make the pair count cross block boundaries at these sizes.
    want_max, want_rows = _codegree_scan(_incidence(g))
    for bins in (pseudo._PAIR_BINS, block * g.k):
        with mock.patch.object(pseudo, "_PAIR_BINS", bins):
            max_cod, row_max = pseudo._pair_scan(g)
        assert row_max.tolist() == want_rows.tolist()
        assert max_cod == want_max


@pytest.mark.parametrize("make", [
    lambda: gen_pg2(11),
    lambda: gen_sum_cayley(101, 2).graph,
    lambda: gen_gnp(600, 40, 0.3, 17),
    lambda: gen_gnp(40, 300, 0.05, 2),
])
def test_pair_scan_matches_the_gram_scan_on_larger_graphs(make):
    g = make()
    want_max, want_rows = _codegree_scan(_incidence(g))
    with mock.patch.object(pseudo, "_PAIR_BINS", 7 * g.k):
        max_cod, row_max = pseudo._pair_scan(g)
    assert max_cod == want_max and row_max.tolist() == want_rows.tolist()


def test_codegrees_picks_the_scan_by_pair_count():
    # k*k*n / pairs is 4516 for PG(2, 47) and 1988 for PG(2, 31), which take
    # the pair count; PG(2, 23) (1108) and G(300, 300, 0.3) take the Gram scan.
    cases = ((gen_pg2(47), True), (gen_pg2(31), True), (gen_pg2(23), False),
             (gen_gnp(300, 300, 0.3, 1), False))
    for g, pairs in cases:
        with mock.patch.object(pseudo, "_pair_scan", wraps=pseudo._pair_scan) as pair, \
                mock.patch.object(pseudo, "_codegree_scan", wraps=pseudo._codegree_scan) as gram:
            pseudo._codegrees(g)
        assert (pair.call_count, gram.call_count) == ((1, 0) if pairs else (0, 1))


def sparse_graph(k, n, ys, seed, m):
    """m random edges of a k x n graph, every right end drawn from ys."""
    rng = np.random.default_rng(seed)
    edges = {(int(x), int(y)) for x, y in zip(rng.integers(0, k, m), rng.choice(ys, m))}
    return BipartiteGraph.from_edges(k, n, sorted(edges))


def assert_pair_scan_is_exact(g, bins):
    want_max, want_rows = _codegree_scan(_incidence(g))
    with mock.patch.object(pseudo, "_PAIR_BINS", bins):
        max_cod, row_max = pseudo._pair_scan(g)
    assert max_cod == want_max and row_max.tolist() == want_rows.tolist()


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("k, bins", [
    (9, 1),        # _PAIR_BINS < k: one left row per block
    (9, 8),
    (11, 3 * 11),  # blocks of 3 rows over 10 rows: the last has one row
    (12, 4 * 12),  # blocks of 4 rows over 11 rows: the last has three
])
def test_pair_scan_block_edges(k, bins, seed):
    assert_pair_scan_is_exact(sparse_graph(k, 7, np.arange(7), seed, 3 * k), bins)


@pytest.mark.parametrize("bins", [1, 6, 1 << 17])
def test_pair_scan_empty_and_thin_graphs(bins):
    # No edges at all; right vertices of degree 0 and 1 among larger lists;
    # isolated left vertices at both ends, and a whole block of them.
    graphs = [
        BipartiteGraph.from_edges(5, 4, []),
        BipartiteGraph.from_edges(6, 5, [(0, 2), (1, 3), (2, 1), (2, 3), (4, 3), (5, 1), (5, 3)]),
        BipartiteGraph.from_edges(8, 3, [(2, 0), (2, 1), (3, 0), (3, 1), (5, 1)]),
        BipartiteGraph.from_edges(3, 1, [(1, 0)]),
    ]
    for g in graphs:
        assert_pair_scan_is_exact(g, bins)


@pytest.mark.parametrize("n", [255, 256, 257, 65535, 65536, 65537])
def test_pair_scan_across_the_sort_dtype_switches(n):
    # The argsort key is uint8 up to n = 256, uint16 up to n = 65536. Right
    # ends at 0, 255, 256 and the top would collide in a key one size too
    # narrow.
    ys = np.array(sorted(y for y in {0, 1, 255, 256, n // 2, n - 2, n - 1} if y < n))
    for seed in range(3):
        assert_pair_scan_is_exact(sparse_graph(6, n, ys, seed, 20), 2 * 6)


@given(
    bipartite_graphs(max_k=8, max_n=10, min_k=2),
    st.fractions(Fraction(1, 50), 1, max_denominator=50),
    st.fractions(0, 2, max_denominator=50),
)
@settings(max_examples=80)
def test_verify_and_estimate_agree_on_both_scans(g, p, eps):
    params = PseudoParams(p, eps)
    got = []
    for ratio in (0, 10**30):  # every graph takes the pair count, then the Gram scan
        with mock.patch.object(pseudo, "_PAIR_RATIO", ratio):
            est = None if min(np.diff(g.indptr)) == 0 else estimate_thomason_params(g)
            got.append((verify_thomason(g, params), est))
    assert got[0] == got[1]


@given(
    bipartite_graphs(max_k=8, max_n=10, min_k=2),
    st.fractions(Fraction(1, 50), 1, max_denominator=50),
    st.fractions(0, 2, max_denominator=50),
)
@settings(max_examples=80)
def test_report_carries_the_estimate(g, p, eps):
    params = PseudoParams(p, eps)
    rep = verify_thomason(g, params)
    if min(np.diff(g.indptr)) == 0:
        assert rep.estimated is None
    else:
        est, scan = pseudo._estimate_scan(g)
        assert rep.estimated == est == estimate_thomason_params(g)
        # The estimate's own scan builds the same report, at any params.
        assert pseudo._thomason_report(g, params, scan) == rep
        assert pseudo._thomason_report(g, est, scan) == verify_thomason(g, est)


def test_codegree_scan_spans_several_blocks():
    g = gen_gnp(600, 40, 0.3, 17)
    m = g.matrix().astype(np.int64)
    gram = np.triu(m @ m.T, 1)
    max_cod, row_max = _codegree_scan(_incidence(g))
    assert row_max.tolist() == gram.max(axis=1).tolist()
    assert max_cod == gram.max()


def test_codegree_scan_float64_path_matches():
    graphs = [gen_gnp(300, 50, 0.4, 5), gen_pg2(7), complete_graph(3, 4), gen_gnp(2, 1, 0.0, 1)]
    want = [_codegree_scan(_incidence(g)) for g in graphs]
    params = PseudoParams(Fraction(1, 5), 0)
    reports = [verify_thomason(g, params) for g in graphs]
    with mock.patch.object(pseudo, "_F32_EXACT_BELOW", 1):
        assert all(pseudo._incidence(g).dtype == np.float64 for g in graphs)
        for g, (max_cod, row_max), rep in zip(graphs, want, reports):
            got_max, got_rows = _codegree_scan(_incidence(g))
            assert got_max == max_cod and got_rows.tolist() == row_max.tolist()
            assert verify_thomason(g, params) == rep
    g = gen_pg2(7)
    with mock.patch.object(pseudo, "_F32_EXACT_BELOW", g.n):
        assert pseudo._incidence(g).dtype == np.float64
    with mock.patch.object(pseudo, "_F32_EXACT_BELOW", g.n + 1):
        assert pseudo._incidence(g).dtype == np.float32


def first_pair_over(g, bound):
    for u in range(g.k):
        for v in range(u + 1, g.k):
            if codegree_oracle(g, u, v) > bound:
                return (u, v)
    return None


@pytest.mark.parametrize("seed", [3, 11, 29, 47])
def test_violating_pair_is_lexicographically_first(seed):
    n = 80
    base = gen_gnp(60, n, 0.15, seed)
    bound = _codegree_scan(_incidence(base))[0]
    mat = base.matrix()
    # Copy a few rows onto later ones: each copy shares its whole row, well
    # above the random codegrees, and may create more pairs over the bound.
    rng = np.random.default_rng(seed)
    for u in sorted(rng.choice(59, size=4, replace=False).tolist()):
        v = int(rng.integers(u + 1, 60))
        mat[v] |= mat[u]
    g = BipartiteGraph.from_matrix(mat)
    # (1 + eps) * p^2 * n == bound exactly, with p = 1/n.
    params = PseudoParams(Fraction(1, n), bound * n - 1)
    want = first_pair_over(g, bound)
    assert want is not None
    rep = verify_thomason(g, params)
    assert rep.violating_pair == want
    assert not rep.passed
    with mock.patch.object(pseudo, "_PAIR_RATIO", 0):
        assert verify_thomason(g, params) == rep


@given(bipartite_graphs(max_k=8, max_n=10, min_k=2))
@settings(max_examples=60)
def test_estimate_always_verifies(g):
    if min(g.degree(x) for x in range(g.k)) == 0:
        with pytest.raises(ValueError, match="isolated"):
            estimate_thomason_params(g)
        return
    params = estimate_thomason_params(g)
    assert verify_thomason(g, params).passed


def test_estimate_complete():
    params = estimate_thomason_params(complete_graph(3, 4))
    assert params.p == 1 and params.eps == 0


def test_estimate_pg2_3():
    params = estimate_thomason_params(gen_pg2(3))
    assert params.p == Fraction(4, 13)
    assert params.eps == 0  # codegree 1 <= p^2 n = 16/13


def test_estimate_gnp_regression():
    g = gen_gnp(200, 300, 0.5, 4242)
    params = estimate_thomason_params(g)
    assert params.p == Fraction(125, 300)
    assert params.eps == Fraction(647, 625)
    assert verify_thomason(g, params).passed


def test_params_validation():
    with pytest.raises(ValueError):
        PseudoParams(0, 0)
    with pytest.raises(ValueError):
        PseudoParams(Fraction(1, 2), -1)
    assert not PseudoParams(Fraction(1, 2), Fraction(3, 2)).eps_in_definition_range


# -------------------------------------------------------------------- audits


def test_mixing_audit_pg2_small():
    g = gen_pg2(11)
    rep = mixing_audit(g, PseudoParams(Fraction(12, 133), 0), 150, 31, form="thomason")
    assert rep.violations == 0
    assert rep.worst_margin >= 0


def test_mixing_audit_full_sets():
    g = gen_pg2(11)
    holds, dev, bound = mixing_deviation(
        g, left_set(range(133)), right_set(range(133)), PseudoParams(Fraction(12, 133), 0)
    )
    assert holds
    assert dev == pytest.approx(abs(g.edge_count - float(Fraction(12, 133)) * 133 * 133))


def test_mixing_audit_alon_bourgain_small():
    res = gen_sum_cayley(101, 2)
    rep = mixing_audit(
        res.graph, None, 150, 32, form="alon_bourgain", h_size=len(res.h), q=101
    )
    assert rep.violations == 0


def test_mixing_audit_detects_false_claim():
    # Complete graph audited against a claimed density of 11/41: any sampled
    # pair with a*b > q/(1 - h/q)^2 = 76.5 violates, so most samples do.
    g = complete_graph(20, 40)
    rep = mixing_audit(g, None, 300, 5, form="alon_bourgain", h_size=11, q=41)
    assert rep.violations > 0
    assert rep.worst_margin < 0


def mixing_audit_reference(g, params, samples, seed, form="thomason", h_size=None, q=None):
    """The audit one sample at a time: draw A and B in stream order, count
    e(A, B) on the graph, and check it with mixing_deviation."""
    a_min = math.ceil(1 / params.p) if form == "thomason" else 1
    violations, worst_margin, worst_sizes = 0, math.inf, (0, 0)
    for trial in range(samples):
        rng = SplitMix64(derive_seed(seed, trial))
        asz = a_min + rng.randbelow(g.k - a_min + 1)
        bsz = 1 + rng.randbelow(g.n)
        a = left_set(rng.sample(g.k, asz))
        b = right_set(rng.sample(g.n, bsz))
        assert edge_count_between(g, a, b) == sum(
            1 for x in a for y in g.neighbors(x).tolist() if y in b
        )
        holds, dev, bound = mixing_deviation(g, a, b, params, form, h_size, q)
        violations += not holds
        if bound - dev < worst_margin:
            worst_margin, worst_sizes = bound - dev, (asz, bsz)
    return MixingAudit(form, samples, violations, worst_margin, worst_sizes)


AUDIT_CASES = {
    "pg2_11": lambda: (gen_pg2(11), PseudoParams(Fraction(12, 133), 0), {}),
    "sum_cayley_101": lambda: (
        gen_sum_cayley(101, 2).graph, None, dict(form="alon_bourgain", h_size=50, q=101)
    ),
    "false_claim": lambda: (
        complete_graph(20, 40), None, dict(form="alon_bourgain", h_size=11, q=41)
    ),
    "wide_left": lambda: (
        gen_gnp(45, 17, 0.4, 6), None, dict(form="alon_bourgain", h_size=3, q=7)
    ),
}


@pytest.mark.parametrize("case", sorted(AUDIT_CASES))
@pytest.mark.parametrize("samples", [1, pseudo._AUDIT_ROWS, pseudo._AUDIT_ROWS + 1, 150])
def test_mixing_audit_matches_per_sample_loop(case, samples):
    g, params, kw = AUDIT_CASES[case]()
    for seed in (0, 5, 2**64 - 1):
        want = mixing_audit_reference(g, params, samples, seed, **kw)
        assert mixing_audit(g, params, samples, seed, **kw) == want
    if case == "false_claim" and samples > 1:
        assert want.violations > 0 and want.worst_margin < 0


def test_mixing_audit_counts_without_the_incidence_matrix():
    # Only the thomason precondition scan builds the k x n matrix.
    g, params, kw = AUDIT_CASES["sum_cayley_101"]()
    want = mixing_audit_reference(g, params, 40, 4, **kw)
    with mock.patch.object(pseudo, "_incidence", side_effect=AssertionError("matrix built")):
        assert mixing_audit(g, params, 40, 4, **kw) == want


@given(bipartite_graphs(max_k=9, max_n=12), st.data())
@settings(max_examples=80)
def test_block_edge_counts_match_edge_count_between(g, data):
    rows = data.draw(st.integers(1, pseudo._AUDIT_ROWS), label="rows")
    in_a = np.array(data.draw(st.lists(
        st.lists(st.booleans(), min_size=g.k, max_size=g.k), min_size=rows, max_size=rows)),
        dtype=bool).reshape(rows, g.k)
    in_b = np.array(data.draw(st.lists(
        st.lists(st.booleans(), min_size=g.n, max_size=g.n), min_size=rows, max_size=rows)),
        dtype=bool).reshape(rows, g.n)
    xs, ys = g.edge_arrays()
    want = [
        edge_count_between(g, left_set(np.flatnonzero(ra).tolist()),
                           right_set(np.flatnonzero(rb).tolist()))
        for ra, rb in zip(in_a, in_b)
    ]
    assert pseudo._block_edge_counts(xs, ys, in_a, in_b) == want


def test_mixing_audit_pg2_47_is_pinned():
    # Measured with the one-sample-at-a-time audit.
    g = gen_pg2(47)
    rep = mixing_audit(g, PseudoParams(Fraction(48, g.n), 0), 200, 1)
    assert rep == MixingAudit("thomason", 200, 0, 860.5067457246096, (523, 30))


def test_mixing_audit_precondition():
    g = gen_gnp(10, 10, 0.2, 8)
    with pytest.raises(ValueError):
        mixing_audit(g, PseudoParams(Fraction(9, 10), 0), 10, 1, form="thomason")


def mixing_check_by_fractions(e, asz, bsz, n, params, form, h_size, q):
    """The mixing check on Fractions, as the audit made it sample by sample."""
    if form == "thomason":
        dev = Fraction(e) - params.p * asz * bsz
        bound_sq = params.p * n * asz * bsz * (1 + params.eps * params.p * asz)
        holds = dev * dev <= bound_sq
    else:
        dev = Fraction(e) - Fraction(asz * bsz * h_size, q)
        bound_sq = Fraction(q * asz * bsz)
        holds = dev * dev < bound_sq
    return bool(holds), abs(float(dev)), math.sqrt(float(bound_sq))


@st.composite
def mixing_inputs(draw):
    n = draw(st.integers(1, 10**7))
    asz, bsz = draw(st.integers(1, 10**6)), draw(st.integers(1, n))
    e = draw(st.integers(0, asz * bsz))
    if draw(st.booleans()):
        p = draw(st.fractions(Fraction(1, 10**9), 1, max_denominator=10**9))
        eps = draw(st.one_of(st.just(Fraction(0)), st.fractions(0, 10, max_denominator=10**6)))
        return e, asz, bsz, n, PseudoParams(p, eps), "thomason", None, None
    q = draw(st.integers(2, 10**9))
    return e, asz, bsz, n, None, "alon_bourgain", draw(st.integers(1, q)), q


@given(mixing_inputs())
@example((0, 1, 1, 1, PseudoParams(1, 0), "thomason", None, None))
@example((48 * 48, 48, 48, 2257, PseudoParams(Fraction(48, 2257), 0), "thomason", None, None))
@example((1, 3, 5, 7, PseudoParams(Fraction(1, 3), Fraction(1, 2)), "thomason", None, None))
@example((12, 4, 4, 2, PseudoParams(Fraction(1, 2), 0), "thomason", None, None))
@example((3, 3, 3, 5, None, "alon_bourgain", 4, 4))
@example((3, 1, 4, 5, None, "alon_bourgain", 2, 8))
@settings(max_examples=300)
def test_mixing_check_is_the_fraction_formula(args):
    got = pseudo._mixing_check(*args)
    want = mixing_check_by_fractions(*args)
    assert got == want
    assert [type(v) for v in got] == [bool, float, float]


def test_mixing_check_at_the_boundary():
    # thomason, p = 1/2, eps = 0, n = 2, |A| = |B| = 4: the bound is
    # sqrt(1/2*2*4*4) = 4 around p*4*4 = 8, and a deviation equal to it holds.
    params = PseudoParams(Fraction(1, 2), 0)
    assert pseudo._mixing_check(12, 4, 4, 2, params, "thomason", None, None) == (True, 4.0, 4.0)
    assert pseudo._mixing_check(13, 4, 4, 2, params, "thomason", None, None) == (False, 5.0, 4.0)
    # alon_bourgain, q = 4, h = 4, |A| = |B| = 3: the bound is sqrt(4*3*3) = 6
    # around 9, and a deviation equal to it fails.
    assert pseudo._mixing_check(3, 3, 3, 5, None, "alon_bourgain", 4, 4) == (False, 6.0, 6.0)
    assert pseudo._mixing_check(4, 3, 3, 5, None, "alon_bourgain", 4, 4) == (True, 5.0, 6.0)


# ------------------------------------------------------------- robust delete


def test_robust_delete_pg2_11():
    g = gen_pg2(11)
    res = robust_delete(g, Fraction(12, 133), 0, eps=0.3, d_size=3, seed=2024)
    assert len(res.c_y) == 3
    assert res.attempts == 1
    # t = 0.3 * (12/133) * (133/3 - 1); no vertex can exceed (d/n + t) * D.
    assert res.threshold_t == pytest.approx(0.3 * (12 / 133) * (133 / 3 - 1))
    assert len(res.c_x) == 0
    assert res.c_y.members == (11, 20, 120)
    assert res.p1 == Fraction(12, 133) * (1 - Fraction(0.3))
    assert float(res.eps1) == pytest.approx(4.5)
    assert res.reverify.passed


def test_robust_delete_eta_bound():
    g = gen_pg2(11)
    res = robust_delete(g, Fraction(12, 133), 0, eps=0.3, d_size=3, seed=77)
    t, d = res.threshold_t, 3
    if 2 * t * t * d >= (49 / 64) / 0.3:
        eta = 2 * math.exp(-(49 / 64) / 0.3)
        assert len(res.c_x) <= eta * g.k


def bad_set_reference(g, t_set, t, d_size):
    """Left vertices with |N(u) & T| >= (d(u)/n + t) * D, one at a time."""
    return tuple(
        u for u in range(g.k)
        if sum(1 for y in g.neighbors(u).tolist() if y in t_set) >= (g.degree(u) / g.n + t) * d_size
    )


@pytest.mark.parametrize("d_size", [4, 5])
def test_robust_delete_bad_set_matches_per_vertex_loop(d_size):
    g = gen_pg2(7)
    found = {}
    for seed in range(30):
        res = robust_delete(g, Fraction(8, 57), 0, eps=0.45, d_size=d_size, seed=seed)
        rng = SplitMix64(derive_seed(seed, res.attempts - 1))
        t_set = set(rng.sample(g.n, d_size))
        assert res.c_y.members == tuple(sorted(t_set))
        assert res.c_x.members == bad_set_reference(g, t_set, res.threshold_t, d_size)
        found[seed] = (res.c_x.members, res.attempts)
    # Recorded with the per-vertex loop.
    if d_size == 4:
        assert found[20] == ((), 2)
    else:
        assert found[20] == ((14,), 1) and found[29] == ((21,), 1)


def test_robust_delete_bad_count_at_the_limit():
    # Left u is adjacent to the 8 vertices 8*(u mod 8) + i, so d(u)/n = 1/8,
    # and with eps = 1/4, D = 1, p0 = 1/18 the limit (d(u)/n + t) * D is
    # 1/8 + 7/8 = 1.0 exactly: the neighbors of the one vertex in T are bad.
    k, n = 324, 64
    g = BipartiteGraph.from_edges(k, n, sorted({(u, (8 * u + i) % n) for u in range(k) for i in range(8)}))
    res = robust_delete(g, Fraction(1, 18), 40, eps=0.25, d_size=1, seed=0)
    assert res.attempts == 1 and (8 / n + res.threshold_t) * 1 == 1.0
    (y,) = res.c_y.members
    assert res.c_x.members == tuple(g.swap_sides().neighbors(y).tolist())


def test_robust_delete_rejects_bad_d():
    g = gen_pg2(11)
    with pytest.raises(ValueError, match="outside"):
        robust_delete(g, Fraction(12, 133), 0, eps=0.3, d_size=0, seed=1)


def test_robust_delete_rejects_large_eps():
    g = gen_pg2(11)
    with pytest.raises(ValueError, match="eps must lie"):
        robust_delete(g, Fraction(12, 133), 0, eps=0.6, d_size=3, seed=1)


def test_robust_delete_rejects_small_p0():
    # (p0, eps0) = (1/133, 140) verifies on PG(2, 11) but p0 < 1/sqrt(k).
    g = gen_pg2(11)
    with pytest.raises(ValueError, match="sqrt"):
        robust_delete(g, Fraction(1, 133), 140, eps=0.3, d_size=3, seed=1)
