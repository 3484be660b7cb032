import math
from fractions import Fraction
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from nmpkit import (
    PseudoParams,
    estimate_thomason_params,
    gen_gnp,
    gen_pg2,
    gen_sum_cayley,
    BipartiteGraph,
    left_set,
    mixing_audit,
    mixing_deviation,
    right_set,
    robust_delete,
    verify_thomason,
)
from nmpkit import pseudo
from nmpkit.pseudo import _codegree_scan, _is_prime
from nmpkit.rng import u64_stream, uniform_stream

from conftest import bipartite_graphs, complete_graph


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


# Below one generation block, exactly one, and one full block plus a part.
@pytest.mark.parametrize("k, n", [(1, 1), (1, 9), (3, 7), (128, 256), (200, 300)])
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
        for a, b in ((g.indptr, ref.indptr), (g.indices, ref.indices),
                     (g.rindptr, ref.rindptr), (g.rindices, ref.rindices)):
            assert a.tolist() == b.tolist(), p
    assert gen_gnp(k, n, tops[0] * 2.0 ** -53, seed).has_edge(0, 0) is False
    assert gen_gnp(k, n, math.nextafter(tops[0] * 2.0 ** -53, 1), seed).has_edge(0, 0)


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
    max_cod, _ = _codegree_scan(res.graph)
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
    max_cod, _ = _codegree_scan(g)
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
    max_cod, _ = _codegree_scan(g)
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
            max_cod, row_max = _codegree_scan(g)
        assert row_max.tolist() == want
        assert max_cod == max(want)


def test_codegree_scan_spans_several_blocks():
    g = gen_gnp(600, 40, 0.3, 17)
    m = g.matrix().astype(np.int64)
    gram = np.triu(m @ m.T, 1)
    max_cod, row_max = _codegree_scan(g)
    assert row_max.tolist() == gram.max(axis=1).tolist()
    assert max_cod == gram.max()


def test_codegree_scan_float64_path_matches():
    graphs = [gen_gnp(300, 50, 0.4, 5), gen_pg2(7), complete_graph(3, 4), gen_gnp(2, 1, 0.0, 1)]
    want = [_codegree_scan(g) for g in graphs]
    params = PseudoParams(Fraction(1, 5), 0)
    reports = [verify_thomason(g, params) for g in graphs]
    with mock.patch.object(pseudo, "_F32_EXACT_BELOW", 1):
        assert all(pseudo._incidence(g).dtype == np.float64 for g in graphs)
        for g, (max_cod, row_max), rep in zip(graphs, want, reports):
            got_max, got_rows = _codegree_scan(g)
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
    bound = _codegree_scan(base)[0]
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


def test_mixing_audit_precondition():
    g = gen_gnp(10, 10, 0.2, 8)
    with pytest.raises(ValueError):
        mixing_audit(g, PseudoParams(Fraction(9, 10), 0), 10, 1, form="thomason")


# ------------------------------------------------------------- robust delete


def test_robust_delete_pg2_11():
    g = gen_pg2(11)
    res = robust_delete(g, Fraction(12, 133), 0, eps=0.3, d_size=3, seed=2024)
    assert len(res.c_y) == 3
    assert res.attempts == 1
    # t = 0.3 * (12/133) * (133/3 - 1); no vertex can exceed (d/n + t) * D.
    assert res.threshold_t == pytest.approx(0.3 * (12 / 133) * (133 / 3 - 1))
    assert len(res.c_x) == 0
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
