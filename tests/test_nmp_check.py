import copy
import dataclasses
import math
import pickle
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
import hypothesis.strategies as st

from nmpkit import (
    BipartiteGraph,
    IndependentPair,
    NMPCertificate,
    Verdict,
    build_euclidean_tree,
    check_nmp,
    gen_gnp,
    kleitman_independent_check,
    left_set,
    neighborhood,
    nmp_oracle_bruteforce,
    right_set,
    validate_certificate,
    witness_transfer,
)
from nmpkit import flow
from nmpkit.flow import max_flow
from nmpkit.rng import SplitMix64, derive_seed

from conftest import bipartite_graphs, complete_graph


def brute_multiplicity_solutions(g, row_sum, col_sum, cap):
    """Independent oracle: enumerate all integer edge weightings in [0, cap]."""
    edges = list(g.edges())
    sols = []
    for values in product(range(cap + 1), repeat=len(edges)):
        rows = [0] * g.k
        cols = [0] * g.n
        for (x, y), v in zip(edges, values):
            rows[x] += v
            cols[y] += v
        if all(r == row_sum for r in rows) and all(c == col_sum for c in cols):
            sols.append(dict(zip(edges, values)))
    return sols


def test_check_nmp_complete_k23():
    cert = check_nmp(complete_graph(2, 3))
    assert cert.verdict is Verdict.HAS_NMP
    assert (cert.row_sum, cert.col_sum) == (3, 2)
    validate_certificate(complete_graph(2, 3), cert)


def test_check_nmp_isolated_right_vertex():
    g = BipartiteGraph.from_edges(2, 2, [(0, 0), (1, 0)])
    cert = check_nmp(g)
    assert cert.verdict is Verdict.VIOLATED
    assert cert.witness.members == (0, 1)
    assert cert.witness_neighborhood_size == 1
    validate_certificate(g, cert)


def test_check_nmp_t23_multiplicity_is_the_unique_solution():
    g = build_euclidean_tree(2, 3).graph
    # The 4-variable integer system has exactly one solution; confirm by
    # exhaustive search, then require check_nmp to return it.
    sols = brute_multiplicity_solutions(g, row_sum=3, col_sum=2, cap=3)
    assert sols == [{(0, 0): 1, (0, 1): 2, (1, 0): 1, (1, 2): 2}]
    cert = check_nmp(g)
    assert cert.verdict is Verdict.HAS_NMP
    assert cert.multiplicity == sols[0]


def min_cuts_by_enumeration(g):
    """Every cut {s} u S u T of the documented network, edge capacity
    min(r, c); returns the minimum value and the intersection of the S
    parts of all cuts attaining it."""
    d = math.gcd(g.k, g.n)
    r, c = g.n // d, g.k // d
    w = min(r, c)
    nbr = [sum(1 << y for y in g.neighbors(x).tolist()) for x in range(g.k)]
    all_y = (1 << g.n) - 1
    best, common = None, None
    for s_mask in range(1 << g.k):
        rows = [nbr[x] for x in range(g.k) if s_mask >> x & 1]
        base = r * (g.k - len(rows))
        for t_mask in range(1 << g.n):
            value = base + c * t_mask.bit_count()
            value += w * sum((m & (all_y ^ t_mask)).bit_count() for m in rows)
            if best is None or value < best:
                best, common = value, s_mask
            elif value == best:
                common &= s_mask
    return best, tuple(x for x in range(g.k) if common >> x & 1)


@st.composite
def dense_small_graphs(draw):
    # One coin per pair, so about half the pairs are edges and both
    # verdicts are common.
    k, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    bits = draw(st.lists(st.booleans(), min_size=k * n, max_size=k * n))
    edges = [(x, y) for x in range(k) for y in range(n) if bits[x * n + y]]
    return BipartiteGraph.from_edges(k, n, edges)


@given(st.one_of(bipartite_graphs(max_k=6, max_n=6), dense_small_graphs()))
@settings(max_examples=80)
def test_witness_is_the_canonical_min_cut(g):
    cut_value, common = min_cuts_by_enumeration(g)
    cert = check_nmp(g)
    target = g.k * cert.row_sum
    value, _, witness, _ = max_flow(
        g.indptr.tolist(), g.indices.tolist(), g.k, g.n, cert.row_sum, cert.col_sum
    )
    assert value == cut_value
    assert (cert.verdict is Verdict.VIOLATED) == (cut_value < target)
    assert tuple(witness) == common
    if cert.verdict is Verdict.VIOLATED:
        assert cert.witness.members == common
        validate_certificate(g, cert)


@given(
    st.integers(50, 300),
    st.integers(50, 300),
    st.floats(0.2, 3.0),
    st.integers(0, 2**32),
)
@settings(max_examples=25)
def test_certificates_validate_at_scale(k, n, c, seed):
    # p = c*ln(max)/min spans both sides of the NMP threshold; the sizes
    # include unequal and coprime sides, where r and c reach the hundreds.
    p = min(1.0, c * math.log(max(k, n)) / min(k, n))
    g = gen_gnp(k, n, p, seed)
    cert = check_nmp(g)
    validate_certificate(g, cert)
    if cert.verdict is Verdict.HAS_NMP:
        assert list(cert.multiplicity) == list(g.edges())
    swapped = check_nmp(g.swap_sides())
    validate_certificate(g.swap_sides(), swapped)
    assert swapped.verdict is cert.verdict


def canonical_cut(g, r, c):
    """Minimum cut value and the intersection of its minimizing left sets,
    over left subsets only: with the edge arcs uncapacitated, a cut whose
    source side holds the lefts S must hold N(S) too, and costs
    r*(k - |S|) + c*|N(S)|."""
    nbr = [sum(1 << y for y in g.neighbors(x).tolist()) for x in range(g.k)]
    best, common = None, None
    for s_mask in range(1 << g.k):
        members = [x for x in range(g.k) if s_mask >> x & 1]
        nb = 0
        for x in members:
            nb |= nbr[x]
        value = r * (g.k - len(members)) + c * nb.bit_count()
        if best is None or value < best:
            best, common = value, s_mask
        elif value == best:
            common &= s_mask
    return best, [x for x in range(g.k) if common >> x & 1]


@st.composite
def unequal_sides(draw):
    k = draw(st.integers(1, 8))
    return k, draw(st.integers(1, 16).filter(lambda n: n != k))


@st.composite
def near_threshold_gnp(draw):
    # p = c*ln(max)/min with c around 1, where both verdicts are common.
    k, n = draw(unequal_sides())
    c = draw(st.floats(0.5, 3.0))
    p = min(1.0, c * math.log(max(k, n, 2)) / min(k, n))
    return gen_gnp(k, n, p, draw(st.integers(0, 2**64 - 1)))


@st.composite
def two_block_violations(draw):
    # Lefts [0, a) see only rights [0, b) and lefts [a, k) see rights
    # [b, n), plus some edges from [a, k) into [0, b). With a*n > b*k the
    # lefts [0, a) violate NMP; the cross edges give the repair pass rights
    # to move lefts off.
    k, n = draw(unequal_sides())
    assume(k >= 2 and n >= 2)
    a, b = draw(st.integers(1, k - 1)), draw(st.integers(1, n - 1))
    assume(a * n > b * k)
    edges = [(x, y) for x in range(a) for y in range(b)]
    edges += [(x, y) for x in range(a, k) for y in range(b, n)]
    cross = draw(st.sets(st.tuples(st.integers(a, k - 1), st.integers(0, b - 1))))
    return BipartiteGraph.from_edges(k, n, sorted(edges + list(cross)))


@given(st.one_of(near_threshold_gnp(), two_block_violations()))
@settings(max_examples=150)
def test_repair_with_capacities_keeps_the_flow_exact(g):
    d = math.gcd(g.k, g.n)
    r, c = g.n // d, g.k // d
    cert = check_nmp(g)
    assert cert.verdict is nmp_oracle_bruteforce(g).verdict
    validate_certificate(g, cert)
    value, fl, witness, nbhd = max_flow(g.indptr.tolist(), g.indices.tolist(), g.k, g.n, r, c)
    cut_value, common = canonical_cut(g, r, c)
    assert value == cut_value
    assert witness == common
    assert nbhd == len(neighborhood(g, left_set(witness)))
    if cert.verdict is Verdict.VIOLATED:
        assert list(cert.witness.members) == common
    # A feasible flow under either verdict: non-negative, every row within
    # r and every column within c, and its total is the value.
    assert min(fl, default=0) >= 0
    rows, cols = [0] * g.k, [0] * g.n
    for (x, y), f in zip(g.edges(), fl):
        rows[x] += f
        cols[y] += f
    assert max(rows) <= r and max(cols) <= c
    assert sum(rows) == value


def test_long_augmenting_path():
    # Lefts 0..n-2 take rights i and i+1, and left n-1 rights 0 and 1: a
    # path of 2n vertices with every left of degree 2. The greedy pass goes
    # in index order, giving left i right i for i < n-1, and leaves left
    # n-1 unfilled. The first phase, over the greedy pass's length-3
    # layering, finds no detour x -> y -> x2 -> y2: the rights of left n-1
    # are held by lefts 0 and 1, whose rights are all full, and the only
    # right with slack, n-1, is at the far end of the path. So the one
    # breadth-first layering that finds a path must push along a path
    # through every vertex, about 10^5 arcs.
    n = 50_000
    edges = [(i, i) for i in range(n - 1)] + [(i, i + 1) for i in range(n - 1)]
    g = BipartiteGraph.from_edges(n, n, edges + [(n - 1, 0), (n - 1, 1)])
    layers, found = flow._layers, []

    def recorded_layers(*args):
        out = layers(*args)
        found.append(out[2])
        return out

    with mock.patch("nmpkit.flow._layers", side_effect=recorded_layers):
        cert = check_nmp(g)
    assert found == [True, False]
    assert cert.verdict is Verdict.HAS_NMP
    validate_certificate(g, cert)
    # The shortest path starts at right 1 and moves every left from i to i+1.
    assert cert.multiplicity[(n - 1, 1)] == 1
    assert cert.multiplicity[(0, 0)] == 1
    assert cert.multiplicity[(n // 2, n // 2 + 1)] == 1
    assert cert.multiplicity[(n - 2, n - 1)] == 1


def test_oracle_star():
    star = build_euclidean_tree(1, 5).graph
    assert nmp_oracle_bruteforce(star).verdict is Verdict.HAS_NMP


def test_oracle_empty_graph_worst_set():
    g = BipartiteGraph.from_edges(2, 2, [])
    res = nmp_oracle_bruteforce(g)
    assert res.verdict is Verdict.VIOLATED
    assert res.worst_set.members == (0,)
    assert res.worst_ratio_pair == (0, 1)


def test_oracle_k_limit():
    g = complete_graph(23, 23)
    with pytest.raises(ValueError, match="k <= 22"):
        nmp_oracle_bruteforce(g)


@given(bipartite_graphs(max_k=7, max_n=9))
def test_oracle_equivalence_hypothesis(g):
    cert = check_nmp(g)
    validate_certificate(g, cert)
    assert cert.verdict is nmp_oracle_bruteforce(g).verdict


def test_oracle_equivalence_seeded_sweep():
    for trial in range(300):
        rng = SplitMix64(derive_seed(1001, trial))
        k = 1 + rng.randbelow(10)
        n = 1 + rng.randbelow(12)
        p = (1 + rng.randbelow(9)) / 10
        edges = [(x, y) for x in range(k) for y in range(n) if rng.random() < p]
        g = BipartiteGraph.from_edges(k, n, edges)
        cert = check_nmp(g)
        validate_certificate(g, cert)
        assert cert.verdict is nmp_oracle_bruteforce(g).verdict


@given(bipartite_graphs(max_k=6, max_n=8))
def test_side_symmetry(g):
    assert check_nmp(g).verdict is check_nmp(g.swap_sides()).verdict


@given(bipartite_graphs(max_k=5, max_n=6), st.randoms(use_true_random=False))
@settings(max_examples=40)
def test_monotonicity_under_edge_addition(g, rnd):
    cert = check_nmp(g)
    non_edges = [(x, y) for x in range(g.k) for y in range(g.n) if not g.has_edge(x, y)]
    rnd.shuffle(non_edges)
    for x, y in non_edges[:6]:
        g = BipartiteGraph.from_edges(g.k, g.n, [*g.edges(), (x, y)])
        new = check_nmp(g)
        if cert.verdict is Verdict.HAS_NMP:
            assert new.verdict is Verdict.HAS_NMP
        cert = new


def test_kleitman_complete():
    g = complete_graph(3, 4)
    assert kleitman_independent_check(g, IndependentPair(left_set([0]), right_set([])))


def test_kleitman_empty_graph_full_sides():
    g = BipartiteGraph.from_edges(2, 2, [])
    pair = IndependentPair(left_set([0, 1]), right_set([0, 1]))
    assert not kleitman_independent_check(g, pair)


def test_kleitman_rejects_dependent_pair():
    g = complete_graph(2, 2)
    with pytest.raises(ValueError, match="independent"):
        kleitman_independent_check(g, IndependentPair(left_set([0]), right_set([0])))


@pytest.mark.parametrize("pair, message", [
    (IndependentPair(left_set([7]), right_set([])), r"vertex 7 out of range for left side \(2\)"),
    (IndependentPair(left_set([0]), right_set([99])), r"vertex 99 out of range for right side \(4\)"),
    (IndependentPair(right_set([0]), right_set([])), "expected a left-side vertex set"),
])
def test_kleitman_checks_its_vertex_sets(pair, message):
    with pytest.raises(ValueError, match=message):
        kleitman_independent_check(BipartiteGraph.from_edges(2, 4, []), pair)


@given(bipartite_graphs(max_k=6, max_n=8))
def test_kleitman_on_violation_witness(g):
    cert = check_nmp(g)
    if cert.verdict is Verdict.VIOLATED:
        s = cert.witness
        ns = set(neighborhood(g, s).members)
        pair = IndependentPair(s, right_set(set(range(g.n)) - ns))
        assert kleitman_independent_check(g, pair) is False


def test_witness_transfer_isolated_right():
    g = BipartiteGraph.from_edges(2, 2, [(0, 1), (1, 1)])
    s = witness_transfer(g, right_set([0]))
    assert s.members == (0, 1)


def test_witness_transfer_empty_graph():
    g = BipartiteGraph.from_edges(2, 2, [])
    assert witness_transfer(g, right_set([0])).members == (0, 1)


def test_witness_transfer_rejects_a_left_set():
    with pytest.raises(ValueError, match="witness_transfer expects a right-side set"):
        witness_transfer(complete_graph(2, 2), left_set([0]))


def test_witness_transfer_rejects_non_witness():
    g = complete_graph(2, 2)
    with pytest.raises(ValueError, match="not a violating witness"):
        witness_transfer(g, right_set([0]))


@given(bipartite_graphs(max_k=6, max_n=8))
def test_witness_transfer_property(g):
    swapped = check_nmp(g.swap_sides())
    if swapped.verdict is Verdict.VIOLATED:
        t = right_set(swapped.witness.members)  # lives on g's right side
        s = witness_transfer(g, t)
        ns = neighborhood(g, s)
        assert g.k * len(ns) < g.n * len(s)


def test_validate_certificate_catches_tampering():
    g = complete_graph(2, 3)
    cert = check_nmp(g)
    bad = {k: v for k, v in cert.multiplicity.items()}
    bad[(0, 0)] += 1
    from nmpkit import NMPCertificate

    tampered = NMPCertificate(
        verdict=cert.verdict, row_sum=cert.row_sum, col_sum=cert.col_sum, multiplicity=bad
    )
    with pytest.raises(ValueError):
        validate_certificate(g, tampered)


def reference_multiplicity(g):
    """The multiplicity as a plain dict, straight from the solver's flow."""
    d = math.gcd(g.k, g.n)
    _, flow, _, _ = max_flow(g.indptr.tolist(), g.indices.tolist(), g.k, g.n, g.n // d, g.k // d)
    return dict(zip(g.edges(), flow))


@pytest.mark.parametrize(
    "g", [complete_graph(3, 6), build_euclidean_tree(2, 3).graph, gen_gnp(40, 60, 0.5, 7)]
)
def test_multiplicity_view_is_the_reference_dict(g):
    mult = check_nmp(g).multiplicity
    ref = reference_multiplicity(g)
    assert mult == ref and ref == mult and not mult != ref
    assert list(mult) == list(ref) == list(g.edges())
    assert list(mult.items()) == list(ref.items())
    assert len(mult) == len(ref) == g.edge_count
    assert mult == check_nmp(g).multiplicity
    changed = dict(ref)
    changed[next(iter(changed))] += 1
    assert mult != changed and mult != {}


def test_multiplicity_view_keeps_zeros():
    # K_{2,4}: each left vertex sends n/gcd = 2 units over 4 edges.
    mult = check_nmp(complete_graph(2, 4)).multiplicity
    assert sorted(mult.values()) == [0, 0, 0, 0, 1, 1, 1, 1]
    assert all(mult[(x, y)] in (0, 1) for x in range(2) for y in range(4))


def test_multiplicity_view_raises_keyerror_off_the_edges():
    g = build_euclidean_tree(2, 3).graph
    non_edge = next((x, y) for x in range(g.k) for y in range(g.n) if not g.has_edge(x, y))
    mult = check_nmp(g).multiplicity
    for key in (non_edge, (g.k, 0), (0, g.n), (-1, 0)):
        with pytest.raises(KeyError):
            mult[key]
        assert key not in mult and mult.get(key) is None


def test_multiplicity_view_is_built_on_first_read():
    g = gen_gnp(30, 45, 0.5, 3)
    with mock.patch.object(type(g), "edges", autospec=True, side_effect=type(g).edges) as edges:
        cert = check_nmp(g)
        assert cert.verdict is Verdict.HAS_NMP
        assert (cert.witness, cert.witness_neighborhood_size) == (None, None)
        assert edges.call_count == 0
        first = cert.multiplicity[(0, int(g.neighbors(0)[0]))]
        assert edges.call_count == 1
        assert type(cert.multiplicity) is dict and len(cert.multiplicity) == g.edge_count
        assert dict(cert.multiplicity)[(0, int(g.neighbors(0)[0]))] == first
        assert edges.call_count == 1


def test_plain_dict_certificate_validates_or_is_rejected():
    g = gen_gnp(40, 60, 0.5, 7)
    cert = check_nmp(g)
    plain = dataclasses.replace(cert, multiplicity=dict(cert.multiplicity))
    validate_certificate(g, plain)
    tampered = dict(cert.multiplicity)
    tampered[next(iter(tampered))] += 1
    with pytest.raises(ValueError, match="row sums"):
        validate_certificate(g, dataclasses.replace(cert, multiplicity=tampered))
    off_edge = dict(cert.multiplicity)
    off_edge[next((0, y) for y in range(g.n) if not g.has_edge(0, y))] = 0
    with pytest.raises(ValueError, match="non-edge"):
        validate_certificate(g, dataclasses.replace(cert, multiplicity=off_edge))


# T_{2,3} (x0: y0 y1, x1: y0 y2), K_{2,2} and K_{1,3} have NMP; with right
# vertex 1 isolated, the 2 x 2 graph VIOL is Violated. Each host maps to its
# graph and its verdict.
HAS, VIOL, K22, K13 = "T_{2,3}", "violated 2x2", "K_{2,2}", "K_{1,3}"
TAMPER_HOSTS = {
    HAS: (build_euclidean_tree(2, 3).graph, Verdict.HAS_NMP),
    VIOL: (BipartiteGraph.from_edges(2, 2, [(0, 0), (1, 0)]), Verdict.VIOLATED),
    K22: (complete_graph(2, 2), Verdict.HAS_NMP),
    K13: (complete_graph(1, 3), Verdict.HAS_NMP),
}


def _without(mult, key):
    return {e: m for e, m in mult.items() if e != key}


@pytest.mark.parametrize("host, tamper, message", [
    pytest.param(HAS, lambda c: {"col_sum": c.col_sum + 1},
                 "certificate sums do not match", id="sums"),
    pytest.param(HAS, lambda c: {"multiplicity": None},
                 "HasNMP certificate missing multiplicity function", id="no-multiplicity"),
    pytest.param(HAS, lambda c: {"multiplicity": {**c.multiplicity, (0, 2): 0}},
                 r"multiplicity on non-edge \(0, 2\)", id="non-edge"),
    pytest.param(HAS, lambda c: {"multiplicity": {**_without(c.multiplicity, (1, 2)), (-1, 2): 2}},
                 r"multiplicity on non-edge \(-1, 2\)", id="negative-left-index"),
    pytest.param(HAS, lambda c: {"multiplicity": {**c.multiplicity, (5, 0): 0}},
                 r"multiplicity on non-edge \(5, 0\)", id="left-index-past-k"),
    pytest.param(HAS, lambda c: {"multiplicity": {**c.multiplicity, (0, 0): -1}},
                 "negative multiplicity", id="negative"),
    pytest.param(K22, lambda c: {"multiplicity": {e: 0.5 for e in c.multiplicity}},
                 r"non-integer multiplicity 0\.5 on \(0, 0\)", id="fractional"),
    pytest.param(K22, lambda c: {"multiplicity": {e: bool(m) for e, m in c.multiplicity.items()}},
                 r"non-integer multiplicity (True|False) on \(0, 0\)", id="bool"),
    pytest.param(HAS, lambda c: {"multiplicity": {**c.multiplicity, (0, 0): 2}},
                 "row sums not constant", id="row-sum"),
    pytest.param(HAS, lambda c: {"multiplicity": {**c.multiplicity, (0, 0): 0, (0, 1): 3}},
                 "column sums not constant", id="column-sum"),
    pytest.param(VIOL, lambda c: {"witness": None},
                 "Violated certificate missing witness", id="no-witness"),
    pytest.param(VIOL, lambda c: {"witness": left_set([])},
                 "Violated certificate missing witness", id="empty-witness"),
    pytest.param(VIOL, lambda c: {"witness_neighborhood_size": c.witness_neighborhood_size + 1},
                 "stated witness neighborhood size is wrong", id="neighborhood-size"),
    pytest.param(VIOL, lambda c: {"witness": left_set([0]), "witness_neighborhood_size": 1},
                 "witness does not violate", id="not-violating"),
    pytest.param(K13, lambda c: {"verdict": Verdict.VIOLATED, "multiplicity": None,
                                 "witness": right_set([0, 1, 2]), "witness_neighborhood_size": 1},
                 "Violated certificate witness is not a left-side set", id="right-witness"),
])
def test_validate_certificate_rejects_each_defect(host, tamper, message):
    g, verdict = TAMPER_HOSTS[host]
    cert = check_nmp(g)
    assert cert.verdict is verdict
    validate_certificate(g, cert)
    with pytest.raises(ValueError, match=f"^{message}"):
        validate_certificate(g, dataclasses.replace(cert, **tamper(cert)))


def test_validate_certificate_accepts_numpy_integer_multiplicities():
    g, _ = TAMPER_HOSTS[HAS]
    cert = check_nmp(g)
    as_numpy = {e: np.int64(m) for e, m in cert.multiplicity.items()}
    validate_certificate(g, dataclasses.replace(cert, multiplicity=as_numpy))


def reference_multiplicity_check(g, row_sum, col_sum, mult):
    """The rejection a plain loop over the entries gives, or None: the first
    bad entry in dict order (non-edge, then non-integer, then negative),
    then the row sums, then the column sums."""
    rows, cols = [0] * g.k, [0] * g.n
    for (x, y), m in mult.items():
        if not (0 <= x < g.k and 0 <= y < g.n and g.has_edge(x, y)):
            return f"multiplicity on non-edge ({x}, {y})"
        if type(m) is not int and not isinstance(m, np.integer):
            return f"non-integer multiplicity {m!r} on ({x}, {y})"
        if m < 0:
            return "negative multiplicity"
        rows[x] += m
        cols[y] += m
    if any(r != row_sum for r in rows):
        return "row sums not constant at n/gcd"
    if any(c != col_sum for c in cols):
        return "column sums not constant at k/gcd"
    return None


def validator_message(g, cert):
    try:
        validate_certificate(g, cert)
    except ValueError as exc:
        return str(exc)
    return None


MULTIPLICITY_VALUES = st.one_of(
    st.integers(-3, 4), st.integers(-2**70, 2**70), st.sampled_from([0.5, 1.0, True, False, "1", None]),
    st.integers(0, 3).map(np.int64), st.integers(0, 3).map(np.uint8),
)


@given(
    bipartite_graphs(max_k=6, max_n=7),
    st.lists(st.tuples(st.integers(-1, 7), st.integers(-1, 8), MULTIPLICITY_VALUES), max_size=6),
    st.lists(st.integers(0, 60), max_size=3),
    st.booleans(),
)
@settings(max_examples=300)
def test_validator_matches_a_plain_loop_over_entries(g, changes, drops, reorder):
    # Well-formed keys: the vectorized validator gives the loop's verdict and
    # message on any mix of edges, non-edges, out-of-range indices, floats,
    # bools, strings, huge and negative values, in any dict order.
    cert = check_nmp(g)
    mult = dict(cert.multiplicity) if cert.verdict is Verdict.HAS_NMP else dict.fromkeys(g.edges(), 1)
    for i in drops:
        if mult:
            del mult[list(mult)[i % len(mult)]]
    for x, y, m in changes:
        mult[(x, y)] = m
    if reorder:
        mult = dict(reversed(list(mult.items())))
    d = math.gcd(g.k, g.n)
    plain = NMPCertificate(Verdict.HAS_NMP, g.n // d, g.k // d, mult)
    assert validator_message(g, plain) == reference_multiplicity_check(g, g.n // d, g.k // d, mult)


@pytest.mark.parametrize("key, message", [
    (5, "malformed multiplicity key 5"),
    ("ab", "malformed multiplicity key 'ab'"),
    ((0,), r"malformed multiplicity key \(0,\)"),
    ((0, 1, 2), r"malformed multiplicity key \(0, 1, 2\)"),
    (frozenset({0, 1}), r"malformed multiplicity key frozenset\(\{0, 1\}\)"),
    (b"\x00\x01", r"malformed multiplicity key b'\\x00\\x01'"),
    ((1.5, 0), r"multiplicity on non-edge \(1\.5, 0\)"),
    (("0", 0), r"multiplicity on non-edge \(0, 0\)"),
    ((0, 2**70), rf"multiplicity on non-edge \(0, {2**70}\)"),
    ((None, None), r"multiplicity on non-edge \(None, None\)"),
])
@pytest.mark.parametrize("where", ["first", "last"])
def test_validator_rejects_malformed_keys(key, message, where):
    g, _ = TAMPER_HOSTS[HAS]
    cert = check_nmp(g)
    entries = list(cert.multiplicity.items())
    entries.insert(0 if where == "first" else len(entries), (key, 0))
    with pytest.raises(ValueError, match=f"^{message}$"):
        validate_certificate(g, dataclasses.replace(cert, multiplicity=dict(entries)))


def test_validator_reports_the_first_bad_entry_in_dict_order():
    g, _ = TAMPER_HOSTS[HAS]  # T_{2,3}: x0 ~ y0 y1, x1 ~ y0 y2
    cert = check_nmp(g)
    good = dict(cert.multiplicity)
    cases = [
        ({(0, 0): -1, (0, 2): 0}, "negative multiplicity"),
        ({(0, 2): 0, (0, 0): -1}, r"multiplicity on non-edge \(0, 2\)"),
        ({(1, 0): 0.5, (0, 0): -1}, r"non-integer multiplicity 0\.5 on \(1, 0\)"),
        ({(0, 0): -1, (1, 0): 0.5}, "negative multiplicity"),
        ({(0, 0): 2**70}, "row sums not constant"),
        ({(0, 0): -2**70}, "negative multiplicity"),
        ({(0, 0): np.uint64(2**64 - 1)}, "row sums not constant"),
    ]
    for front, message in cases:
        mult = {**front, **{e: m for e, m in good.items() if e not in front}}
        with pytest.raises(ValueError, match=f"^{message}"):
            validate_certificate(g, dataclasses.replace(cert, multiplicity=mult))


def test_validator_sums_do_not_wrap():
    # On K_{3,3} (row and column sums 1) each row and column of
    # (M, M, 3) / (M, 3, M) / (3, M, M) with M = 2^63 - 1 sums to 2^64 + 1,
    # which wraps to 1 in int64.
    g = complete_graph(3, 3)
    cert = check_nmp(g)
    big = 2**63 - 1
    rows = [(big, big, 3), (big, 3, big), (3, big, big)]
    mult = {(x, y): rows[x][y] for x in range(3) for y in range(3)}
    with pytest.raises(ValueError, match="^row sums not constant"):
        validate_certificate(g, dataclasses.replace(cert, multiplicity=mult))


def test_validator_accepts_keys_equal_to_edges():
    # A key equal to an edge's (x, y) is that edge, as in the dict itself.
    g, _ = TAMPER_HOSTS[HAS]
    cert = check_nmp(g)
    for convert in (np.int64, np.uint16, lambda v: v):
        mult = {(convert(x), convert(y)): m for (x, y), m in cert.multiplicity.items()}
        validate_certificate(g, dataclasses.replace(cert, multiplicity=mult))


# ------------------------------------------------- the degree test, deferred


def eager_certificate(g):
    """check_nmp as a flow-first decision: the solver's verdict and witness."""
    d = math.gcd(g.k, g.n)
    r, c = g.n // d, g.k // d
    value, _, witness, nbhd = max_flow(g.indptr.tolist(), g.indices.tolist(), g.k, g.n, r, c)
    if value == g.k * r:
        return Verdict.HAS_NMP, None, None
    return Verdict.VIOLATED, tuple(witness), nbhd


@st.composite
def planted_under_degree(draw):
    """A graph where one vertex, left or right, has fewer neighbors than its
    quota ceil(n/k) or ceil(k/n); the sides are often unequal and coprime,
    so the quota exceeds one."""
    k, n = draw(st.integers(1, 7)), draw(st.integers(1, 12))
    if draw(st.booleans()):
        k, n = n, k
    bits = draw(st.lists(st.booleans(), min_size=k * n, max_size=k * n))
    edges = {(x, y) for x in range(k) for y in range(n) if bits[x * n + y]}
    if draw(st.booleans()):
        x = draw(st.integers(0, k - 1))
        keep = draw(st.sets(st.integers(0, n - 1), max_size=-(-n // k) - 1))
        edges = {(a, b) for a, b in edges if a != x} | {(x, y) for y in keep}
    else:
        y = draw(st.integers(0, n - 1))
        keep = draw(st.sets(st.integers(0, k - 1), max_size=-(-k // n) - 1))
        edges = {(a, b) for a, b in edges if b != y} | {(x, y) for x in keep}
    return BipartiteGraph.from_edges(k, n, sorted(edges))


@st.composite
def degree_passing_violations(draw):
    """Every degree meets its quota, yet NMP fails: A x C and B x D are
    complete with |A|/k > |C|/n, so k*|N(A)| < n*|A|; B may also see C."""
    k, n = draw(st.integers(2, 8)), draw(st.integers(2, 8))
    a, c = draw(st.integers(1, k - 1)), draw(st.integers(1, n - 1))
    assume(a * n > c * k)
    # Degrees of A, B, C, D against their quotas.
    assume(k * c >= n and k * (n - c) >= n and n * a >= k and n * (k - a) >= k)
    extra = draw(st.sets(st.tuples(st.integers(a, k - 1), st.integers(0, c - 1))))
    edges = {(x, y) for x in range(a) for y in range(c)}
    edges |= {(x, y) for x in range(a, k) for y in range(c, n)} | extra
    return BipartiteGraph.from_edges(k, n, sorted(edges))


@given(st.one_of(
    bipartite_graphs(max_k=7, max_n=12),
    dense_small_graphs(),
    planted_under_degree(),
    degree_passing_violations(),
))
# Every vertex meets its quota of one neighbor, yet lefts 0-2 see only rights 0-1.
@example(BipartiteGraph.from_edges(
    4, 4, [(x, y) for x in range(3) for y in range(2)] + [(3, 2), (3, 3)]))
@settings(max_examples=300)
def test_degree_settled_verdicts_match_the_flow(g):
    verdict, witness, nbhd = eager_certificate(g)
    cert = check_nmp(g)
    assert cert.verdict is verdict
    if verdict is Verdict.VIOLATED:
        assert (cert.witness.members, cert.witness_neighborhood_size) == (witness, nbhd)
        validate_certificate(g, cert)
    gt = g.swap_sides()
    quota_missed = any(g.k * g.degree(x) < g.n for x in range(g.k)) or any(
        g.n * gt.degree(y) < g.k for y in range(g.n)
    )
    if quota_missed:
        assert verdict is Verdict.VIOLATED


def test_degree_settled_certificate_solves_the_flow_on_first_read():
    # Right vertex 4 is isolated; everything else is complete.
    g = BipartiteGraph.from_edges(3, 5, [(x, y) for x in range(3) for y in range(4)])
    with mock.patch("nmpkit.nmpcheck.max_flow", side_effect=max_flow) as solver:
        cert = check_nmp(g)
        assert cert.verdict is Verdict.VIOLATED and cert.multiplicity is None
        assert solver.call_count == 0
        assert cert.witness_neighborhood_size == 4
        assert solver.call_count == 1
        assert cert.witness.members == (0, 1, 2)
        assert solver.call_count == 1
    _, witness, nbhd = eager_certificate(g)
    assert (cert.witness.members, cert.witness_neighborhood_size) == (witness, nbhd)


def test_degree_settled_certificate_is_a_plain_certificate():
    # A degree-settled Violated certificate (witness pending) and a HasNMP one
    # (multiplicity pending) against certificates built with every field.
    k24 = complete_graph(2, 4)
    cases = [
        (
            BipartiteGraph.from_edges(2, 3, [(0, 0), (0, 1), (0, 2), (1, 0)]),
            NMPCertificate(Verdict.VIOLATED, 3, 2, None, left_set([1]), 1),
            {"witness_neighborhood_size": 2},
            "neighborhood size",
        ),
        (
            k24,
            NMPCertificate(Verdict.HAS_NMP, 2, 1, reference_multiplicity(k24)),
            {"multiplicity": {}},
            "row sums",
        ),
    ]
    for g, plain, changes, error in cases:
        check_pending_certificate_is_plain(g, plain, changes, error)


def check_pending_certificate_is_plain(g, plain, changes, error):
    assert check_nmp(g) == plain and plain == check_nmp(g)
    if plain.verdict is Verdict.VIOLATED:
        assert hash(check_nmp(g)) == hash(plain)
    else:
        for cert in (check_nmp(g), plain):
            with pytest.raises(TypeError):
                hash(cert)
    assert repr(check_nmp(g)) == repr(plain)
    assert pickle.loads(pickle.dumps(check_nmp(g))) == plain
    assert pickle.loads(pickle.dumps(plain)) == check_nmp(g)
    assert copy.deepcopy(check_nmp(g)) == plain
    assert copy.deepcopy(plain) == check_nmp(g)
    assert dataclasses.asdict(check_nmp(g)) == dataclasses.asdict(plain)
    assert dataclasses.replace(check_nmp(g)) == plain == dataclasses.replace(plain)
    validate_certificate(g, dataclasses.replace(check_nmp(g)))
    moved = dataclasses.replace(check_nmp(g), **changes)
    with pytest.raises(ValueError, match=error):
        validate_certificate(g, moved)
    with pytest.raises(AttributeError, match="no attribute 'witness_size'"):
        check_nmp(g).witness_size
    with pytest.raises(dataclasses.FrozenInstanceError):
        check_nmp(g).witness = None
