import dataclasses
import hashlib
import math
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from nmpkit import (
    BipartiteGraph,
    DecompositionInvariantError,
    Side,
    TreeCopy,
    TreeFactor,
    Verdict,
    approx_nmp,
    approx_remainder,
    build_euclidean_tree,
    check_nmp,
    disjoint_copies,
    estimate_thomason_params,
    euclid_factor_decompose,
    euclid_schedule,
    extract_thrill,
    gen_gnp,
    induced_subgraph,
    left_set,
    right_set,
    verify_tree_factor,
)
import nmpkit
from nmpkit import decompose
from nmpkit.rng import SplitMix64, derive_seed

from conftest import bipartite_graphs, complete_graph, remainder_and_factor


def max_thrill_size_oracle(g, u, v, q, side):
    """Exhaustive maximum q-thrill size (number of fans), tiny inputs only."""
    anchors = u.members if side is Side.LEFT else v.members
    pool = set(v.members if side is Side.LEFT else u.members)
    row = g.neighbors if side is Side.LEFT else g.swap_sides().neighbors

    def best(i, free):
        if i == len(anchors):
            return 0
        skip = best(i + 1, free)
        avail = [w for w in row(anchors[i]).tolist() if w in free]
        result = skip
        for combo in combinations(avail, q):
            result = max(result, 1 + best(i + 1, free - set(combo)))
        return result

    return best(0, frozenset(pool))


# ------------------------------------------------------------ extract_thrill


def test_extract_thrill_complete():
    g = complete_graph(3, 6)
    ext = extract_thrill(g, left_set(range(3)), right_set(range(6)), 2, Side.LEFT)
    assert len(ext.A) == 0 and len(ext.B) == 0
    assert [(f.anchor, f.leaves) for f in ext.thrill.fans] == [
        (0, (0, 1)),
        (1, (2, 3)),
        (2, (4, 5)),
    ]
    ext.thrill.validate()


def test_extract_thrill_degree_too_small():
    g = BipartiteGraph.from_edges(1, 2, [(0, 0)])
    ext = extract_thrill(g, left_set([0]), right_set([0, 1]), 2, Side.LEFT)
    assert ext.A.members == (0,)
    assert ext.B.members == (0, 1)
    assert ext.thrill.fans == ()


def test_extract_thrill_ratio_precondition():
    g = complete_graph(3, 6)
    with pytest.raises(ValueError, match="fan width q must be positive"):
        extract_thrill(g, left_set(range(3)), right_set(range(6)), 0, Side.LEFT)
    with pytest.raises(ValueError, match=r"\|V\| = q\*\|U\|"):
        extract_thrill(g, left_set(range(3)), right_set(range(5)), 2, Side.LEFT)
    with pytest.raises(ValueError, match=r"^Y-side thrill needs \|U\| = q\*\|V\|; got 5 != 2\*3$"):
        extract_thrill(g.swap_sides(), left_set(range(5)), right_set(range(3)), 2, Side.RIGHT)


@pytest.mark.parametrize("u, v, side, message", [
    (left_set([0, 5]), right_set(range(4)), Side.LEFT, r"vertex 5 out of range for left side \(2\)"),
    (left_set([0, 1]), right_set([0, 1, 2, 9]), Side.LEFT, r"vertex 9 out of range for right side \(4\)"),
    (left_set([0, 5]), right_set([0, 1]), Side.RIGHT, r"vertex 5 out of range for left side \(2\)"),
    (right_set([0, 1]), right_set(range(4)), Side.LEFT, "expected a left-side vertex set"),
])
def test_extract_thrill_checks_its_vertex_sets(u, v, side, message):
    with pytest.raises(ValueError, match=message):
        extract_thrill(complete_graph(2, 4), u, v, 2 if side is Side.LEFT else 1, side)


def _with_fan(thrill, i, **changes):
    fans = thrill.fans
    return dataclasses.replace(
        thrill, fans=fans[:i] + (dataclasses.replace(fans[i], **changes),) + fans[i + 1:]
    )


THRILL_TAMPERINGS = {
    "fan anchored on the wrong side": lambda t: dataclasses.replace(t, side=Side.RIGHT),
    "fan at 0 has 2 leaves, expected 3": lambda t: dataclasses.replace(t, q=3),
    "anchor 0 reused": lambda t: _with_fan(t, 1, anchor=0),
    "leaf 0 reused": lambda t: _with_fan(t, 2, leaves=(4, 0)),
}


@pytest.mark.parametrize("message", THRILL_TAMPERINGS)
def test_thrill_validate_rejects_each_defect(message):
    g = complete_graph(3, 6)
    thrill = extract_thrill(g, left_set(range(3)), right_set(range(6)), 2, Side.LEFT).thrill
    thrill.validate()
    with pytest.raises(ValueError, match=f"^{message}$"):
        THRILL_TAMPERINGS[message](thrill).validate()


def test_extract_thrill_y_side():
    g = complete_graph(6, 3)
    ext = extract_thrill(g, left_set(range(6)), right_set(range(3)), 2, Side.RIGHT)
    assert len(ext.A) == 0 and len(ext.B) == 0
    assert all(f.anchor_side is Side.RIGHT for f in ext.thrill.fans)


@given(bipartite_graphs(max_k=5, max_n=8), st.integers(1, 3))
@settings(max_examples=60)
def test_extract_thrill_invariants(g, q):
    u_size = min(g.k, g.n // q)
    if u_size == 0:
        return
    u = left_set(range(u_size))
    v = right_set(range(q * u_size))
    ext = extract_thrill(g, u, v, q, Side.LEFT)
    # Count identity |V \ B| = q * |U \ A| and the maximality certificate.
    assert len(v) - len(ext.B) == q * (len(u) - len(ext.A))
    bset = set(ext.B.members)
    for a in ext.A:
        assert sum(1 for y in g.neighbors(a).tolist() if y in bset) < q
    # Greedy is maximal, never larger than the true maximum.
    if u_size <= 3 and q * u_size <= 6:
        maximum = max_thrill_size_oracle(g, u, v, q, Side.LEFT)
        assert len(ext.thrill.fans) <= maximum


def extract_thrill_reference(g, anchors, pool, q, side):
    """Anchor-by-anchor loop over each row: (fans, failed anchors, leftovers)."""
    row = g.neighbors if side is Side.LEFT else g.swap_sides().neighbors
    free = set(pool)
    fans, failed = [], []
    for a in anchors:
        picked = [w for w in row(a).tolist() if w in free][:q]
        if len(picked) == q:
            free.difference_update(picked)
            fans.append((a, tuple(picked)))
        else:
            failed.append(a)
    return fans, failed, [w for w in pool if w in free]


@given(
    bipartite_graphs(max_k=8, max_n=10),
    st.integers(1, 3),
    st.sampled_from(Side),
    st.randoms(use_true_random=False),
)
@settings(max_examples=80)
def test_extract_thrill_matches_the_loop_reference(g, q, side, rnd):
    k, n = (g.k, g.n) if side is Side.LEFT else (g.n, g.k)
    count = min(k, n // q)
    if count == 0:
        return
    anchors = sorted(rnd.sample(range(k), count))
    pool = sorted(rnd.sample(range(n), q * count))
    if side is Side.LEFT:
        u, v = left_set(anchors), right_set(pool)
    else:
        u, v = left_set(pool), right_set(anchors)
    ext = extract_thrill(g, u, v, q, side)
    fans, failed, leftover = extract_thrill_reference(g, anchors, pool, q, side)
    assert [(f.anchor, f.leaves) for f in ext.thrill.fans] == fans
    a_side, b_side = (ext.A, ext.B) if side is Side.LEFT else (ext.B, ext.A)
    assert a_side.members == tuple(failed)
    assert b_side.members == tuple(leftover)


@given(bipartite_graphs(max_k=10, max_n=8), st.integers(1, 3), st.randoms(use_true_random=False))
@settings(max_examples=80)
def test_y_side_thrill_is_the_x_side_thrill_of_the_transpose(g, q, rnd):
    count = min(g.n, g.k // q)
    if count == 0:
        return
    anchors = sorted(rnd.sample(range(g.n), count))
    pool = sorted(rnd.sample(range(g.k), q * count))
    y = extract_thrill(g, left_set(pool), right_set(anchors), q, Side.RIGHT)
    x = extract_thrill(g.swap_sides(), left_set(anchors), right_set(pool), q, Side.LEFT)
    assert [(f.anchor, f.leaves) for f in y.thrill.fans] == [(f.anchor, f.leaves) for f in x.thrill.fans]
    assert (y.A.members, y.B.members) == (x.B.members, x.A.members)


# ------------------------------------------------- euclid_factor_decompose


def _spy_on_greedy_thrill(monkeypatch):
    """The (graph, anchors, pool) of each thrill the decomposition extracts,
    with the anchors and the pool as vertex sets."""
    calls = []
    real = decompose._greedy_thrill

    def spy(h, anchors, pool, q):
        calls.append((h, left_set(anchors.tolist()), right_set(pool.tolist())))
        return real(h, anchors, pool, q)

    monkeypatch.setattr(decompose, "_greedy_thrill", spy)
    return calls


def _block_edges(g, rows, cols):
    """g's edges (x, y) with x in rows and y < cols."""
    return {(x, y) for x, y in g.edges() if x in rows and y < cols}


def test_decomposition_transposes_the_graph_once(monkeypatch):
    # Four Y-side stages, one with leftovers of unequal sizes (2 and 1). The
    # whole graph is never transposed: each Y-side stage transposes only its
    # pool's rows, cut to the rights that exist at that stage, so the
    # transposed edges add up to at most one transpose of g.
    g = gen_gnp(34, 55, 0.3, 1)
    calls = _spy_on_greedy_thrill(monkeypatch)
    real = BipartiteGraph.swap_sides
    with mock.patch.object(BipartiteGraph, "swap_sides", autospec=True, side_effect=real) as swap:
        tr = euclid_factor_decompose(g, 0.1)
    assert [(s.a_size, s.b_size) for s in tr.stages if s.anchor_side == "Y"] == [
        (2, 1), (0, 0), (0, 0), (0, 0)
    ]
    assert swap.call_count == 0
    y_stages = [(s, call) for s, call in zip(tr.stages, calls) if s.anchor_side == "Y"]
    assert len(y_stages) == 4
    for s, (h, anchors, pool) in y_stages:
        assert h.k == tr.schedule.r[s.index] * tr.t
        assert set(h.edges()) == {(y, x) for x, y in _block_edges(g, pool.members, h.k)}
    assert sum(h.edge_count for _, (h, _, _) in y_stages) <= g.edge_count
    assert all(h is g for s, (h, _, _) in zip(tr.stages, calls) if s.anchor_side == "X")
    digest = hashlib.sha256(repr((tr.stages, tr.D_X, tr.D_Y, tr.factor)).encode()).hexdigest()
    assert digest == "59ef8595711265e4e0d568df277150b8ff20a433a474537f10de34da9fa9fa8d"


def test_decompose_single_stage_when_k_divides_n():
    g = complete_graph(4, 12)
    tr = euclid_factor_decompose(g, 0.1)
    assert (tr.ell, tr.L, tr.t) == (1, 3, 4)
    assert len(tr.stages) == 1
    assert len(tr.D_X) == 0 and len(tr.D_Y) == 0
    assert len(tr.factor.copies) == 4
    rep = verify_tree_factor(g, tr.factor, 1, 3, require_spanning=True)
    assert rep.ok, rep.problems


def test_decompose_matching_case():
    g = complete_graph(5, 5)
    tr = euclid_factor_decompose(g, 0.1)
    assert (tr.ell, tr.L) == (1, 1)
    rep = verify_tree_factor(g, tr.factor, 1, 1, require_spanning=True)
    assert rep.ok, rep.problems


def test_decompose_disjoint_tree_host_keeps_identities():
    # A host this sparse defeats the greedy; only the structural identities
    # are guaranteed here.
    host = disjoint_copies(build_euclidean_tree(3, 5).graph, 40)
    tr = euclid_factor_decompose(host, 0.05)
    assert (host.k - len(tr.D_X)) * tr.L == (host.n - len(tr.D_Y)) * tr.ell
    sub, mapped = remainder_and_factor(host, tr.D_X, tr.D_Y, tr.factor)
    if sub is not None:
        rep = verify_tree_factor(sub, mapped, tr.ell, tr.L, require_spanning=True)
        assert rep.ok, rep.problems


def check_trace_recurrences(tr):
    dx = dy = 0
    for s in tr.stages:
        if s.anchor_side == "X":
            assert s.d_x == dx + s.corrupt_x
            assert s.d_y == dy + s.s_size + s.b_size + s.corrupt_y
        else:
            assert s.d_y == dy + s.corrupt_y
            assert s.d_x == dx + s.s_size + s.a_size + s.corrupt_x
        dx, dy = s.d_x, s.d_y
    assert dx == len(tr.D_X) and dy == len(tr.D_Y)


def test_decompose_gnp_end_to_end():
    g = gen_gnp(300, 500, 0.5, 777)
    tr = euclid_factor_decompose(g, 0.05)
    assert (tr.ell, tr.L, tr.t) == (3, 5, 100)
    check_trace_recurrences(tr)
    assert (300 - len(tr.D_X)) * 5 == (500 - len(tr.D_Y)) * 3
    sub, mapped = remainder_and_factor(g, tr.D_X, tr.D_Y, tr.factor)
    rep = verify_tree_factor(sub, mapped, 3, 5, require_spanning=True)
    assert rep.ok, rep.problems
    assert check_nmp(sub).verdict is Verdict.HAS_NMP
    # Regression: deletions for this seed.
    assert len(tr.D_X) == 9 and len(tr.D_Y) == 15


def test_decompose_conditional_size_bound():
    g = gen_gnp(300, 500, 0.5, 777)
    tr = euclid_factor_decompose(g, 0.05)
    if all(s.within_d0 for s in tr.stages):
        m = tr.schedule.m
        assert len(tr.D_X) <= tr.ell * m * tr.d0
        assert len(tr.D_Y) <= tr.L * m * tr.d0


def test_decompose_trace_vertex_partition():
    g = gen_gnp(120, 200, 0.5, 31)
    tr = euclid_factor_decompose(g, 0.05)
    covered_x = {v for c in tr.factor.copies for v in c.left_by_role}
    covered_y = {v for c in tr.factor.copies for v in c.right_by_role}
    assert covered_x.isdisjoint(tr.D_X.members)
    assert covered_y.isdisjoint(tr.D_Y.members)
    assert len(covered_x) + len(tr.D_X) == 120
    assert len(covered_y) + len(tr.D_Y) == 200


@given(st.integers(0, 2**32))
@settings(max_examples=15)
def test_decompose_random_seeds_invariants(seed):
    rng = SplitMix64(seed)
    k = 20 + rng.randbelow(60)
    n = k + rng.randbelow(80)
    g = gen_gnp(k, n, 0.6, derive_seed(seed, 1))
    tr = euclid_factor_decompose(g, 0.1)
    check_trace_recurrences(tr)
    assert (k - len(tr.D_X)) * tr.L == (n - len(tr.D_Y)) * tr.ell
    sub, mapped = remainder_and_factor(g, tr.D_X, tr.D_Y, tr.factor)
    if sub is not None:
        rep = verify_tree_factor(sub, mapped, tr.ell, tr.L, require_spanning=True)
        assert rep.ok, rep.problems
        assert check_nmp(sub).verdict is Verdict.HAS_NMP


def test_decompose_total_corruption_degrades_gracefully():
    # One left vertex sees everything, the rest see nothing: every stage
    # fails, everything is deleted, and the bookkeeping still balances
    # (padding can never outgrow the fresh pool, so no structured failure).
    mat = [[False] * 24 for _ in range(16)]
    for j in range(24):
        mat[0][j] = True
    import numpy as np

    g = BipartiteGraph.from_matrix(np.array(mat))
    tr = euclid_factor_decompose(g, 0.1)
    check_trace_recurrences(tr)
    assert len(tr.factor.copies) == 0
    assert len(tr.D_X) == 16 and len(tr.D_Y) == 24


def test_a_y_side_stage_with_an_empty_pool(monkeypatch):
    # Right vertex 0 sees every left, no other right sees any: stage 1 (X
    # side) fails every anchor and leaves its whole pool over, so stage 2
    # pads the whole fresh left range and its Y-side thrill has no anchors
    # and an empty pool.
    g = BipartiteGraph.from_edges(24, 16, [(x, 0) for x in range(24)])
    calls = _spy_on_greedy_thrill(monkeypatch)
    tr = euclid_factor_decompose(g, 0.1)
    assert [s.anchor_side for s in tr.stages] == ["X", "Y"]
    stage2 = tr.stages[1]
    assert stage2.s_size == 16 and stage2.corrupt_copies == 0
    h, anchors, pool = calls[1]
    assert (len(anchors), len(pool), h.edge_count) == (0, 0, 0)
    assert len(tr.factor.copies) == 0
    assert len(tr.D_X) == 24 and len(tr.D_Y) == 16
    check_trace_recurrences(tr)


def decompose_reference(g, eps):
    """euclid_factor_decompose as a loop over per-copy role lists, with one
    extract_thrill per stage on all of g: its form before the copies were
    role matrices grown by the greedy's arrays."""
    t = math.gcd(g.k, g.n)
    ell, L = g.k // t, g.n // t
    sched = euclid_schedule(ell, L)
    r, d0 = sched.r, 2.0 * eps * g.n
    deleted, records = ([], []), []
    copies = [([v], []) if sched.grows_right(1) else ([], [v]) for v in range(t)]
    for i in range(1, sched.m + 1):
        grow_right = sched.grows_right(i)
        a, b = (0, 1) if grow_right else (1, 0)
        qi = sched.q[i - 1]
        fresh_lo, fresh_hi = r[i - 1] * t, r[i + 1] * t
        s_need = qi * len(deleted[a])
        pool = range(fresh_lo + s_need, fresh_hi)
        anchors = sorted(h for c in copies for h in c[a])
        if grow_right:
            ext = extract_thrill(g, left_set(anchors), right_set(pool), qi, Side.LEFT)
            failed, leftover = set(ext.A), ext.B
            a_size, b_size = len(ext.A), len(ext.B)
            within = a_size * qi <= d0 and b_size <= d0
        else:
            ext = extract_thrill(g, left_set(pool), right_set(anchors), qi, Side.RIGHT)
            failed, leftover = set(ext.B), ext.A
            a_size, b_size = len(ext.A), len(ext.B)
            within = a_size <= qi * d0 and b_size <= d0
        fan_of = {f.anchor: f.leaves for f in ext.thrill.fans}
        survivors, corrupt = [], ([], [])
        for c in copies:
            if failed.isdisjoint(c[a]):
                fans = [iter(fan_of[h]) for h in c[a]]
                c[b].extend([next(fans[j]) for j in sched.leaf_anchors(i)])
                survivors.append(c)
            else:
                corrupt[a].extend(c[a])
                corrupt[b].extend(c[b])
                corrupt[b].extend(y for h in c[a] if h not in failed for y in fan_of[h])
        corrupt_copies, copies = len(copies) - len(survivors), survivors
        deleted[0].extend(corrupt[0])
        deleted[1].extend(corrupt[1])
        deleted[b].extend(range(fresh_lo, fresh_lo + s_need))
        deleted[b].extend(leftover.members)
        records.append(decompose.StageRecord(
            i, "X" if grow_right else "Y", qi, s_need, a_size, b_size, corrupt_copies,
            len(corrupt[0]), len(corrupt[1]), len(deleted[0]), len(deleted[1]), within,
        ))
    canon = list(build_euclidean_tree(ell, L).graph.edges())
    factor = TreeFactor(ell, L, tuple(
        TreeCopy(tuple(left), tuple(right), tuple((left[x], right[y]) for x, y in canon))
        for left, right in copies
    ))
    return decompose.DecompositionTrace(
        g.k, g.n, t, ell, L, eps, d0, sched, tuple(records),
        left_set(deleted[0]), right_set(deleted[1]), factor,
    )


@given(
    st.integers(1, 40),
    st.integers(1, 40),
    st.sampled_from([0.03, 0.2, 0.5, 0.9]),
    st.integers(0, 2**32),
)
@settings(max_examples=80)
def test_role_matrices_match_the_per_copy_loop(k, n, p, seed):
    # p = 0.03 fails anchors, corrupts copies and empties pools.
    g = gen_gnp(k, n, p, seed)
    assert euclid_factor_decompose(g, 0.1) == decompose_reference(g, 0.1)


@given(
    st.integers(1, 40),
    st.integers(1, 40),
    st.sampled_from([0.05, 0.2, 0.5, 0.9]),
    st.integers(0, 2**32),
)
@settings(max_examples=80)
def test_padding_fits_the_fresh_range(k, n, p, seed):
    # Stage i pads with q_i per deleted stationary vertex, and at most
    # t*r_i of those exist, so the padding never outgrows the fresh range.
    tr = euclid_factor_decompose(gen_gnp(k, n, p, seed), 0.1)
    r = tr.schedule.r
    for s in tr.stages:
        assert s.s_size <= (r[s.index + 1] - r[s.index - 1]) * tr.t


def test_extract_thrill_rejects_a_thrill_that_reuses_a_leaf():
    class RepeatedRow:
        """A corrupt adjacency whose only row lists right vertex 0 twice."""

        k, n = 1, 2
        indptr = np.array([0, 3])
        indices = np.array([0, 0, 1])

    with pytest.raises(ValueError, match="leaf 0 reused"):
        extract_thrill(RepeatedRow(), left_set([0]), right_set([0, 1]), 2, Side.LEFT)


def _decompose_with_a_leaf_both_used_and_deleted(monkeypatch):
    """Run the decomposition with an extraction that also lists its first fan
    leaf as a leftover, so that leaf is in a copy and deleted at once."""
    real = decompose._greedy_thrill

    def leaky(g, anchors, pool, q):
        fanned, leaves, failed, leftover = real(g, anchors, pool, q)
        return fanned, leaves, failed, np.append(leftover, leaves[0, 0])

    monkeypatch.setattr(decompose, "_greedy_thrill", leaky)
    euclid_factor_decompose(complete_graph(6, 10), 0.1)


def _decompose_with_a_leaf_in_two_fans(monkeypatch):
    """Run the decomposition with an extraction whose second fan also takes
    the first fan's first leaf."""
    real = decompose._greedy_thrill

    def reusing(g, anchors, pool, q):
        fanned, leaves, failed, leftover = real(g, anchors, pool, q)
        leaves = leaves.copy()
        leaves[1, 0] = leaves[0, 0]
        return fanned, leaves, failed, leftover

    monkeypatch.setattr(decompose, "_greedy_thrill", reusing)
    euclid_factor_decompose(complete_graph(6, 10), 0.1)


def test_broken_conservation_raises(monkeypatch):
    with pytest.raises(DecompositionInvariantError, match="conservation broken"):
        _decompose_with_a_leaf_both_used_and_deleted(monkeypatch)


def test_a_reused_thrill_leaf_raises(monkeypatch):
    # complete_graph(6, 10) has t = 2 and (ell, L) = (3, 5); its stage 1 is
    # X-side with q = 2, so lefts 0 and 1 take rights 0, 1 and 2, 3.
    with pytest.raises(DecompositionInvariantError, match="^stage 1: leaf 0 reused$"):
        _decompose_with_a_leaf_in_two_fans(monkeypatch)


def _run_under_python_O(helper: str) -> str:
    """Standard output of a `python -O` run of the named helper of this file,
    which prints the DecompositionInvariantError it raises."""
    script = (
        "import sys, pytest\n"
        f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
        "import test_decompose as t\n"
        "from nmpkit import DecompositionInvariantError\n"
        "assert False, 'asserts must be off'\n"
        "with pytest.MonkeyPatch.context() as mp:\n"
        "    try:\n"
        f"        t.{helper}(mp)\n"
        "    except DecompositionInvariantError as exc:\n"
        "        print(exc)\n"
    )
    src = str(Path(nmpkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_broken_conservation_raises_under_python_O():
    assert "conservation broken" in _run_under_python_O("_decompose_with_a_leaf_both_used_and_deleted")


def test_a_reused_thrill_leaf_raises_under_python_O():
    assert _run_under_python_O("_decompose_with_a_leaf_in_two_fans") == "stage 1: leaf 0 reused\n"


# ------------------------------------------------------------------ approx


def test_approx_complete_multiple():
    g = complete_graph(3, 21)
    res = approx_nmp(g, 0.04)
    assert res.case == "a"
    assert len(res.x_hat) == 0 and len(res.y_hat) == 0
    assert res.remainder_nmp_verified
    assert approx_remainder(g, res) == g


def test_approx_case_a_constants():
    g = gen_gnp(100, 1700, 0.4, 42)
    params = estimate_thomason_params(g)
    eps = float(params.eps)
    res = approx_nmp(g, eps, mode="auto")
    assert res.case == "a"
    assert res.fraction_x <= 4 * eps
    assert res.fraction_y <= 3 * math.sqrt(eps)
    assert res.remainder_nmp_verified
    sub, mapped = remainder_and_factor(g, res.x_hat, res.y_hat, res.factor)
    assert sub == approx_remainder(g, res)
    rep = verify_tree_factor(sub, mapped, res.factor.ell, res.factor.L, require_spanning=True)
    assert rep.ok, rep.problems


def _digest(vs):
    return hashlib.sha256(",".join(map(str, vs.members)).encode()).hexdigest()


@pytest.mark.parametrize(
    "shape, seed, eps, expected",
    [
        # Criterion 6's input; eps is its estimated Thomason eps.
        (
            (100, 1700, 0.4), 42, 0.3779296875,
            ("a", 1, 17, "29db0c6782dbd5000559ef4d9e953e300e2b479eed26d887ef3f92b921c06a67",
             "cc1748949b2b2c68f4141a12892e6efaeafb675a3b92db8986773274033ecb0b", 99, (1, 17),
             "58a52f78b4eca5c60b4e83f67cbe2dc3597a3afff50fb180d655012ee60d428b"),
        ),
        (
            (200, 220, 0.5), 55, 0.01,
            ("b", 123, 94, "3d427e8fa1a0bc0a1710051ec52c1c67062398298ea1d99b52c6098570d5bf0f",
             "e1edc020280d54dce07f603aa2f8b6a4a0b69ef14ad68f87e38e09180a44d143", 7, (11, 18),
             "39aa7093f7268b8813d9b064e879ac844a0dc243fc48bea31d6492a3be1a0882"),
        ),
    ],
)
def test_approx_outputs_are_pinned(shape, seed, eps, expected):
    res = approx_nmp(gen_gnp(*shape, seed), eps)
    got = (
        res.case,
        len(res.x_hat),
        len(res.y_hat),
        _digest(res.x_hat),
        _digest(res.y_hat),
        len(res.factor.copies),
        (res.factor.ell, res.factor.L),
        # The stages, deletions and factor, pinned before the decomposition
        # ran in place on g.
        hashlib.sha256(repr((res.trace.stages, res.trace.D_X, res.trace.D_Y,
                             res.factor)).encode()).hexdigest(),
    )
    assert got == expected


@given(
    st.integers(1, 60),
    st.integers(1, 90),
    st.sampled_from([0.03, 0.15, 0.5, 0.9]),
    st.sampled_from([0.01, 0.05, 0.2, 0.5]),
    st.sampled_from(["a", "b"]),
    st.integers(0, 2**32),
)
@settings(max_examples=100)
def test_in_place_stages_match_the_prefix_graph(k, n, p, eps, mode, seed):
    # approx_nmp decomposes the K x N prefix on g itself; the reference is
    # the staged factorization of the prefix graph, with every Y-side stage
    # reading the whole transpose of that graph. p = 0.03 corrupts copies
    # and empties whole pools.
    g = gen_gnp(k, n, p, seed)
    try:
        res = approx_nmp(g, eps, mode)
    except ValueError:
        assume(False)  # no K x N prefix for these sizes and eps
    tr = res.trace
    sub, _, _ = induced_subgraph(g, left_set(range(tr.k)), right_set(range(tr.n)))
    assert tr == euclid_factor_decompose(sub, eps)
    whole = sub.swap_sides()
    with mock.patch.object(decompose, "_transposed_rows", lambda h, rows, cols: whole):
        assert tr == euclid_factor_decompose(sub, eps)


def test_approx_builds_no_prefix_graph_and_no_transpose_of_g(monkeypatch):
    g = gen_gnp(200, 220, 0.5, 55)
    subgraphs = []

    def spy(*args):
        subgraphs.append(args)
        return induced_subgraph(*args)

    monkeypatch.setattr(decompose, "induced_subgraph", spy)
    real = BipartiteGraph.swap_sides
    with mock.patch.object(BipartiteGraph, "swap_sides", autospec=True, side_effect=real) as swap:
        res = approx_nmp(g, 0.01)
    assert res.remainder_nmp_verified
    assert sum(s.anchor_side == "Y" for s in res.trace.stages) == 2
    assert subgraphs == []
    assert swap.call_count == 0


@st.composite
def wide_graphs(draw):
    k = draw(st.integers(1, 8))
    q = draw(st.integers(1, 5))
    n = q * k + draw(st.integers(0, k - 1))
    edges = draw(st.sets(st.tuples(st.integers(0, k - 1), st.integers(0, n - 1))))
    return BipartiteGraph.from_edges(k, n, sorted(edges)), q


@given(wide_graphs())
@settings(max_examples=80)
def test_approx_case_a_is_one_thrill(gq):
    # Case (a) is a single q-thrill from all of X into Y[:q*k]: the failed
    # anchors are deleted, and so are the thrill's leftover and Y's suffix.
    g, q = gq
    k, n = g.k, g.n
    ext = extract_thrill(g, left_set(range(k)), right_set(range(q * k)), q, Side.LEFT)
    res = approx_nmp(g, 0.5, mode="a")
    assert res.case == "a" and res.case_b is None
    assert res.x_hat == ext.A
    assert res.y_hat == right_set(ext.B.members + tuple(range(q * k, n)))
    assert (res.factor.ell, res.factor.L) == (1, q)
    assert [(c.left_by_role, c.right_by_role) for c in res.factor.copies] == [
        ((f.anchor,), f.leaves) for f in ext.thrill.fans
    ]
    assert len(res.trace.stages) == 1
    if len(ext.A) == k:
        # Every anchor failed, so both sides are deleted whole: the sets and
        # the trace are kept, and there is no remainder to verify.
        assert (res.fraction_x, res.fraction_y) == (1, 1)
        assert not res.remainder_nmp_verified
        with pytest.raises(ValueError, match="emptied a side"):
            approx_remainder(g, res)


@pytest.mark.parametrize("mode", ["force_a", "force_b", "A", ""])
def test_approx_rejects_unknown_mode(mode):
    with pytest.raises(ValueError, match="unknown mode"):
        approx_nmp(complete_graph(3, 6), 0.1, mode=mode)


def test_approx_case_b_needs_a_multiple_of_the_unit():
    # unit = floor(0.01^0.75 * 400) = 12, and no multiple of 12 lies in
    # [5(1 - 2*eta), 5(1 - eta)] with eta = 0.01^0.25.
    with pytest.raises(ValueError, match=r"no multiple of 12 in \[k\(1-2\*eta\), k\(1-eta\)\]"):
        approx_nmp(gen_gnp(5, 400, 0.5, 2), 0.01, mode="b")


def test_approx_case_b_small():
    g = gen_gnp(200, 220, 0.5, 55)
    res = approx_nmp(g, 0.01, mode="auto")
    assert res.case == "b"
    assert res.case_b.K % math.floor(res.case_b.alpha * 220) == 0
    assert res.remainder_nmp_verified
    check_trace_recurrences(res.trace)


def test_approx_case_b_interval_error():
    g = complete_graph(10, 12)
    with pytest.raises(ValueError, match=r"k\(1-2\*eta\), k\(1-eta\)"):
        approx_nmp(g, 0.9, mode="b")


def test_approx_rejects_bad_eps():
    g = complete_graph(3, 6)
    with pytest.raises(ValueError):
        approx_nmp(g, 0.0)
    with pytest.raises(ValueError):
        approx_nmp(g, 1.0)


@pytest.mark.parametrize("eps", [float("nan"), 0.0, -0.1, 1.0])
def test_decompose_rejects_bad_eps_as_approx_does(eps):
    g = complete_graph(3, 6)
    with pytest.raises(ValueError, match=r"eps must lie in \(0, 1\)") as approx:
        approx_nmp(g, eps)
    with pytest.raises(ValueError, match=r"eps must lie in \(0, 1\)") as staged:
        euclid_factor_decompose(g, eps)
    assert str(staged.value) == str(approx.value)


def test_approx_case_a_needs_wide_graph():
    g = complete_graph(6, 3)
    with pytest.raises(ValueError, match="n >= k"):
        approx_nmp(g, 0.5, mode="a")


# ------------------------------------------------- the remainder's factor proof


def _remainder_flow_verdict(g, res):
    return check_nmp(approx_remainder(g, res)).verdict is Verdict.HAS_NMP


@given(
    st.integers(1, 24),
    st.integers(1, 48),
    st.sampled_from([0.1, 0.3, 0.6, 0.9]),
    st.sampled_from([0.05, 0.2, 0.5]),
    st.integers(0, 2**32),
)
@settings(max_examples=80)
def test_factor_proof_agrees_with_the_remainder_flow(k, n, p, eps, seed):
    # The shapes reach case (a), case (b), and deletions that empty a side.
    g = gen_gnp(k, n, p, seed)
    try:
        res = approx_nmp(g, eps)
    except ValueError:
        assume(False)  # no K x N prefix for these sizes and eps
    if len(res.x_hat) == k or len(res.y_hat) == n:
        assert not res.remainder_nmp_verified
    else:
        assert res.remainder_nmp_verified == _remainder_flow_verdict(g, res)
        assert decompose._factor_proves_remainder(g, res)


def _spy_on_check_nmp(monkeypatch):
    """The graphs approx_nmp hands to check_nmp, in call order."""
    calls = []

    def spy(h):
        calls.append(h)
        return check_nmp(h)

    monkeypatch.setattr(decompose, "check_nmp", spy)
    return calls


def test_an_untampered_factor_needs_no_flow_on_the_remainder(monkeypatch):
    calls = _spy_on_check_nmp(monkeypatch)
    res = approx_nmp(gen_gnp(200, 220, 0.5, 55), 0.01)
    assert res.remainder_nmp_verified
    assert calls == [build_euclidean_tree(res.factor.ell, res.factor.L).graph]


@pytest.mark.parametrize(
    "defect",
    ["copy edge not in g", "uncovered kept vertex", "vertex in two copies", "short copy",
     "copy on a deleted vertex", "tree without NMP"],
)
def test_a_defective_factor_falls_back_to_the_flow(monkeypatch, defect):
    g = gen_gnp(200, 220, 0.5, 55)
    trace = approx_nmp(g, 0.01).trace
    factor = trace.factor
    c0, c1, *rest = factor.copies
    if defect == "copy edge not in g":
        # The factor is g's, but the graph loses every edge of one kept
        # vertex: the flow then finds the remainder Violated.
        x0 = c0.left_by_role[0]
        g = BipartiteGraph.from_edges(g.k, g.n, [(x, y) for x, y in g.edges() if x != x0])
    elif defect == "uncovered kept vertex":
        factor = dataclasses.replace(factor, copies=(c0, c1, *rest[:-1]))
    elif defect == "vertex in two copies":
        c1 = dataclasses.replace(c1, left_by_role=c0.left_by_role[:1] + c1.left_by_role[1:])
        factor = dataclasses.replace(factor, copies=(c0, c1, *rest))
    elif defect == "short copy":
        c0 = dataclasses.replace(c0, left_by_role=c0.left_by_role[:-1])
        factor = dataclasses.replace(factor, copies=(c0, c1, *rest))
    elif defect == "copy on a deleted vertex":
        # A deleted left vertex with every tree edge of role x_0 takes that
        # role in copy 0: the sizes still match, and the copies are a valid
        # factor in g, so only the cover check tells.
        tree = build_euclidean_tree(factor.ell, factor.L).graph
        ys = [c0.right_by_role[ry] for ry in tree.neighbors(0).tolist()]
        d = next(x for x in trace.D_X if all(g.has_edge(x, y) for y in ys))
        left = (d, *c0.left_by_role[1:])
        edges = tuple((left[rx], c0.right_by_role[ry]) for rx, ry in tree.edges())
        c0 = dataclasses.replace(c0, left_by_role=left, edges=edges)
        factor = dataclasses.replace(factor, copies=(c0, c1, *rest))
    else:
        # Less one edge, the tree falls into two parts whose side ratios
        # are not ell:L, so one part violates NMP.
        real = build_euclidean_tree(factor.ell, factor.L)
        broken = BipartiteGraph.from_edges(factor.ell, factor.L, list(real.graph.edges())[1:])
        monkeypatch.setattr(decompose, "build_euclidean_tree",
                            lambda ell, L: dataclasses.replace(real, graph=broken))
    tampered = dataclasses.replace(trace, factor=factor)
    monkeypatch.setattr(decompose, "_decompose", lambda g, k, n, eps: tampered)
    calls = _spy_on_check_nmp(monkeypatch)
    res = approx_nmp(g, 0.01)
    assert res.factor is factor
    assert not decompose._factor_proves_remainder(g, res)
    assert approx_remainder(g, res) in calls
    assert res.remainder_nmp_verified == _remainder_flow_verdict(g, res)
    assert res.remainder_nmp_verified is (defect != "copy edge not in g")
