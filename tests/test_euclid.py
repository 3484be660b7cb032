import dataclasses
import math

import pytest
from hypothesis import assume, example, given
import hypothesis.strategies as st

from nmpkit import (
    BipartiteGraph,
    TreeCopy,
    TreeFactor,
    Verdict,
    build_euclidean_tree,
    check_nmp,
    disjoint_copies,
    euclid_schedule,
    is_connected,
    run_tree_process,
    trees_isomorphic,
    verify_tree_factor,
)
from nmpkit.euclid import FactorReport
from nmpkit.graph import _is_int

from conftest import complete_graph


def test_schedule_5_8():
    s = euclid_schedule(5, 8)
    assert s.m == 4
    assert s.r == (0, 1, 2, 3, 5, 8)
    assert s.q == (2, 1, 1, 1)
    assert [s.grows_right(i) for i in range(1, 5)] == [False, True, False, True]
    assert [s.shape(i) for i in range(1, 5)] == [(2, 1), (2, 3), (5, 3), (5, 8)]


def test_schedule_one_step():
    for q in (1, 2, 7):
        s = euclid_schedule(1, q)
        assert s.m == 1
        assert s.q == (q,)
        assert s.r == (0, 1, q)


def test_schedule_3_7():
    # By hand: 7 = 2*3 + 1, 3 = 3*1.
    s = euclid_schedule(3, 7)
    assert s.m == 2
    assert s.r == (0, 1, 3, 7)
    assert s.q == (3, 2)


def test_schedule_rejects_a_side_below_1():
    for ell, big_l in [(0, 1), (1, 0), (-2, 3)]:
        with pytest.raises(ValueError, match="sides must be positive"):
            euclid_schedule(ell, big_l)


def test_schedule_rejects_non_coprime():
    with pytest.raises(ValueError, match="coprime"):
        euclid_schedule(4, 6)


@given(st.integers(1, 80), st.integers(1, 80))
def test_schedule_recurrence(ell, L):
    if math.gcd(ell, L) != 1:
        return
    s = euclid_schedule(ell, L)
    for i in range(1, s.m + 1):
        assert s.r[i + 1] == s.q[i - 1] * s.r[i] + s.r[i - 1]
    assert s.r[s.m] == min(ell, L)
    assert s.r[s.m + 1] == max(ell, L)
    if max(ell, L) >= 2:  # the bound does not cover the degenerate (1, 1)
        assert s.m <= s.complexity_bound


def test_build_star():
    t = build_euclidean_tree(1, 4)
    assert sorted(t.graph.edges()) == [(0, 0), (0, 1), (0, 2), (0, 3)]


def test_build_t23_exact_edges():
    t = build_euclidean_tree(2, 3)
    assert sorted(t.graph.edges()) == [(0, 0), (0, 1), (1, 0), (1, 2)]


def test_build_t37_layers():
    # Outermost matching x_i y_{i+4}, then x_i y_{i+1}, then the star at y0.
    t = build_euclidean_tree(3, 7)
    expected = {(i, i + 4) for i in range(3)} | {(i, i + 1) for i in range(3)} | {
        (i, 0) for i in range(3)
    }
    assert set(t.graph.edges()) == expected
    assert t.graph.edge_count == 9
    assert is_connected(t.graph)


def test_build_degenerate_1_1():
    t = build_euclidean_tree(1, 1)
    assert list(t.graph.edges()) == [(0, 0)]


def test_process_5_8_evolution():
    stages = run_tree_process(5, 8)
    assert [(s.ell, s.L) for s in stages] == [(2, 1), (2, 3), (5, 3), (5, 8)]
    final = stages[-1].graph
    built = build_euclidean_tree(5, 8).graph
    assert trees_isomorphic(final, built)


def test_process_single_stage_star():
    stages = run_tree_process(1, 6)
    assert len(stages) == 1
    assert sorted(stages[0].graph.edges()) == [(0, j) for j in range(6)]


@given(st.integers(1, 60), st.integers(1, 60))
@example(1, 1)
@example(60, 1)
@example(34, 55)
def test_process_final_matches_build(ell, L):
    # The decomposition places its fan leaves by the process's leaf rule and
    # builds its copies' edges from the canonical tree, so the two must agree
    # exactly, not just up to isomorphism.
    assume(math.gcd(ell, L) == 1)
    stages = run_tree_process(ell, L)
    assert (stages[-1].ell, stages[-1].L) == (ell, L)
    assert stages[-1].graph == build_euclidean_tree(ell, L).graph
    for s in stages:
        assert s.graph == build_euclidean_tree(s.ell, s.L).graph


def test_leaf_rule_interleaves_fans():
    # T_{2,7}: stage 2 hangs q_2 = 3 leaves off each of r_2 = 2 anchors, and
    # new leaf s hangs off anchor s mod 2.
    s = euclid_schedule(2, 7)
    assert (s.r, s.q) == ((0, 1, 2, 7), (2, 3))
    assert s.leaf_anchors(1) == [0, 0]
    assert s.leaf_anchors(2) == [0, 1, 0, 1, 0, 1]


@given(st.integers(1, 40), st.integers(1, 40))
def test_tree_invariants(ell, L):
    if math.gcd(ell, L) != 1:
        return
    t = build_euclidean_tree(ell, L)
    g = t.graph
    assert (g.k, g.n) == (ell, L)
    assert g.edge_count == ell + L - 1
    assert is_connected(g)


def test_trees_have_nmp_spot():
    for ell, L in [(1, 9), (2, 3), (3, 7), (5, 8), (13, 21), (11, 60), (60, 11)]:
        if math.gcd(ell, L) != 1:
            continue
        g = build_euclidean_tree(ell, L).graph
        assert check_nmp(g).verdict is Verdict.HAS_NMP


def test_disjoint_union_of_trees_has_nmp():
    for ell, L, copies in [(2, 3, 2), (3, 5, 4), (5, 8, 3)]:
        g = disjoint_copies(build_euclidean_tree(ell, L).graph, copies)
        assert check_nmp(g).verdict is Verdict.HAS_NMP


def test_trees_isomorphic_rejects_non_tree():
    square = BipartiteGraph.from_edges(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    with pytest.raises(ValueError, match="trees"):
        trees_isomorphic(square, square)


def test_trees_isomorphic_distinguishes():
    path = BipartiteGraph.from_edges(2, 2, [(0, 0), (1, 0), (1, 1)])
    mirrored = BipartiteGraph.from_edges(2, 2, [(0, 0), (0, 1), (1, 1)])
    # Both are 4-vertex paths with one end per side: isomorphic after relabel.
    assert trees_isomorphic(path, mirrored)
    t23 = build_euclidean_tree(2, 3).graph  # a 5-vertex path
    spider = BipartiteGraph.from_edges(2, 3, [(0, 0), (0, 1), (0, 2), (1, 0)])
    assert not trees_isomorphic(t23, spider)
    assert not trees_isomorphic(t23, build_euclidean_tree(3, 5).graph)
    # Diameter 4, so one center each: left 0 in the first, right 0 in the
    # second, which is the first with its sides swapped.
    left_centered = BipartiteGraph.from_edges(3, 3, [(0, 0), (0, 1), (0, 2), (1, 0), (2, 1)])
    right_centered = left_centered.swap_sides()
    assert not trees_isomorphic(left_centered, right_centered)


def test_trees_isomorphic_on_a_deep_path():
    # x0 - y0 - x1 - y1 - ... - y1499: 3000 vertices, deeper than the
    # interpreter's recursion limit.
    k = n = 1500
    edges = [(i, i) for i in range(k)] + [(i + 1, i) for i in range(k - 1)]
    path = BipartiteGraph.from_edges(k, n, edges)
    assert trees_isomorphic(path, path)
    bent = BipartiteGraph.from_edges(k, n, edges[:-1] + [(k - 1, 0)])
    assert not trees_isomorphic(path, bent)


def _factor_of_disjoint_copies(ell, L, copies):
    tree = build_euclidean_tree(ell, L).graph
    host = disjoint_copies(tree, copies)
    parts = tuple(
        TreeCopy(
            left_by_role=tuple(c * ell + i for i in range(ell)),
            right_by_role=tuple(c * L + j for j in range(L)),
            edges=tuple((c * ell + x, c * L + y) for x, y in tree.edges()),
        )
        for c in range(copies)
    )
    return host, TreeFactor(ell=ell, L=L, copies=parts)


def test_verify_tree_factor_accepts_disjoint_copies():
    host, factor = _factor_of_disjoint_copies(2, 3, 2)
    rep = verify_tree_factor(host, factor, 2, 3, require_spanning=True)
    assert rep.ok, rep.problems


def test_verify_tree_factor_flags_shared_vertex():
    host, factor = _factor_of_disjoint_copies(2, 3, 2)
    c0, c1 = factor.copies
    overlapping = TreeCopy(
        left_by_role=(2, 3),
        right_by_role=(3, 4, 0),  # steals y0 from copy 0
        edges=c1.edges,
    )
    bad = TreeFactor(2, 3, (c0, overlapping))
    rep = verify_tree_factor(host, bad, 2, 3, require_spanning=False)
    assert not rep.ok
    assert any("share right vertex 0" in p for p in rep.problems)


def test_verify_tree_factor_flags_missing_host_edge():
    host, factor = _factor_of_disjoint_copies(2, 3, 1)
    copy = factor.copies[0]
    twisted = TreeCopy(
        left_by_role=copy.left_by_role,
        right_by_role=(1, 0, 2),  # permute roles so mapped edges leave the host
        edges=copy.edges,
    )
    rep = verify_tree_factor(host, TreeFactor(2, 3, (twisted,)), 2, 3, False)
    assert not rep.ok


def test_verify_tree_factor_flags_non_spanning():
    host, factor = _factor_of_disjoint_copies(2, 3, 2)
    rep = verify_tree_factor(host, TreeFactor(2, 3, factor.copies[:1]), 2, 3, True)
    assert not rep.ok
    assert any("not spanning" in p for p in rep.problems)


def _with_copy(factor, c, left, right, edges=None):
    """factor with copy c recast on the given role maps; its edges are the
    canonical tree's through them unless given."""
    if edges is None:
        canon = build_euclidean_tree(factor.ell, factor.L).graph.edges()
        edges = tuple((left[x], right[y]) for x, y in canon)
    copies = list(factor.copies)
    copies[c] = dataclasses.replace(copies[c], left_by_role=left, right_by_role=right, edges=edges)
    return dataclasses.replace(factor, copies=tuple(copies))


COMPLETE_4_6 = complete_graph(4, 6)
COPY_0_EDGES = ((0, 0), (0, 1), (1, 0), (1, 2))  # T_{2,3} on x0 x1, y0 y1 y2


@pytest.mark.parametrize("tamper, problem", [
    (lambda h, f: (h, dataclasses.replace(f, L=5)),
     "factor declares (2, 5), expected (2, 3)"),
    (lambda h, f: (h, _with_copy(f, 0, (0, 0), (0, 1, 2))),
     "copy 0: left side is not 2 distinct vertices"),
    (lambda h, f: (h, _with_copy(f, 0, (0, 1), (0, 0, 1))),
     "copy 0: right side is not 3 distinct vertices"),
    (lambda h, f: (h, _with_copy(f, 1, (2, 4), (3, 4, 5))),
     "copy 1: vertex out of host range"),
    (lambda h, f: (h, _with_copy(f, 0, (0.0, 1), (0, 1, 2))),
     "copy 0: vertex is not an integer"),
    (lambda h, f: (h, _with_copy(f, 0, ("0", 1), (0, 1, 2))),
     "copy 0: vertex is not an integer"),
    (lambda h, f: (h, _with_copy(f, 0, (True, 0), (0, 1, 2))),
     "copy 0: vertex is not an integer"),
    (lambda h, f: (h, _with_copy(f, 1, (2, 0), (3, 4, 5))),
     "copies 0 and 1 share left vertex 0"),
    (lambda h, f: (h, _with_copy(f, 1, (2, 3), (3, 4, 0))),
     "copies 0 and 1 share right vertex 0"),
    (lambda h, f: (h, _with_copy(f, 0, (0, 1), (0, 1, 2), COPY_0_EDGES + ((0, 0),))),
     "copy 0: 5 edges, expected 4"),
    (lambda h, f: (h, _with_copy(f, 0, (0, 1), (0, 1, 2), COPY_0_EDGES[:3] + ((0, 2),))),
     "copy 0: edge set does not match the canonical tree via its role map"),
    (lambda h, f: (h, _with_copy(f, 0, (0, 1), (0, 1, 2), COPY_0_EDGES[:3] + ((9, 0),))),
     "copy 0: edge set does not match the canonical tree via its role map"),
    (lambda h, f: (h, _with_copy(f, 0, (0, 1), (0, 1, 2), COPY_0_EDGES[:3] + ((1, None),))),
     "copy 0: edge set does not match the canonical tree via its role map"),
    (lambda h, f: (BipartiteGraph.from_edges(4, 6, list(h.edges())[1:]), f),
     "copy 0: edge (0, 0) not present in the host graph"),
    (lambda h, f: (h, dataclasses.replace(f, copies=f.copies[:1])),
     "copies cover 2/4 left and 3/6 right vertices; not spanning"),
])
def test_verify_tree_factor_reports_each_defect(tamper, problem):
    _, factor = _factor_of_disjoint_copies(2, 3, 2)
    assert set(factor.copies[0].edges) == set(COPY_0_EDGES)
    assert verify_tree_factor(COMPLETE_4_6, factor, 2, 3, require_spanning=True).ok
    host, bad = tamper(COMPLETE_4_6, factor)
    rep = verify_tree_factor(host, bad, 2, 3, require_spanning=True)
    assert (rep.ok, rep.problems) == (False, (problem,))


def test_fact_bound_at_5_8():
    s = euclid_schedule(5, 8)
    assert s.complexity_bound == pytest.approx(2.078 * math.log(8) + 0.6723)
    assert s.m <= s.complexity_bound


def verify_tree_factor_reference(host, factor, ell, L, require_spanning):
    """verify_tree_factor as one Python loop over every copy, with a host
    lookup per mapped edge: its form before the copies were screened as
    role matrices."""
    problems = []
    if (factor.ell, factor.L) != (ell, L):
        problems.append(f"factor declares ({factor.ell}, {factor.L}), expected ({ell}, {L})")
    canon = list(build_euclidean_tree(ell, L).graph.edges())
    seen_left, seen_right = {}, {}
    for c, copy in enumerate(factor.copies):
        if not all(map(_is_int, (*copy.left_by_role, *copy.right_by_role))):
            problems.append(f"copy {c}: vertex is not an integer")
            continue
        if len(copy.left_by_role) != ell or len(set(copy.left_by_role)) != ell:
            problems.append(f"copy {c}: left side is not {ell} distinct vertices")
            continue
        if len(copy.right_by_role) != L or len(set(copy.right_by_role)) != L:
            problems.append(f"copy {c}: right side is not {L} distinct vertices")
            continue
        if any(not 0 <= v < host.k for v in copy.left_by_role) or any(
            not 0 <= v < host.n for v in copy.right_by_role
        ):
            problems.append(f"copy {c}: vertex out of host range")
            continue
        for v in copy.left_by_role:
            if v in seen_left:
                problems.append(f"copies {seen_left[v]} and {c} share left vertex {v}")
            seen_left[v] = c
        for v in copy.right_by_role:
            if v in seen_right:
                problems.append(f"copies {seen_right[v]} and {c} share right vertex {v}")
            seen_right[v] = c
        if len(copy.edges) != ell + L - 1:
            problems.append(f"copy {c}: {len(copy.edges)} edges, expected {ell + L - 1}")
        mapped = [(copy.left_by_role[rx], copy.right_by_role[ry]) for rx, ry in canon]
        if set(mapped) != set(copy.edges):
            problems.append(f"copy {c}: edge set does not match the canonical tree via its role map")
        for x, y in mapped:
            if not host.has_edge(x, y):
                problems.append(f"copy {c}: edge ({x}, {y}) not present in the host graph")
    if require_spanning and not problems:
        if len(seen_left) != host.k or len(seen_right) != host.n:
            problems.append(
                f"copies cover {len(seen_left)}/{host.k} left and "
                f"{len(seen_right)}/{host.n} right vertices; not spanning"
            )
    return FactorReport(ok=not problems, problems=tuple(problems))


def _tampered(host, factor, kind, i, j):
    """host and factor with one defect of the given kind, placed by the
    numbers i and j."""
    ell, L = factor.ell, factor.L
    copies = list(factor.copies)
    c, other = i % len(copies), j % len(copies)
    copy = copies[c]
    side = "left_by_role" if j % 2 else "right_by_role"
    roles = list(getattr(copy, side))
    if kind == "host edge removed":
        edges = list(host.edges())
        del edges[j % len(edges):][:1]
        return BipartiteGraph.from_edges(host.k, host.n, edges), factor
    if kind in ("edge dropped", "edge altered"):
        edges = list(copy.edges)
        if not edges:
            return host, factor
        e = j % len(edges)
        if kind == "edge dropped":
            del edges[e]
        else:
            edges[e] = [(j % host.k, i % host.n), (0.0, 0), (host.k, 0), (0, None),
                        (*edges[e], 0)][i % 5]
        copies[c] = dataclasses.replace(copy, edges=tuple(edges))
        return host, dataclasses.replace(factor, copies=tuple(copies))
    if not roles:
        return host, factor
    r = i % len(roles)
    if kind == "role permuted":
        roles = roles[1:] + roles[:1]
    elif kind == "vertex shared":
        donor = getattr(copies[other], side)
        roles[r] = donor[j % len(donor)] if donor else 0
    elif kind == "vertex out of range":
        roles[r] = [-1, host.k + host.n, 2**63, 2**70][j % 4]
    elif kind == "float vertex":
        roles[r] = float(roles[r]) if isinstance(roles[r], (int, float)) else 0.5
    elif kind == "bool vertex":
        roles[r] = bool(j % 2)
    elif kind == "str vertex":
        roles[r] = str(roles[r])
    elif kind == "short side":
        roles = roles[:-1]
    else:  # a long side
        roles = roles + [roles[0] if j % 3 else host.k * host.n]
    copy = dataclasses.replace(copy, **{side: tuple(roles)})
    if i % 3 == 0 and (len(copy.left_by_role), len(copy.right_by_role)) == (ell, L):
        # The declared edges follow the roles, so only the roles are wrong.
        canon = build_euclidean_tree(ell, L).graph.edges()
        edges = tuple((copy.left_by_role[x], copy.right_by_role[y]) for x, y in canon)
        copy = dataclasses.replace(copy, edges=edges)
    copies[c] = copy
    return host, dataclasses.replace(factor, copies=tuple(copies))


FACTOR_TAMPERINGS = [
    "role permuted", "vertex shared", "vertex out of range", "float vertex", "bool vertex",
    "str vertex", "short side", "long side", "edge dropped", "edge altered", "host edge removed",
]


@given(
    st.sampled_from([(1, 1), (1, 3), (2, 3), (3, 5), (5, 8)]),
    st.integers(1, 5),
    st.booleans(),
    st.lists(
        st.tuples(st.sampled_from(FACTOR_TAMPERINGS), st.integers(0, 999), st.integers(0, 999)),
        max_size=4,
    ),
    st.booleans(),
)
# Only a shared vertex is wrong: copy 0 takes the right vertex of role 1 of
# copy 1, its declared edges follow, and the host is complete.
@example((2, 3), 2, True, [("vertex shared", 0, 0)], False)
@example((3, 5), 3, False, [("vertex out of range", 1, 2), ("host edge removed", 0, 4)], True)
def test_verify_tree_factor_matches_the_loop_reference(shape, count, complete, tamperings, spanning):
    # On the disjoint copies alone, a wrong role map also misses host edges;
    # on the complete host it only breaks the edge-set match.
    ell, L = shape
    host, factor = _factor_of_disjoint_copies(ell, L, count)
    if complete:
        host = complete_graph(host.k, host.n)
    for kind, i, j in tamperings:
        host, factor = _tampered(host, factor, kind, i, j)
    got = verify_tree_factor(host, factor, ell, L, require_spanning=spanning)
    assert got == verify_tree_factor_reference(host, factor, ell, L, spanning)
