"""Euclidean trees: schedules, the canonical tree, the staged process, factors.

For coprime (ell, L) the Euclidean tree T_{ell,L} is the left-right tree on
ell + L vertices obtained by repeatedly peeling a perfect matching off the
larger side, exactly as the Euclidean algorithm reduces (ell, L). The same
object arises bottom-up as a staged process that starts from a star and adds
one q_i-thrill per stage, one stage per division step of the algorithm.
These trees have NMP, which is what makes factors made of them useful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, compress
from operator import attrgetter

import numpy as np

from .graph import (
    _INT64_MAX,
    BipartiteGraph,
    Side,
    _is_int,
    _row_search,
    _undirected_adjacency,
    is_connected,
)


@dataclass(frozen=True)
class EuclidSchedule:
    """Remainder/quotient ladder of the Euclidean algorithm on (ell, L).

    r has m+2 entries r_0 = 0, r_1 = 1, ..., r_m = min(ell, L),
    r_{m+1} = max(ell, L), and satisfies r_{i+1} = q_i * r_i + r_{i-1}.
    q has m entries q_1..q_m (stored 0-based).
    """

    ell: int
    L: int
    m: int
    r: tuple[int, ...]
    q: tuple[int, ...]

    @property
    def complexity_bound(self) -> float:
        """Known upper bound on m: 2.078 * ln(max(ell, L)) + 0.6723."""
        return 2.078 * math.log(max(self.ell, self.L)) + 0.6723

    def grows_right(self, i: int) -> bool:
        """Whether stage i (1..m) grows the right side. Stage m grows the
        larger side, and the growing side alternates downward from there."""
        return (self.L >= self.ell) == ((self.m - i) % 2 == 0)

    def shape(self, i: int) -> tuple[int, int]:
        """(left, right) vertex counts after stage i: r_i stationary, r_{i+1} grown."""
        r = self.r
        return (r[i], r[i + 1]) if self.grows_right(i) else (r[i + 1], r[i])

    def leaf_anchors(self, i: int) -> list[int]:
        """The leaf rule of stage i, as the anchor role of each new leaf.

        New leaf s (0 <= s < q_i * r_i) takes role r_{i-1} + s on the growing
        side and hangs off the stationary vertex of role s mod r_i, so each
        anchor's fan fills its roles in the order the fan lists its leaves.
        """
        return [s % self.r[i] for s in range(self.q[i - 1] * self.r[i])]


def euclid_schedule(ell: int, L: int) -> EuclidSchedule:
    if ell < 1 or L < 1:
        raise ValueError("sides must be positive")
    if math.gcd(ell, L) != 1:
        raise ValueError(f"({ell}, {L}) are not coprime")
    lo, hi = min(ell, L), max(ell, L)
    ds = [hi, lo]
    qs_topdown: list[int] = []
    while ds[-1] != 0:
        quot, rem = divmod(ds[-2], ds[-1])
        qs_topdown.append(quot)
        ds.append(rem)
    m = len(qs_topdown)
    return EuclidSchedule(
        ell=ell, L=L, m=m, r=tuple(reversed(ds)), q=tuple(reversed(qs_topdown))
    )


@dataclass(frozen=True)
class EuclideanTree:
    ell: int
    L: int
    graph: BipartiteGraph


def build_euclidean_tree(ell: int, L: int) -> EuclideanTree:
    """Canonical T_{ell,L} by matching peeling.

    With a = current left count, b = current right count: while both exceed
    one, match the larger side's top indices against the smaller side
    (x_i -- y_{i+b-a} when a < b, symmetric otherwise) and recurse on the
    prefix; a side of size one ends with a star. (1, 1) is the single edge.
    """
    if math.gcd(ell, L) != 1:
        raise ValueError(f"({ell}, {L}) are not coprime")
    edges: list[tuple[int, int]] = []
    a, b = ell, L
    while a != 1 and b != 1:
        if a < b:
            edges.extend((i, i + b - a) for i in range(a))
            b -= a
        else:
            edges.extend((i + a - b, i) for i in range(b))
            a -= b
    if a == 1:
        edges.extend((0, j) for j in range(b))
    else:
        edges.extend((i, 0) for i in range(a))
    return EuclideanTree(ell, L, BipartiteGraph.from_edges(ell, L, edges))


@dataclass(frozen=True)
class Fan:
    """A star T_{1,q} (anchor on anchor_side) used as a thrill member."""

    anchor_side: Side
    anchor: int
    leaves: tuple[int, ...]


@dataclass(frozen=True)
class Thrill:
    """Vertex-disjoint fans, all on the same side with the same width q."""

    side: Side
    q: int
    fans: tuple[Fan, ...]

    def validate(self) -> None:
        anchors: set[int] = set()
        leaves: set[int] = set()
        for f in self.fans:
            if f.anchor_side is not self.side:
                raise ValueError("fan anchored on the wrong side")
            if len(f.leaves) != self.q:
                raise ValueError(f"fan at {f.anchor} has {len(f.leaves)} leaves, expected {self.q}")
            if f.anchor in anchors:
                raise ValueError(f"anchor {f.anchor} reused")
            anchors.add(f.anchor)
            for v in f.leaves:
                if v in leaves:
                    raise ValueError(f"leaf {v} reused")
                leaves.add(v)


def run_tree_process(ell: int, L: int) -> list[EuclideanTree]:
    """Staged evolution T_1, ..., T_m ending in the canonical T_{ell,L}.

    Stage i adds a q_i-thrill of size r_i: every vertex of the stationary
    side anchors a fan of q_i fresh vertices on the growing side, placed by
    `EuclidSchedule.leaf_anchors`. That rule reproduces the matching-peeling
    tree index for index.
    """
    sched = euclid_schedule(ell, L)
    edges: list[tuple[int, int]] = []
    stages: list[EuclideanTree] = []
    for i in range(1, sched.m + 1):
        grow_right = sched.grows_right(i)
        for leaf, j in enumerate(sched.leaf_anchors(i), start=sched.r[i - 1]):
            # Anchors live on the stationary side; store (left, right).
            edges.append((j, leaf) if grow_right else (leaf, j))
        left_count, right_count = sched.shape(i)
        stages.append(
            EuclideanTree(
                left_count,
                right_count,
                BipartiteGraph.from_edges(left_count, right_count, list(edges)),
            )
        )
    return stages


@dataclass(frozen=True)
class TreeCopy:
    """One host-graph copy of the canonical tree.

    left_by_role[i] is the host left vertex playing canonical x_i; same on
    the right. edges are host-index pairs.
    """

    left_by_role: tuple[int, ...]
    right_by_role: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class TreeFactor:
    ell: int
    L: int
    copies: tuple[TreeCopy, ...]


@dataclass(frozen=True)
class FactorReport:
    ok: bool
    problems: tuple[str, ...]


def _int_rows(rows: list, width: int) -> tuple[np.ndarray, np.ndarray]:
    """rows as an int64 (len(rows), width) matrix, and a mask of the rows
    that are `width` integers (in _is_int's sense) within int64; any other
    row reads as zeros. The values are read in one C-level pass unless one
    of them is not such an integer, and only then row by row."""
    ok = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows)) == width
    mat = np.zeros((len(rows), width), dtype=np.int64)
    flat = list(chain.from_iterable(compress(rows, ok)))
    if all(t is int or issubclass(t, np.integer) for t in set(map(type, flat))):
        try:
            mat[ok] = np.array(flat, dtype=np.int64).reshape(-1, width)
            return mat, ok
        except OverflowError:
            pass
    for i in np.flatnonzero(ok):
        ok[i] = all(_is_int(v) and -_INT64_MAX - 1 <= v <= _INT64_MAX for v in rows[i])
    mat[ok] = np.array(list(compress(rows, ok)), dtype=np.int64).reshape(-1, width)
    return mat, ok


def _suspect_copies(host: BipartiteGraph, copies, ell: int, L: int, canon) -> list[int]:
    """The indices of the copies that the per-copy rules of
    `verify_tree_factor` could object to, or that share a vertex with
    another copy; every other copy is valid and disjoint from the rest.

    The roles are stacked into (copies, ell) and (copies, L) matrices, the
    declared edges into one (edges, 2) matrix, and every rule is checked on
    all copies at once: sizes and integer values, distinct roles, ranges,
    shared vertices (one np.bincount per side over the copies that pass
    those), the declared edges against the canonical ones through the roles
    (sorted key rows), and the host's edges (one graph._row_search).
    """
    e = len(canon[0])
    lefts, ok_l = _int_rows(list(map(attrgetter("left_by_role"), copies)), ell)
    rights, ok_r = _int_rows(list(map(attrgetter("right_by_role"), copies)), L)
    good = ok_l & ok_r
    for roles, bound in ((lefts, host.k), (rights, host.n)):
        ordered = np.sort(roles, axis=1)
        good &= (ordered[:, 1:] != ordered[:, :-1]).all(axis=1)
        good &= (ordered[:, 0] >= 0) & (ordered[:, -1] < bound)
    clean = good.copy()
    for roles, bound in ((lefts, host.k), (rights, host.n)):
        roles[~good] = 0
        held = np.bincount(roles[good].ravel(), minlength=bound)
        clean &= (held[roles] <= 1).all(axis=1)

    # The declared edges of the copies with e of them, as sorted key rows.
    edge_lists = list(map(attrgetter("edges"), copies))
    sized = np.fromiter(map(len, edge_lists), dtype=np.int64, count=len(copies)) == e
    pairs = list(chain.from_iterable(compress(edge_lists, sized)))
    if not set(map(type, pairs)) <= {tuple}:  # another pair need not hash as its ends do
        pairs = [p if type(p) is tuple else () for p in pairs]
    declared, ok_e = _int_rows(pairs, 2)
    xs, ys = declared.T
    ok_e &= (xs >= 0) & (xs < host.k) & (ys >= 0) & (ys < host.n)
    declared[~ok_e] = 0
    keys = np.zeros((len(copies), e), dtype=np.int64)
    keys[sized] = (xs * host.n + ys).reshape(-1, e)
    clean &= sized
    clean[sized] &= ok_e.reshape(-1, e).all(axis=1)

    mapped_x, mapped_y = lefts[:, canon[0]], rights[:, canon[1]]
    clean &= (np.sort(keys, axis=1) == np.sort(mapped_x * host.n + mapped_y, axis=1)).all(axis=1)
    on_host = _row_search(host, mapped_x[clean].ravel(), mapped_y[clean].ravel())[1]
    clean[clean] = on_host.reshape(-1, e).all(axis=1)
    return np.flatnonzero(~clean).tolist()


def verify_tree_factor(
    host: BipartiteGraph,
    factor: TreeFactor,
    ell: int,
    L: int,
    require_spanning: bool,
) -> FactorReport:
    """Check disjointness, edge membership, and per-copy isomorphism.

    Failures are reported as diagnostics, never raised. All copies are
    screened at once on int64 role matrices (`_suspect_copies`): a copy
    that passes is valid and shares no vertex, so only the copies that do
    not are checked one by one, in order, by the rules that word every
    problem. There the host is asked for the canonical tree's edges mapped
    through each copy's roles, which it has checked are integers in range,
    so a malformed declared edge only fails the edge-set match.
    """
    problems: list[str] = []
    if (factor.ell, factor.L) != (ell, L):
        problems.append(f"factor declares ({factor.ell}, {factor.L}), expected ({ell}, {L})")
    canon_x, canon_y = build_euclidean_tree(ell, L).graph.edge_arrays()
    canon = list(zip(canon_x.tolist(), canon_y.tolist()))
    seen_left: dict[int, int] = {}
    seen_right: dict[int, int] = {}
    for c in _suspect_copies(host, factor.copies, ell, L, (canon_x, canon_y)):
        copy = factor.copies[c]
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
        # No problem: every copy holds ell + L distinct vertices of its own.
        covered_left, covered_right = ell * len(factor.copies), L * len(factor.copies)
        if covered_left != host.k or covered_right != host.n:
            problems.append(
                f"copies cover {covered_left}/{host.k} left and "
                f"{covered_right}/{host.n} right vertices; not spanning"
            )
    return FactorReport(ok=not problems, problems=tuple(problems))


def _tree_center(adj: list[list[int]]) -> list[int]:
    # Classic leaf peeling; the last surviving layer is the center pair.
    n = len(adj)
    deg = [len(a) for a in adj]
    layer = [v for v in range(n) if deg[v] <= 1]
    alive = n
    while alive > 2:
        nxt: list[int] = []
        for v in layer:
            for w in adj[v]:
                deg[w] -= 1
                if deg[w] == 1:
                    nxt.append(w)
        alive -= len(layer)
        layer = nxt
    return layer


def _ahu_code(root: int, adj: list[list[int]], k: int) -> str:
    # Iterative: a path-like tree is thousands of vertices deep. Reversed
    # preorder visits every child before its parent.
    parent = [-1] * len(adj)
    preorder: list[int] = []
    stack = [root]
    while stack:
        v = stack.pop()
        preorder.append(v)
        for w in adj[v]:
            if w != parent[v]:
                parent[w] = v
                stack.append(w)
    code: list[str] = [""] * len(adj)
    for v in reversed(preorder):
        children = sorted(code[w] for w in adj[v] if w != parent[v])
        code[v] = "(" + ("L" if v < k else "R") + "".join(children) + ")"
    return code[root]


def trees_isomorphic(g1: BipartiteGraph, g2: BipartiteGraph) -> bool:
    """Side-preserving isomorphism test for trees (canonical AHU codes)."""
    for g in (g1, g2):
        if g.edge_count != g.k + g.n - 1 or not is_connected(g):
            raise ValueError("trees_isomorphic requires connected trees")
    if (g1.k, g1.n) != (g2.k, g2.n):
        return False
    a1, a2 = _undirected_adjacency(g1), _undirected_adjacency(g2)
    c1, c2 = _tree_center(a1), _tree_center(a2)
    if len(c1) != len(c2):
        return False
    if len(c1) == 1:
        u, v = c1[0], c2[0]
        if (u < g1.k) != (v < g2.k):
            return False
        return _ahu_code(u, a1, g1.k) == _ahu_code(v, a2, g2.k)
    # Two centers are adjacent, hence on opposite sides: match left to left.
    u = c1[0] if c1[0] < g1.k else c1[1]
    v = c2[0] if c2[0] < g2.k else c2[1]
    if u >= g1.k or v >= g2.k:
        return False
    return _ahu_code(u, a1, g1.k) == _ahu_code(v, a2, g2.k)
