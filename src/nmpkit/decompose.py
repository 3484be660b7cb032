"""Euclidean tree factorization of dense bipartite graphs, and NMP repair.

`extract_thrill` pulls a maximal q-thrill (vertex-disjoint q-fans) out of a
size-ratio-q pair of vertex sets with a deterministic greedy. The staged
driver `euclid_factor_decompose` partitions both sides into blocks of size
t = gcd(k, n) and replays the Euclidean tree process over blocks: stage i
grows every surviving tree copy by one q_i-fan per vertex on its stationary
side. A copy whose fan extraction fails anywhere is corrupt and is deleted
wholly, including the fresh leaves its other fans already claimed; padding
sets S_i keep the exact size ratio that the thrill extraction needs. What
survives after stage m is a spanning family of T_{ell,L} copies of the rest
of the graph, which therefore has NMP.

`approx_nmp` is the two-case driver: with n much larger than k a single
floor(n/k)-thrill suffices (case a); otherwise both sides are first trimmed
to sizes K, N whose reduced ratio L/ell is small, then the staged
factorization runs on the trimmed graph (case b).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .euclid import (
    EuclidSchedule,
    Fan,
    Thrill,
    TreeCopy,
    TreeFactor,
    build_euclidean_tree,
    euclid_schedule,
)
from .graph import (
    BipartiteGraph,
    Side,
    VertexSet,
    induced_subgraph,
    left_set,
    right_set,
)
from .nmpcheck import Verdict, check_nmp


@dataclass(frozen=True)
class ThrillExtraction:
    """Greedy maximal thrill between U (left) and V (right).

    A is the left-side leftover and B the right-side leftover, matching the
    size bounds they obey; fans are anchored on `side`. For side = LEFT, A
    holds the anchors that could not fill a fan and B the unclaimed leaves
    (so no vertex of A has q free neighbors left in B); for side = RIGHT the
    roles of A and B swap.
    """

    side: Side
    q: int
    thrill: Thrill
    A: VertexSet
    B: VertexSet


def extract_thrill(
    g: BipartiteGraph, u: VertexSet, v: VertexSet, q: int, side: Side
) -> ThrillExtraction:
    """Maximal q-thrill by greedy: anchors in ascending index order, each
    claiming its q lowest-index unused neighbors; anchors that cannot are
    skipped for good (availability only shrinks, so one pass is maximal).
    """
    if u.side is not Side.LEFT or v.side is not Side.RIGHT:
        raise ValueError("extract_thrill expects (left set, right set)")
    if q < 1:
        raise ValueError("fan width q must be positive")
    if side is Side.LEFT:
        if len(v) != q * len(u):
            raise ValueError(f"X-side thrill needs |V| = q*|U|; got {len(v)} != {q}*{len(u)}")
        anchors, leaves_pool, row = u.members, v.members, g.neighbors
        free_bound = g.n
    else:
        if len(u) != q * len(v):
            raise ValueError(f"Y-side thrill needs |U| = q*|V|; got {len(u)} != {q}*{len(v)}")
        anchors, leaves_pool, row = v.members, u.members, g.rneighbors
        free_bound = g.k

    pool = np.array(leaves_pool, dtype=np.int64)
    free = np.zeros(free_bound, dtype=bool)
    free[pool] = True
    fans: list[Fan] = []
    failed: list[int] = []
    for a in anchors:
        cand = row(a)
        picked = cand[free[cand]][:q]  # rows are sorted: the q lowest free
        if len(picked) == q:
            free[picked] = False
            fans.append(Fan(anchor_side=side, anchor=a, leaves=tuple(picked.tolist())))
        else:
            failed.append(a)
    leftover_leaves = pool[free[pool]].tolist()
    thrill = Thrill(side=side, q=q, fans=tuple(fans))
    thrill.validate()
    if side is Side.LEFT:
        a_set, b_set = left_set(failed), right_set(leftover_leaves)
    else:
        a_set, b_set = left_set(leftover_leaves), right_set(failed)
    return ThrillExtraction(side=side, q=q, thrill=thrill, A=a_set, B=b_set)


class DecompositionError(ValueError):
    """A stage ran out of fresh vertices for its padding set."""

    def __init__(self, stage: int, needed: int, available: int):
        self.stage = stage
        self.needed = needed
        self.available = available
        super().__init__(
            f"stage {stage}: padding set needs {needed} fresh vertices, only "
            f"{available} available (graph too small or too corrupted)"
        )


class DecompositionInvariantError(ValueError):
    """The staged decomposition broke one of its own bookkeeping identities."""


@dataclass(frozen=True)
class StageRecord:
    index: int
    anchor_side: str       # "X" when fans are anchored on the left
    q: int
    s_size: int            # padding set placed on the growing side
    a_size: int            # |A_i|: left-side extraction leftover
    b_size: int            # |B_i|: right-side extraction leftover
    corrupt_copies: int
    corrupt_x: int         # left vertices deleted with corrupt copies
    corrupt_y: int         # right vertices deleted with corrupt copies
    d_x: int               # cumulative left deletions after this stage
    d_y: int
    within_d0: bool        # extraction leftovers within the d0 = 2*eps*n budget


@dataclass(frozen=True)
class DecompositionTrace:
    k: int
    n: int
    t: int                 # block size gcd(k, n)
    ell: int
    L: int
    eps: float
    d0: float
    schedule: EuclidSchedule
    stages: tuple[StageRecord, ...]
    D_X: VertexSet
    D_Y: VertexSet
    factor: TreeFactor


class _Copy:
    __slots__ = ("left", "right")

    def __init__(self, left: list[int | None], right: list[int | None]):
        self.left = left
        self.right = right


def euclid_factor_decompose(g: BipartiteGraph, eps: float) -> DecompositionTrace:
    """Staged T_{ell,L}-factorization of all but the deleted vertex sets.

    eps only sizes the reported budget d0 = 2*eps*n; the greedy itself never
    consumes it.
    """
    k, n = g.k, g.n
    t = math.gcd(k, n)
    ell, L = k // t, n // t
    sched = euclid_schedule(ell, L)
    r, q, m = sched.r, sched.q, sched.m
    hi_is_right = L >= ell
    d0 = 2.0 * eps * n

    deleted_x: list[int] = []
    deleted_y: list[int] = []
    records: list[StageRecord] = []

    # Stage 1 anchors the first block of its stationary side; start with one
    # single-vertex copy per anchor so every stage runs the same step.
    first_grow_right = hi_is_right == ((m - 1) % 2 == 0)
    if first_grow_right:
        copies = [_Copy([x], []) for x in range(t)]
    else:
        copies = [_Copy([], [y]) for y in range(t)]

    for i in range(1, m + 1):
        grow_right = hi_is_right == ((m - i) % 2 == 0)
        anchor_is_left = grow_right
        fresh_lo, fresh_hi = r[i - 1] * t, r[i + 1] * t
        d_anchor = len(deleted_x) if anchor_is_left else len(deleted_y)
        qi = q[i - 1]
        s_need = qi * d_anchor
        if s_need > fresh_hi - fresh_lo:
            raise DecompositionError(stage=i, needed=s_need, available=fresh_hi - fresh_lo)
        padding = list(range(fresh_lo, fresh_lo + s_need))
        pool = range(fresh_lo + s_need, fresh_hi)

        anchors = sorted(
            h for c in copies for h in (c.left if anchor_is_left else c.right)
        )
        if anchor_is_left:
            ext = extract_thrill(g, left_set(anchors), right_set(pool), qi, Side.LEFT)
            failed = set(ext.A.members)
        else:
            ext = extract_thrill(g, left_set(pool), right_set(anchors), qi, Side.RIGHT)
            failed = set(ext.B.members)
        fan_of = {f.anchor: f.leaves for f in ext.thrill.fans}

        corrupt: list[_Copy] = []
        survivors: list[_Copy] = []
        for c in copies:
            anchor_list = c.left if anchor_is_left else c.right
            grow_list = c.right if anchor_is_left else c.left
            grown = grow_list + [None] * (r[i + 1] - r[i - 1])
            bad = False
            for j, a in enumerate(anchor_list):
                if a in failed:
                    bad = True
                    continue
                for udx, leaf in enumerate(fan_of[a]):
                    grown[j + r[i - 1] + udx * r[i]] = leaf
            if anchor_is_left:
                c.right = grown
            else:
                c.left = grown
            (corrupt if bad else survivors).append(c)

        corrupt_x = corrupt_y = 0
        for c in corrupt:
            cx = [h for h in c.left if h is not None]
            cy = [h for h in c.right if h is not None]
            corrupt_x += len(cx)
            corrupt_y += len(cy)
            deleted_x.extend(cx)
            deleted_y.extend(cy)
        if anchor_is_left:
            deleted_y.extend(padding)
            deleted_y.extend(ext.B.members)
            within = len(ext.A) * qi <= d0 and len(ext.B) <= d0
        else:
            deleted_x.extend(padding)
            deleted_x.extend(ext.A.members)
            within = len(ext.A) <= qi * d0 and len(ext.B) <= d0
        copies = survivors

        # Every active vertex is in a surviving copy or deleted, never both.
        active_l = r[i + 1] if not grow_right else r[i]
        active_r = r[i + 1] if grow_right else r[i]
        if sum(len(c.left) for c in copies) + len(deleted_x) != t * active_l:
            raise DecompositionInvariantError(f"stage {i}: left conservation broken")
        if sum(len(c.right) for c in copies) + len(deleted_y) != t * active_r:
            raise DecompositionInvariantError(f"stage {i}: right conservation broken")

        records.append(
            StageRecord(
                index=i,
                anchor_side="X" if anchor_is_left else "Y",
                q=qi,
                s_size=s_need,
                a_size=len(ext.A),
                b_size=len(ext.B),
                corrupt_copies=len(corrupt),
                corrupt_x=corrupt_x,
                corrupt_y=corrupt_y,
                d_x=len(deleted_x),
                d_y=len(deleted_y),
                within_d0=within,
            )
        )

    canon_edges = list(build_euclidean_tree(ell, L).graph.edges())
    factor_copies = []
    for c in copies:
        left_by_role = tuple(c.left)
        right_by_role = tuple(c.right)
        edges = tuple(
            (left_by_role[rx], right_by_role[ry]) for rx, ry in canon_edges
        )
        factor_copies.append(
            TreeCopy(left_by_role=left_by_role, right_by_role=right_by_role, edges=edges)
        )
    d_x_set = left_set(deleted_x)
    d_y_set = right_set(deleted_y)
    if (k - len(d_x_set)) * L != (n - len(d_y_set)) * ell:
        raise DecompositionInvariantError("remainder sizes are not in the ratio ell:L")
    return DecompositionTrace(
        k=k,
        n=n,
        t=t,
        ell=ell,
        L=L,
        eps=eps,
        d0=d0,
        schedule=sched,
        stages=tuple(records),
        D_X=d_x_set,
        D_Y=d_y_set,
        factor=TreeFactor(ell=ell, L=L, copies=tuple(factor_copies)),
    )


@dataclass(frozen=True)
class CaseBParams:
    alpha: float
    eta: float
    K: int
    N: int
    ell: int
    L: int


@dataclass(frozen=True)
class ApproxResult:
    x_hat: VertexSet
    y_hat: VertexSet
    fraction_x: float
    fraction_y: float
    case: str                       # "a" or "b"
    remainder_nmp_verified: bool
    factor: TreeFactor              # in original vertex indices
    case_b: CaseBParams | None = None
    trace: DecompositionTrace | None = None  # case b; indices of the trimmed graph


def approx_remainder(g: BipartiteGraph, result: ApproxResult) -> BipartiteGraph:
    """Induced subgraph left after the deletions of an ApproxResult."""
    keep_x = left_set(set(range(g.k)) - set(result.x_hat.members))
    keep_y = right_set(set(range(g.n)) - set(result.y_hat.members))
    sub, _, _ = induced_subgraph(g, keep_x, keep_y)
    if sub is None:
        raise ValueError("deletions emptied a side")
    return sub


def approx_nmp(g: BipartiteGraph, eps: float, mode: str = "auto") -> ApproxResult:
    """Delete small vertex sets so that the rest of the graph has NMP.

    Case selection: (a) when n > k/sqrt(eps), else (b); `mode` can force
    either. Arbitrary choices are fixed deterministically: deletions to hit
    target sizes take the highest indices, padding sets take the lowest.
    """
    if not 0 < eps < 1:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if mode not in ("auto", "a", "b", "force_a", "force_b"):
        raise ValueError(f"unknown mode {mode!r}")
    k, n = g.k, g.n
    if mode == "auto":
        case = "a" if n > k / math.sqrt(eps) else "b"
    else:
        case = mode[-1]

    if case == "a":
        q = n // k
        if q < 1:
            raise ValueError("case (a) needs n >= k")
        rem = n - q * k
        c_y = list(range(n - rem, n))
        v = right_set(range(n - rem))
        ext = extract_thrill(g, left_set(range(k)), v, q, Side.LEFT)
        x_hat = ext.A
        y_hat = right_set(list(ext.B.members) + c_y)
        copies = tuple(
            TreeCopy(
                left_by_role=(f.anchor,),
                right_by_role=f.leaves,
                edges=tuple((f.anchor, y) for y in f.leaves),
            )
            for f in ext.thrill.fans
        )
        factor = TreeFactor(ell=1, L=q, copies=copies)
        result = ApproxResult(
            x_hat=x_hat,
            y_hat=y_hat,
            fraction_x=len(x_hat) / k,
            fraction_y=len(y_hat) / n,
            case="a",
            remainder_nmp_verified=False,
            factor=factor,
        )
    else:
        alpha = eps ** 0.75
        eta = eps ** 0.25
        unit = math.floor(alpha * n)
        if unit < 1:
            raise ValueError(f"floor(alpha*n) = 0 with alpha = {alpha:.6g}, n = {n}")
        big_n = unit * (n // unit)
        if big_n < n * (1 - alpha):
            raise ValueError(
                f"no multiple of {unit} in [n(1-alpha), n] = [{n * (1 - alpha):.3f}, {n}]"
            )
        big_k = unit * math.floor(k * (1 - eta) / unit)
        if big_k < k * (1 - 2 * eta) or big_k < 1:
            raise ValueError(
                f"no multiple of {unit} in [k(1-2*eta), k(1-eta)] = "
                f"[{k * (1 - 2 * eta):.3f}, {k * (1 - eta):.3f}]"
            )
        keep_x = left_set(range(big_k))
        keep_y = right_set(range(big_n))
        sub, left_orig, right_orig = induced_subgraph(g, keep_x, keep_y)
        trace = euclid_factor_decompose(sub, eps)
        x_hat = left_set(list(range(big_k, k)) + [left_orig[i] for i in trace.D_X])
        y_hat = right_set(list(range(big_n, n)) + [right_orig[j] for j in trace.D_Y])
        copies = tuple(
            TreeCopy(
                left_by_role=tuple(left_orig[i] for i in c.left_by_role),
                right_by_role=tuple(right_orig[j] for j in c.right_by_role),
                edges=tuple((left_orig[i], right_orig[j]) for i, j in c.edges),
            )
            for c in trace.factor.copies
        )
        result = ApproxResult(
            x_hat=x_hat,
            y_hat=y_hat,
            fraction_x=len(x_hat) / k,
            fraction_y=len(y_hat) / n,
            case="b",
            remainder_nmp_verified=False,
            factor=TreeFactor(ell=trace.ell, L=trace.L, copies=copies),
            case_b=CaseBParams(
                alpha=alpha, eta=eta, K=big_k, N=big_n, ell=trace.ell, L=trace.L
            ),
            trace=trace,
        )

    remainder = approx_remainder(g, result)
    verified = check_nmp(remainder).verdict is Verdict.HAS_NMP
    return dataclasses.replace(result, remainder_nmp_verified=verified)
