"""Euclidean tree factorization of dense bipartite graphs, and NMP repair.

`extract_thrill` pulls a maximal q-thrill (vertex-disjoint q-fans) out of a
size-ratio-q pair of vertex sets with a deterministic greedy. The staged
driver `euclid_factor_decompose` partitions both sides into blocks of size
t = gcd(k, n) and replays the Euclidean tree process of `euclid` over
blocks: the schedule says which side grows at stage i and where each fan
leaf goes, and stage i grows every surviving tree copy by one q_i-fan per
vertex on its stationary side. A copy whose fan extraction fails is corrupt
and is deleted wholly, including the fresh leaves its other fans already
claimed; padding sets S_i keep the exact size ratio that the thrill
extraction needs. What survives after stage m is a spanning family of
T_{ell,L} copies of the rest of the graph, which therefore has NMP.

`approx_nmp` trims both sides to index prefixes of sizes K, N and runs the
same staged factorization on the K x N prefix of g, in place: every stage
reads g's own rows, keeps g's vertex ids, and uses no vertex past the
prefix. With n much larger than k, K = k and N = q*k for q = floor(n/k):
the reduced ratio is 1:q and the factorization is its one-stage T_{1,q}
instance, a single q-thrill (case a). Otherwise K and N are chosen so that
the reduced ratio L/ell is small (case b).
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
    verify_tree_factor,
)
from .graph import (
    BipartiteGraph,
    Side,
    VertexSet,
    _check_side,
    induced_subgraph,
    left_set,
    right_set,
)
from .nmpcheck import Verdict, check_nmp, validate_certificate


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

    The Y side is the X side of g.swap_sides(), with anchors v and leaf pool
    u; its two leftovers are then exchanged, so A stays the left one.
    """
    _check_side(g, u, Side.LEFT)
    _check_side(g, v, Side.RIGHT)
    if q < 1:
        raise ValueError("fan width q must be positive")
    if side is Side.LEFT:
        anchors, leaves, need = u, v, "X-side thrill needs |V| = q*|U|"
    else:
        g, anchors, leaves, need = g.swap_sides(), v, u, "Y-side thrill needs |U| = q*|V|"
    if len(leaves) != q * len(anchors):
        raise ValueError(f"{need}; got {len(leaves)} != {q}*{len(anchors)}")

    pool = np.array(leaves.members, dtype=np.int64)
    free = np.zeros(g.n, dtype=bool)
    free[pool] = True
    fans: list[Fan] = []
    failed: list[int] = []
    for a in anchors:
        cand = g.neighbors(a)
        picked = cand[free[cand]][:q]  # rows are sorted: the q lowest free
        if len(picked) == q:
            free[picked] = False
            fans.append(Fan(anchor_side=side, anchor=a, leaves=tuple(picked.tolist())))
        else:
            failed.append(a)
    leftover = pool[free[pool]].tolist()
    thrill = Thrill(side=side, q=q, fans=tuple(fans))
    thrill.validate()
    if side is Side.RIGHT:
        failed, leftover = leftover, failed
    return ThrillExtraction(side=side, q=q, thrill=thrill, A=left_set(failed), B=right_set(leftover))


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


def _check_eps(eps: float) -> None:
    if not 0 < eps < 1:  # also refuses nan, which fails every comparison
        raise ValueError(f"eps must lie in (0, 1), got {eps}")


def _transposed_rows(g: BipartiteGraph, rows: range, cols: int) -> BipartiteGraph:
    """The block of g's rows `rows` and its columns [0, cols), transposed.

    Vertex ids stay g's: left y of the result, for y < cols, lists its
    neighbors in `rows`, and its right side has rows.stop vertices. The
    rows are contiguous in the CSR, so the block is one slice of it, and
    an empty range gives a graph without edges.
    """
    lo, hi = rows.start, rows.stop
    xs = np.repeat(np.arange(lo, hi), np.diff(g.indptr[lo:hi + 1]))
    ys = g.indices[g.indptr[lo]:g.indptr[hi]]
    keep = ys < cols
    keys = ys[keep] * hi + xs[keep]
    keys.sort()
    return BipartiteGraph._from_keys(cols, hi, keys)


def euclid_factor_decompose(g: BipartiteGraph, eps: float) -> DecompositionTrace:
    """Staged T_{ell,L}-factorization of all but the deleted vertex sets.

    Each copy is a pair of role lists (left, right) that replays
    `run_tree_process` over blocks: stage i extracts one q_i-thrill from the
    copies' anchors on the stationary side and grows every copy by the leaf
    rule of `EuclidSchedule.leaf_anchors`. eps, in (0, 1), only sizes the
    reported budget d0 = 2*eps*n; the greedy itself never consumes it.
    """
    _check_eps(eps)
    return _decompose(g, g.k, g.n, eps)


def _decompose(g: BipartiteGraph, k: int, n: int, eps: float) -> DecompositionTrace:
    """`euclid_factor_decompose` of the k x n prefix of g, run on g itself.

    An X-side stage extracts its thrill from g: its leaf pool is a range of
    rights below n, and the free mask hides every other right. A Y-side
    stage extracts from the transpose of its pool's rows, cut to the rights
    that exist at that stage; the pools of different stages are disjoint
    rows, so all of them together transpose at most g's edges once.
    """
    t = math.gcd(k, n)
    ell, L = k // t, n // t
    sched = euclid_schedule(ell, L)
    r = sched.r
    d0 = 2.0 * eps * n

    deleted: tuple[list[int], list[int]] = ([], [])  # (left, right)
    records: list[StageRecord] = []

    # Stage 1 anchors the first block of its stationary side; start with one
    # single-vertex copy per anchor so every stage runs the same step.
    copies = [([v], []) if sched.grows_right(1) else ([], [v]) for v in range(t)]

    for i in range(1, sched.m + 1):
        grow_right = sched.grows_right(i)
        a, b = (0, 1) if grow_right else (1, 0)  # stationary side, growing side
        qi = sched.q[i - 1]
        fresh_lo, fresh_hi = r[i - 1] * t, r[i + 1] * t
        # At most t*r_i stationary vertices are deleted, so the padding never
        # outgrows the fresh range q_i*r_i*t.
        s_need = qi * len(deleted[a])
        padding = range(fresh_lo, fresh_lo + s_need)
        pool = range(fresh_lo + s_need, fresh_hi)

        anchors = sorted(h for c in copies for h in c[a])
        if grow_right:
            ext = extract_thrill(g, left_set(anchors), right_set(pool), qi, Side.LEFT)
            a_size, b_size = len(ext.A), len(ext.B)
            within = a_size * qi <= d0 and b_size <= d0
        else:
            # The Y-side thrill is the X-side one of the transpose, whose
            # leftovers are the other way round. The anchors are among the
            # r_i*t rights that exist at this stage.
            gt = _transposed_rows(g, pool, r[i] * t)
            ext = extract_thrill(gt, left_set(anchors), right_set(pool), qi, Side.LEFT)
            a_size, b_size = len(ext.B), len(ext.A)
            within = a_size <= qi * d0 and b_size <= d0
        failed, leftover = set(ext.A), ext.B
        fan_of = {f.anchor: f.leaves for f in ext.thrill.fans}
        leaf_anchors = sched.leaf_anchors(i)

        # A copy with a failed anchor is corrupt: it is deleted at once, with
        # the fresh leaves its other anchors claimed, and never grown.
        survivors = []
        corrupt = ([], [])
        for c in copies:
            if failed.isdisjoint(c[a]):
                fans = [iter(fan_of[h]) for h in c[a]]
                c[b].extend([next(fans[j]) for j in leaf_anchors])
                survivors.append(c)
            else:
                corrupt[a].extend(c[a])
                corrupt[b].extend(c[b])
                corrupt[b].extend(y for h in c[a] if h not in failed for y in fan_of[h])
        corrupt_copies = len(copies) - len(survivors)
        copies = survivors
        deleted[0].extend(corrupt[0])
        deleted[1].extend(corrupt[1])
        deleted[b].extend(padding)
        deleted[b].extend(leftover.members)

        # Every active vertex is in a surviving copy or deleted, never both.
        for side, (active, name) in enumerate(zip(sched.shape(i), ("left", "right"))):
            if sum(len(c[side]) for c in copies) + len(deleted[side]) != t * active:
                raise DecompositionInvariantError(f"stage {i}: {name} conservation broken")

        records.append(
            StageRecord(
                index=i,
                anchor_side="X" if grow_right else "Y",
                q=qi,
                s_size=s_need,
                a_size=a_size,
                b_size=b_size,
                corrupt_copies=corrupt_copies,
                corrupt_x=len(corrupt[0]),
                corrupt_y=len(corrupt[1]),
                d_x=len(deleted[0]),
                d_y=len(deleted[1]),
                within_d0=within,
            )
        )

    canon_edges = list(build_euclidean_tree(ell, L).graph.edges())
    factor_copies = tuple(
        TreeCopy(
            left_by_role=tuple(left),
            right_by_role=tuple(right),
            edges=tuple((left[rx], right[ry]) for rx, ry in canon_edges),
        )
        for left, right in copies
    )
    d_x_set = left_set(deleted[0])
    d_y_set = right_set(deleted[1])
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
        factor=TreeFactor(ell=ell, L=L, copies=factor_copies),
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
    # The decomposition of the K x N prefix (g's indices); in case (a) it is
    # the one-stage T_{1,q} instance.
    trace: DecompositionTrace | None = None


def approx_remainder(g: BipartiteGraph, result: ApproxResult) -> BipartiteGraph:
    """Induced subgraph left after the deletions of an ApproxResult.

    Raises ValueError when the deletions empty a side.
    """
    keep_x = left_set(set(range(g.k)) - set(result.x_hat.members))
    keep_y = right_set(set(range(g.n)) - set(result.y_hat.members))
    sub, _, _ = induced_subgraph(g, keep_x, keep_y)
    if sub is None:
        raise ValueError("deletions emptied a side")
    return sub


def _factor_proves_remainder(g: BipartiteGraph, result: ApproxResult) -> bool:
    """Whether result.factor proves that the remainder of g has NMP.

    It does when the canonical T_{ell,L} has NMP (checked once, with its
    certificate validated), the copies hold as many vertices of each side
    as are kept and none that is deleted, and `verify_tree_factor` finds the
    factor valid in g. The copies are then disjoint T_{ell,L} copies made of
    edges of g that partition the remainder, whose sides are in the ratio
    ell:L, and a kept left set S with part S_i in copy T_i has
    |N(S)| >= sum |N_{T_i}(S_i)| >= sum |S_i|*L/ell = |S|*L/ell.
    False sends the caller to a flow on the remainder.
    """
    factor = result.factor
    ell, L = factor.ell, factor.L
    tree = build_euclidean_tree(ell, L).graph
    cert = check_nmp(tree)
    if cert.verdict is not Verdict.HAS_NMP:
        return False
    validate_certificate(tree, cert)
    lefts = [x for c in factor.copies for x in c.left_by_role]
    rights = [y for c in factor.copies for y in c.right_by_role]
    if (len(lefts), len(rights)) != (g.k - len(result.x_hat), g.n - len(result.y_hat)):
        return False
    if not set(result.x_hat).isdisjoint(lefts) or not set(result.y_hat).isdisjoint(rights):
        return False
    return verify_tree_factor(g, factor, ell, L, require_spanning=False).ok


def approx_nmp(g: BipartiteGraph, eps: float, mode: str = "auto") -> ApproxResult:
    """Delete small vertex sets so that the rest of the graph has NMP.

    Case selection: (a) when n > k/sqrt(eps), else (b); `mode` can force
    either. Both cases run the staged factorization of
    `euclid_factor_decompose` on the K x N prefix of g, in place: no prefix
    graph is built, and only the Y-side stages' own blocks are transposed.
    Arbitrary choices are fixed deterministically: deletions to hit
    target sizes take the highest indices, padding sets take the lowest.
    When the deletions empty a side, the result is returned unverified.

    `remainder_nmp_verified` is proved, as in the paper, by the factor:
    `verify_tree_factor` finds its T_{ell,L} copies disjoint and made of
    edges of g, a cover check finds that they hold exactly the kept
    vertices, and T_{ell,L} has NMP. Only when that proof fails is NMP of
    the remainder decided by `check_nmp` on it; the flag is the same either
    way.
    """
    _check_eps(eps)
    if mode not in ("auto", "a", "b"):
        raise ValueError(f"unknown mode {mode!r}")
    k, n = g.k, g.n
    case = mode
    if mode == "auto":
        case = "a" if n > k / math.sqrt(eps) else "b"

    if case == "a":
        q = n // k
        if q < 1:
            raise ValueError("case (a) needs n >= k")
        big_k, big_n = k, q * k
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

    # The decomposition of the K x N prefix runs on g and keeps its indices,
    # so the trace's deletions and factor need no remapping; the trimmed
    # suffixes join the deletions.
    trace = _decompose(g, big_k, big_n, eps)
    case_b = None
    if case == "b":
        case_b = CaseBParams(alpha=alpha, eta=eta, K=big_k, N=big_n, ell=trace.ell, L=trace.L)
    x_hat = left_set(list(range(big_k, k)) + list(trace.D_X))
    y_hat = right_set(list(range(big_n, n)) + list(trace.D_Y))
    result = ApproxResult(
        x_hat=x_hat,
        y_hat=y_hat,
        fraction_x=len(x_hat) / k,
        fraction_y=len(y_hat) / n,
        case=case,
        remainder_nmp_verified=False,
        factor=trace.factor,
        case_b=case_b,
        trace=trace,
    )

    if len(x_hat) == k or len(y_hat) == n:
        return result  # the deletions emptied a side: no remainder to check
    verified = (
        _factor_proves_remainder(g, result)
        or check_nmp(approx_remainder(g, result)).verdict is Verdict.HAS_NMP
    )
    return dataclasses.replace(result, remainder_nmp_verified=verified)
