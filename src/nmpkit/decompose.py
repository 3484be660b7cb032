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
from bisect import bisect_left
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
    _ids,
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


def _greedy_thrill(
    g: BipartiteGraph, anchors: np.ndarray, pool: np.ndarray, q: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The greedy of `extract_thrill` on left anchors and a right leaf pool,
    both sorted int64 arrays: (the anchors that got a fan, their (fans, q)
    leaf matrix, the failed anchors, the pool's leftover), as int64 arrays.

    Low leaves go first, so the claimed ones pile up at the bottom of the
    pool. Each anchor therefore starts at the lowest free leaf, found by a
    bisection of its sorted row, and reads the row from there through a
    memoryview up to its q-th free leaf: a few entries per anchor, no
    per-anchor numpy call, and no Python object per fan.
    """
    # free[g.n] is a sentinel past the pool that no row holds.
    free = bytearray(g.n + 1)
    np.frombuffer(free, dtype=bool)[pool] = True
    free[g.n] = 1
    ids = pool.tolist() + [g.n]
    lowest = 0
    ptr = g.indptr.tolist()
    row = memoryview(np.ascontiguousarray(g.indices, dtype=np.int64))
    fanned: list[int] = []
    leaves: list[int] = []
    failed: list[int] = []
    for a in anchors.tolist():
        while not free[ids[lowest]]:
            lowest += 1
        stop = ptr[a + 1]
        start = bisect_left(row, ids[lowest], ptr[a], stop)
        picked = []
        for y in row[start:stop]:
            if free[y]:
                picked.append(y)
                if len(picked) == q:
                    break
        if len(picked) == q:
            for y in picked:
                free[y] = 0
            fanned.append(a)
            leaves.extend(picked)
        else:
            failed.append(a)
    return (
        np.array(fanned, dtype=np.int64),
        np.array(leaves, dtype=np.int64).reshape(len(fanned), q),
        np.array(failed, dtype=np.int64),
        pool[np.frombuffer(free, dtype=bool)[pool]],
    )


def extract_thrill(
    g: BipartiteGraph, u: VertexSet, v: VertexSet, q: int, side: Side
) -> ThrillExtraction:
    """Maximal q-thrill by greedy: anchors in ascending index order, each
    claiming its q lowest-index unused neighbors; anchors that cannot are
    skipped for good (availability only shrinks, so one pass is maximal).

    The Y side is the X side of g.swap_sides(), with anchors v and leaf pool
    u; its two leftovers are then exchanged, so A stays the left one. The
    greedy is `_greedy_thrill`, whose arrays are wrapped here in Fan and
    Thrill objects and checked by Thrill.validate.
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

    fanned, fan_leaves, failed, leftover = _greedy_thrill(g, _ids(anchors), _ids(leaves), q)
    fans = tuple(
        Fan(anchor_side=side, anchor=a, leaves=tuple(ys))
        for a, ys in zip(fanned.tolist(), fan_leaves.tolist())
    )
    thrill = Thrill(side=side, q=q, fans=fans)
    thrill.validate()
    failed, leftover = failed.tolist(), leftover.tolist()
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

    The copies are two int64 role matrices, one row per copy (left roles,
    right roles), that replay `run_tree_process` over blocks: stage i
    extracts one q_i-thrill from the copies' anchors on the stationary side
    and grows every copy by the leaf rule of `EuclidSchedule.leaf_anchors`.
    eps, in (0, 1), only sizes the reported budget d0 = 2*eps*n; the greedy
    itself never consumes it.
    """
    _check_eps(eps)
    return _decompose(g, g.k, g.n, eps)


def _check_thrill(i: int, fanned: np.ndarray, leaves: np.ndarray, q: int) -> None:
    """The thrill of stage i has q leaves per fan, distinct anchors and
    distinct leaves, or the copies it grows would not be trees."""
    if leaves.shape != (len(fanned), q):
        raise DecompositionInvariantError(
            f"stage {i}: fan leaves of shape {leaves.shape}, not {(len(fanned), q)}"
        )
    for name, ids in (("anchor", fanned), ("leaf", leaves)):
        ids = np.sort(ids, axis=None)
        reused = ids[1:][ids[1:] == ids[:-1]]
        if len(reused):
            raise DecompositionInvariantError(f"stage {i}: {name} {reused[0]} reused")


def _decompose(g: BipartiteGraph, k: int, n: int, eps: float) -> DecompositionTrace:
    """`euclid_factor_decompose` of the k x n prefix of g, run on g itself.

    roles[side] holds one row per surviving copy: the host vertex of each
    of that side's roles. An X-side stage extracts its thrill from g: its
    leaf pool is a range of rights below n, and the greedy reads no right
    outside it. A Y-side stage extracts from the transpose of its pool's
    rows, cut to the rights that exist at that stage; the pools of
    different stages are disjoint rows, so all of them together transpose
    at most g's edges once. A stage then drops the corrupt copies' rows by
    one mask and appends the fans' leaves to the growing side's roles by
    one gather, transpose and reshape.
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
    first = np.arange(t, dtype=np.int64).reshape(t, 1)
    empty = np.empty((t, 0), dtype=np.int64)
    roles = [first, empty] if sched.grows_right(1) else [empty, first]

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

        # The Y-side thrill is the X-side one of the transpose, whose anchors
        # are among the r_i*t rights that exist at this stage.
        h = g if grow_right else _transposed_rows(g, pool, r[i] * t)
        stat = roles[a]
        fanned, leaves, failed, leftover = _greedy_thrill(
            h, np.sort(stat, axis=None), np.arange(pool.start, pool.stop, dtype=np.int64), qi
        )
        _check_thrill(i, fanned, leaves, qi)
        if grow_right:
            a_size, b_size = len(failed), len(leftover)
            within = a_size * qi <= d0 and b_size <= d0
        else:
            a_size, b_size = len(leftover), len(failed)
            within = a_size <= qi * d0 and b_size <= d0

        # fan[c, j] is the thrill row of copy c's stationary role j, -1 for a
        # failed anchor. A copy with a failed anchor is corrupt: it is deleted
        # at once, with the fresh leaves its other anchors claimed, and never
        # grown.
        fan_row = np.full(h.k, -1, dtype=np.int64)
        fan_row[fanned] = np.arange(len(fanned))
        fan = fan_row[stat]
        keep = (fan >= 0).all(axis=1)
        claimed = fan[~keep]
        corrupt: list[list[int]] = [[], []]
        corrupt[a] = stat[~keep].ravel().tolist()
        corrupt[b] = roles[b][~keep].ravel().tolist() + leaves[claimed[claimed >= 0]].ravel().tolist()
        # New leaf s takes growing role r_{i-1} + s and hangs off stationary
        # role s mod r_i (EuclidSchedule.leaf_anchors), as leaf s // r_i of
        # that role's fan: the (copies, r_i, q_i) block of fan leaves,
        # transposed to (copies, q_i, r_i).
        grown = leaves[fan[keep]].transpose(0, 2, 1).reshape(-1, qi * r[i])
        roles[a] = stat[keep]
        roles[b] = np.concatenate((roles[b][keep], grown), axis=1)
        deleted[0].extend(corrupt[0])
        deleted[1].extend(corrupt[1])
        deleted[b].extend(padding)
        deleted[b].extend(leftover.tolist())

        # Every active vertex is in a surviving copy or deleted, never both.
        for side, (active, name) in enumerate(zip(sched.shape(i), ("left", "right"))):
            if roles[side].size + len(deleted[side]) != t * active:
                raise DecompositionInvariantError(f"stage {i}: {name} conservation broken")

        records.append(
            StageRecord(
                index=i,
                anchor_side="X" if grow_right else "Y",
                q=qi,
                s_size=s_need,
                a_size=a_size,
                b_size=b_size,
                corrupt_copies=int(np.count_nonzero(~keep)),
                corrupt_x=len(corrupt[0]),
                corrupt_y=len(corrupt[1]),
                d_x=len(deleted[0]),
                d_y=len(deleted[1]),
                within_d0=within,
            )
        )

    lefts, rights = roles
    canon_x, canon_y = build_euclidean_tree(ell, L).graph.edge_arrays()
    edges = np.stack((lefts[:, canon_x], rights[:, canon_y]), axis=2)
    factor_copies = tuple(
        TreeCopy(left_by_role=tuple(left), right_by_role=tuple(right), edges=tuple(map(tuple, pairs)))
        for left, right, pairs in zip(lefts.tolist(), rights.tolist(), edges.tolist())
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
