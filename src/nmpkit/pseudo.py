"""Graph generators and pseudorandomness checks.

A bipartite graph G(X, Y) with |X| = k <= n = |Y| is Thomason pseudorandom
with parameters (p, eps) when every left degree is at least p*n and every
pair of distinct left vertices has at most (1 + eps) * p^2 * n common
neighbors. Verification is an exact scan: parameters are held as rationals
and all comparisons are done with exact arithmetic, so there is no float
boundary flakiness.

Codegrees are the off-diagonal of the Gram matrix A A^T of the k x n 0/1
incidence matrix A, computed in row blocks by numpy's BLAS matrix product.
The float product is still exact: each codegree is a sum of at most n ones,
so every partial sum is an integer no larger than n, and float32 holds every
integer below 2^24 exactly (float64 is used from n = 2^24 on). A sparse
graph's codegrees are instead counted pair by pair from the right-side
lists, in integers: one stable radix argsort of the right ends gives those
lists, its inverse gives each block of left vertices its positions in them
as one slice, and each block's counts fit in L2. The mixing audit counts
e(A, B) on the edge list, 32 samples per pass, with one bit per sample in a
uint32 word. On large enough graphs, the pair count's blocks of lefts and
the audit's blocks of samples run on threads, one per usable CPU, started
and joined in the call.

Generators: seeded G(k, n, p), sum-Cayley graphs over a prime field, and
point-line incidences of the projective plane PG(2, q). A sampled mixing
audit evaluates the degree/codegree mixing inequality (or the spectral
sum-Cayley form) on random subset pairs; for genuinely pseudorandom inputs
it must report zero violations. `robust_delete` removes a random right-side
slab plus the left vertices it overloads, leaving a graph that is again
pseudorandom with explicitly degraded parameters.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graph import (
    BipartiteGraph,
    VertexSet,
    _check_sizes,
    _ranges,
    edge_count_between,
    induced_subgraph,
    left_set,
    right_set,
)
from ._threads import run_blocks
from .rng import _GOLDEN, _MASK, SplitMix64, _sample_masks, _seed64, _u64_blocks, derive_seed


@dataclass(frozen=True)
class PseudoParams:
    p: Fraction
    eps: Fraction

    def __post_init__(self):
        object.__setattr__(self, "p", Fraction(self.p))
        object.__setattr__(self, "eps", Fraction(self.eps))
        if not 0 < self.p <= 1:
            raise ValueError(f"p must be in (0, 1], got {self.p}")
        if self.eps < 0:
            raise ValueError(f"eps must be nonnegative, got {self.eps}")

    @property
    def eps_in_definition_range(self) -> bool:
        # Values eps >= 1 are allowed in reports but flagged.
        return self.eps < 1


@dataclass(frozen=True)
class PseudoReport:
    params: PseudoParams
    min_left_degree: int
    max_codegree: int
    passed: bool
    violating_vertex: int | None = None
    violating_pair: tuple[int, int] | None = None
    estimated: PseudoParams | None = None


# A codegree is a sum of at most n products of 0/1 entries, so float32
# accumulates it exactly while n < 2**24 (its 24-bit significand).
_F32_EXACT_BELOW = 2 ** 24
# Rows per Gram block: the block's product is _SCAN_ROWS x k.
_SCAN_ROWS = 256
# Counts per pair-count block, the block's left rows times k: 2^17 int64
# counts are 1 MB, so a block's bincount stays in a 2 MB L2.
_PAIR_BINS = 1 << 17
# The pair count replaces the Gram scan when the graph has at most
# k*k*n / _PAIR_RATIO codegree pairs (see _codegrees).
_PAIR_RATIO = 1536
# Samples per mixing-audit block: one bit each in a uint32 word per edge.
_AUDIT_ROWS = 32
_AUDIT_BITS = np.arange(_AUDIT_ROWS, dtype=np.uint32)


def _incidence(g: BipartiteGraph) -> np.ndarray:
    """The k x n 0/1 matrix in the narrowest float dtype that counts exactly."""
    a = np.zeros((g.k, g.n), dtype=np.float32 if g.n < _F32_EXACT_BELOW else np.float64)
    xs, ys = g.edge_arrays()
    a[xs, ys] = 1
    return a


def _codegree_scan(a: np.ndarray) -> tuple[int, np.ndarray]:
    """Max codegree over left pairs, plus per-row max (row i vs rows > i),
    of the graph whose `_incidence` is a.

    Codegrees are the off-diagonal of the Gram matrix a @ a.T. Each block of
    rows is multiplied only against itself and the rows after it, and the
    block's own entries with j <= i are masked out before the row max.
    """
    k = len(a)
    row_max = np.zeros(k, dtype=np.int64)
    for s in range(0, k - 1, _SCAN_ROWS):
        e = min(s + _SCAN_ROWS, k - 1)
        c = a[s:e] @ a[s:].T
        c[:, :e - s][np.tri(e - s, dtype=bool)] = -1
        row_max[s:e] = c.max(axis=1)
    return int(row_max.max()) if k >= 2 else 0, row_max


def _pair_scan(g: BipartiteGraph, d: np.ndarray | None = None) -> tuple[int, np.ndarray]:
    """_codegree_scan's result, from the pairs u < v of every N(y); d is the
    right-degree bincount of g.indices when the caller has it.

    One stable argsort of g.indices, in the narrowest unsigned dtype that
    holds n - 1 (numpy radix-sorts 8- and 16-bit keys), lists each N(y) in
    increasing order: lefts[j] is the left end of sorted entry j. Its inverse
    inv maps CSR entry j to the position after it in its list, so the
    partners v > u of the edge (u, y) are lefts[inv[j]:end of N(y)], and the
    lefts [s, e) find theirs through inv[indptr[s]:indptr[e]], with no search
    over all edges. Each block's (u, v) pairs are keys (u - s)*k + v, counted
    by np.bincount in at most max(_PAIR_BINS, k) counts, which stay in L2.
    The work is integer and grows with the number of pairs, sum over y of
    C(deg y, 2), not with k*k*n. On a 2-vCPU VM with 2 MB of L2 per core,
    best of 11, PG(2, 47) took 32 ms in one thread, against 55 ms when each
    block searched all E entries for its lefts and counted in 2^20 bins.
    From _threads._MIN_WORK pairs up, the blocks run on every usable CPU
    (_threads.run_blocks), each writing only its own rows of row_max; the
    arrays they share are built first.
    """
    k, n = g.k, g.n
    if d is None:
        d = np.bincount(g.indices, minlength=n)
    order = np.argsort(g.indices.astype(np.min_scalar_type(n - 1)), kind="stable")
    xs, _ = g.edge_arrays()
    lefts = xs[order]
    inv = np.empty_like(order)
    inv[order] = np.arange(1, len(order) + 1)
    rest = np.cumsum(d)[g.indices] - inv
    rows = max(1, _PAIR_BINS // k)
    row_max = np.zeros(k, dtype=np.int64)

    def count(s: int) -> None:
        e = min(s + rows, k - 1)
        a, b = g.indptr[s], g.indptr[e]
        lens = rest[a:b]
        keys = lefts[_ranges(inv[a:b], lens)]
        keys += np.repeat((xs[a:b] - s) * k, lens)
        counts = np.bincount(keys, minlength=(e - s) * k)
        row_max[s:e] = counts.reshape(e - s, k).max(axis=1)

    run_blocks(count, range(0, k - 1, rows), int(rest.sum()))  # work: the pairs
    return int(row_max.max()) if k >= 2 else 0, row_max


def _codegrees(g: BipartiteGraph) -> tuple[int, np.ndarray]:
    """_codegree_scan's result, by whichever scan costs less on g.

    The Gram scan does k*k*n/2 multiply-adds in BLAS, the pair count one
    bincount key per codegree pair. On a 2-vCPU VM (2 MB L2 per core), with
    BLAS on both CPUs, best of 11 calls, Gram (incidence build included)
    and pairs took: G(2000, 2000, 1/24) at k*k*n / pairs = 1150, 69 and
    100 ms; G(1200, 1200, 1/24) at 1158, 19 and 20 ms; G(1200, 1200, 1/26)
    at 1365, 18 and 18 ms; G(2000, 2000, 1/28) at 1572, 73 and 62 ms;
    PG(2, 31) at 1988, 12 and 6 ms; G(1200, 1200, 1/32) at 2055, 18 and
    12 ms; PG(2, 47) at 4516, 99 and 32 ms. The Gram scan's time also
    spreads far more from call to call when the second CPU is busy. So the
    pair count is used up to k*k*n / _PAIR_RATIO pairs, with _PAIR_RATIO
    between the last ratio the Gram scan won and the first the pairs won:
    for G(k, n, p) up to about p = 1/28, for PG(2, q) from q = 29 on.
    """
    d = np.bincount(g.indices, minlength=g.n)
    if int((d * (d - 1) // 2).sum()) * _PAIR_RATIO <= g.k * g.k * g.n:
        return _pair_scan(g, d)
    return _codegree_scan(_incidence(g))


def _estimate(n: int, min_deg: int, max_cod: int) -> PseudoParams | None:
    """Tightest (p, eps) for a graph with n right vertices, least left degree
    min_deg and largest codegree max_cod; None when min_deg is 0."""
    if min_deg < 1:
        return None
    p = Fraction(min_deg, n)
    eps = max(Fraction(0), Fraction(max_cod * n, min_deg * min_deg) - 1)
    return PseudoParams(p=p, eps=eps)


def verify_thomason(g: BipartiteGraph, params: PseudoParams) -> PseudoReport:
    """Exact degree/codegree scan against (p, eps).

    The report's `estimated` is estimate_thomason_params(g), from the same
    scan, or None when a left vertex is isolated.
    """
    if g.k < 2:
        raise ValueError("pseudorandomness verification requires k >= 2")
    return _thomason_report(g, params, _codegrees(g))


def _thomason_report(g: BipartiteGraph, params: PseudoParams, scan: tuple[int, np.ndarray]) -> PseudoReport:
    """verify_thomason's report, given _codegrees(g)."""
    degs = np.diff(g.indptr)
    min_deg = int(degs.min())
    deg_bound = params.p * g.n
    violating_vertex = None
    if min_deg < deg_bound:
        violating_vertex = int(np.argmax(degs < math.ceil(deg_bound)))

    max_cod, row_max = scan
    cod_bound = (1 + params.eps) * params.p * params.p * g.n
    violating_pair = None
    if max_cod > cod_bound:
        # Integer codegrees exceed the rational bound exactly when they
        # exceed its floor.
        limit = math.floor(cod_bound)
        u = int(np.argmax(row_max > limit))
        ys = g.neighbors(u)
        h = g.swap_sides()
        starts = h.indptr[ys]
        cod_u = np.bincount(h.indices[_ranges(starts, h.indptr[ys + 1] - starts)], minlength=g.k)
        v = u + 1 + int(np.argmax(cod_u[u + 1:] > limit))
        violating_pair = (u, v)
    passed = violating_vertex is None and violating_pair is None
    return PseudoReport(
        params=params,
        min_left_degree=min_deg,
        max_codegree=max_cod,
        passed=passed,
        violating_vertex=violating_vertex,
        violating_pair=violating_pair,
        estimated=_estimate(g.n, min_deg, max_cod),
    )


def estimate_thomason_params(g: BipartiteGraph) -> PseudoParams:
    """Tightest (p, eps) the graph itself supports; always verifies."""
    return _estimate_scan(g)[0]


def _estimate_scan(g: BipartiteGraph) -> tuple[PseudoParams, tuple[int, np.ndarray]]:
    """estimate_thomason_params(g), with the _codegrees(g) it came from, for
    _thomason_report."""
    if g.k < 2:
        raise ValueError("parameter estimation requires k >= 2")
    min_deg = int(np.diff(g.indptr).min())
    if min_deg < 1:
        raise ValueError("graph has an isolated left vertex; p would be 0")
    scan = _codegrees(g)
    return _estimate(g.n, min_deg, scan[0]), scan


# Stream outputs per block in gen_gnp: its two uint64 buffers hold 128 KB
# each whatever k*n is. At 2^15 (256 KB each) freeing them let the C heap
# hand the pages back after every call, and the next call faulted about a
# hundred pages in again.
_GNP_BLOCK = 1 << 14


def gen_gnp(k: int, n: int, p: float, seed: int) -> BipartiteGraph:
    """G(k, n, p): each of the k*n pairs is an edge independently.

    Pair (x, y) uses uniform number x*n + y of the splitmix64 stream, so the
    graph is a pure function of (k, n, p, seed). The uniform of output v is
    (v >> 11) * 2^-53, which is below p exactly when v < ceil(p * 2^53) * 2^11,
    because p * 2^53 is exact and v >> 11 is an integer; so the raw outputs
    are compared with that integer, and the passing indices are the edge
    keys x*n + y in increasing order.
    """
    if not 0 <= p <= 1:
        raise ValueError(f"p must be in [0, 1], got {p}")
    _check_sizes(k, n)
    seed = _seed64(seed)
    bound = math.ceil(p * 2 ** 53) << 11
    if bound == 2 ** 64:  # p = 1: every output is below
        keys = np.arange(k * n)
    else:
        bound = np.uint64(bound)
        keys = np.concatenate([
            np.flatnonzero(block < bound) + start
            for start, block in _u64_blocks(seed, k * n, _GNP_BLOCK)
        ])
    return BipartiteGraph._from_keys(k, n, keys)


# Entries per block of gen_sum_cayley's and gen_pg2's incidence tests. A
# block takes max(1, _GEN_BLOCK // n) rows, so its temporaries hold about
# _GEN_BLOCK entries (n for a one-row block), and a generator's peak memory
# is about that plus its edge keys, not the dense k x n test.
_GEN_BLOCK = 1 << 19


def _graph_by_row_blocks(k: int, n: int, block) -> BipartiteGraph:
    """The k x n graph whose rows are the True entries of the boolean
    arrays block(slice(s, s + step)), for s = 0, step, 2*step, ... below k
    and step = max(1, _GEN_BLOCK // n); the last block may be short.

    np.nonzero lists each block's entries in row-major order, so the keys
    (row + s)*n + col come out strictly increasing, as _from_keys takes them.
    """
    step = max(1, _GEN_BLOCK // n)
    keys = []
    for s in range(0, k, step):
        rows, cols = np.nonzero(block(slice(s, s + step)))
        keys.append((rows + s) * n + cols)
    return BipartiteGraph._from_keys(k, n, np.concatenate(keys))


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    if q % 2 == 0:
        return q == 2
    f = 3
    while f * f <= q:
        if q % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class SumCayleyGraph:
    graph: BipartiteGraph
    q: int
    d: int
    h: tuple[int, ...]           # the subgroup: d-th power residues
    x_elements: tuple[int, ...]  # field element of each left vertex
    y_elements: tuple[int, ...]


def gen_sum_cayley(
    q: int,
    d: int,
    x_spec: str | list[int] = "all",
    y_spec: str | list[int] = "all",
) -> SumCayleyGraph:
    """Bipartite sum-Cayley graph: (x, y) is an edge iff x + y is in H.

    H is the unique multiplicative subgroup of order (q-1)/d, i.e. the set
    of d-th power residues mod the prime q. The sums are tested in blocks
    of left vertices (_graph_by_row_blocks), so no |X| x |Y| array is
    built.
    """
    if not _is_prime(q):
        raise ValueError(f"q = {q} is not prime")
    if d < 1 or (q - 1) % d != 0:
        raise ValueError(f"d = {d} does not divide q - 1 = {q - 1}")

    def resolve(spec: str | list[int], name: str) -> tuple[int, ...]:
        if spec == "all":
            return tuple(range(q))
        elems = tuple(sorted(set(spec)))
        if len(elems) != len(spec):
            raise ValueError(f"{name} subset has repeated elements")
        if not elems:
            raise ValueError(f"{name} subset is empty")
        if elems[0] < 0 or elems[-1] >= q:
            raise ValueError(f"{name} subset has elements outside F_{q}")
        return elems

    xs = resolve(x_spec, "X")
    ys = resolve(y_spec, "Y")
    h = sorted({pow(v, d, q) for v in range(1, q)})
    in_h = np.zeros(q, dtype=bool)
    in_h[h] = True
    xa, ya = np.array(xs), np.array(ys)

    def block(rows: slice) -> np.ndarray:
        sums = np.add.outer(xa[rows], ya)
        sums %= q
        return in_h[sums]

    return SumCayleyGraph(
        graph=_graph_by_row_blocks(len(xs), len(ys), block),
        q=q,
        d=d,
        h=tuple(h),
        x_elements=xs,
        y_elements=ys,
    )


def gen_pg2(q: int) -> BipartiteGraph:
    """Point-line incidence graph of the projective plane PG(2, q), q prime.

    Both sides have q^2 + q + 1 vertices; every degree is q + 1 and every
    pair of distinct points lies on exactly one common line. Point u lies on
    line v when their representatives have dot product 0 mod q; the products
    are taken in blocks of points (_graph_by_row_blocks), so no
    point-by-line array is built. At q = 101 (1.05M edges) tracemalloc's
    peak is about 25 MB, against 1.6 GB for the whole product.
    """
    if not _is_prime(q):
        raise ValueError(f"q = {q} is not prime")
    reps = [(0, 0, 1)]
    reps += [(0, 1, c) for c in range(q)]
    reps += [(1, b, c) for b in range(q) for c in range(q)]
    pts = np.array(reps, dtype=np.int64)

    def block(rows: slice) -> np.ndarray:
        dots = pts[rows] @ pts.T
        dots %= q
        return dots == 0

    return _graph_by_row_blocks(len(pts), len(pts), block)


@dataclass(frozen=True)
class MixingAudit:
    form: str
    samples: int
    violations: int
    worst_margin: float              # min over samples of bound - |deviation|
    worst_pair_sizes: tuple[int, int]


def mixing_deviation(
    g: BipartiteGraph,
    a: VertexSet,
    b: VertexSet,
    params: PseudoParams | None = None,
    form: str = "thomason",
    h_size: int | None = None,
    q: int | None = None,
) -> tuple[bool, float, float]:
    """Evaluate one mixing inequality exactly.

    thomason:      |e(A,B) - p*a*b|        <= sqrt(p*n*a*b*(1 + eps*p*a))
    alon_bourgain: |e(A,B) - a*b*h_size/q| <  sqrt(q*a*b)

    Returns (holds, |deviation|, bound) with the last two as floats for
    reporting; the comparison itself is done on exact squares.
    """
    e = edge_count_between(g, a, b)
    return _mixing_check(e, len(a), len(b), g.n, params, form, h_size, q)


def _mixing_check(
    e: int,
    asz: int,
    bsz: int,
    n: int,
    params: PseudoParams | None,
    form: str,
    h_size: int | None,
    q: int | None,
) -> tuple[bool, float, float]:
    """mixing_deviation given e(A, B) = e, |A| = asz, |B| = bsz.

    The rationals are kept as integer numerators over integer denominators:
    with p = P/Q and eps = En/Ed, the thomason deviation is (e*Q - P*a*b)/Q
    and its squared bound P*n*a*b*(Q*Ed + En*P*a) / (Q*Q*Ed), so the
    comparison cross-multiplies by Q*Q*Ed > 0 (alon_bourgain: by q*q). Each
    float is one int / int division, which Python rounds correctly, as
    float() of the reduced Fraction is; so the floats are the same either
    way, with no Fraction built per sample.
    """
    if form == "thomason":
        if params is None:
            raise ValueError("thomason form needs params")
        p_num, p_den = params.p.numerator, params.p.denominator
        e_num, e_den = params.eps.numerator, params.eps.denominator
        dev_num, den = e * p_den - p_num * asz * bsz, p_den
        bound_num = p_num * n * asz * bsz * (p_den * e_den + e_num * p_num * asz)
        bound_den = p_den * p_den * e_den
        holds = dev_num * dev_num * e_den <= bound_num
    elif form == "alon_bourgain":
        if h_size is None or q is None:
            raise ValueError("alon_bourgain form needs h_size and q")
        q = operator.index(q)
        dev_num, den = e * q - asz * bsz * operator.index(h_size), q
        bound_num, bound_den = q * asz * bsz, 1
        holds = dev_num * dev_num < bound_num * q * q
    else:
        raise ValueError(f"unknown bound form {form!r}")
    return holds, abs(dev_num / den), math.sqrt(bound_num / bound_den)


def _block_edge_counts(
    xs: np.ndarray, ys: np.ndarray, in_a: np.ndarray, in_b: np.ndarray
) -> list[int]:
    """e(A_t, B_t) for every row t of the left masks in_a and right masks
    in_b (at most _AUDIT_ROWS rows), on the edges (xs[i], ys[i]).

    Sample t is bit t of a uint32 word per vertex; an edge's word ANDs its
    ends' words, and e(A_t, B_t) counts the edges whose word has bit t.
    Integer work in one thread, so the count is exact and its time does not
    depend on a BLAS thread pool.
    """
    bits = _AUDIT_BITS[:len(in_a), None]
    words = np.bitwise_or.reduce(in_a.astype(np.uint32) << bits, axis=0)[xs]
    words &= np.bitwise_or.reduce(in_b.astype(np.uint32) << bits, axis=0)[ys]
    hit = np.empty_like(words)
    return [
        int(np.count_nonzero(np.bitwise_and(words, np.uint32(1) << t, out=hit)))
        for t in bits.ravel()
    ]


def mixing_audit(
    g: BipartiteGraph,
    params: PseudoParams | None,
    samples: int,
    seed: int,
    form: str = "thomason",
    h_size: int | None = None,
    q: int | None = None,
) -> MixingAudit:
    """Sampled refutation tool for the mixing inequality.

    Subset sizes are uniform over their valid ranges and members are drawn
    without replacement, one derived stream per sample: sample t reads
    SplitMix64(derive_seed(seed, t)), whose output 1 gives |A| (randbelow
    over the valid range), output 2 gives |B|, the next |A| outputs draw A
    and the next |B| draw B (SplitMix64.sample). For the thomason form
    |A| >= ceil(1/p) is enforced and (g, params) must verify first.

    Samples go in blocks of _AUDIT_ROWS: the block's A and B draws are
    resolved together by rng._sample_masks, and every e(A_t, B_t) is counted
    in one pass over the edge list by _block_edge_counts. When a block
    touches _threads._MIN_WORK elements or more, the blocks run on every
    usable CPU (_threads.run_blocks); the calling thread then checks the
    samples in order, so the result does not depend on the CPU count.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    k, n = g.k, g.n
    if form == "thomason":
        if params is None:
            raise ValueError("thomason form needs params")
        if not verify_thomason(g, params).passed:
            raise ValueError("graph does not verify the claimed parameters")
        a_min = math.ceil(1 / params.p)
        if a_min > k:
            raise ValueError(f"no valid subset size: ceil(1/p) = {a_min} > k = {k}")
    elif form == "alon_bourgain":
        a_min = 1
    else:
        raise ValueError(f"unknown bound form {form!r}")

    xs, ys = g.edge_arrays()

    def count(lo: int) -> tuple[list[int], list[int], list[int]]:
        """e(A_t, B_t), |A_t| and |B_t| for the samples t of the block at lo."""
        starts, asz, bsz = [], [], []
        for t in range(lo, min(lo + _AUDIT_ROWS, samples)):
            rng = SplitMix64(derive_seed(seed, t))
            asz.append(a_min + rng.randbelow(k - a_min + 1))
            bsz.append(1 + rng.randbelow(n))
            starts.append(rng.state)
        starts += [(s + sa * _GOLDEN) & _MASK for s, sa in zip(starts, asz)]
        rows = len(asz)
        masks = _sample_masks(starts, [k] * rows + [n] * rows, asz + bsz)
        in_a = masks[:rows * k].reshape(rows, k)
        in_b = masks[rows * k:].reshape(rows, n)
        return _block_edge_counts(xs, ys, in_a, in_b), asz, bsz

    violations = 0
    worst_margin = math.inf
    worst_sizes = (0, 0)
    # Work: the elements one block touches. The samples' Python work takes
    # turns on the GIL, so what pays for threads is the size of each block,
    # not the number of blocks.
    blocks = run_blocks(count, range(0, samples, _AUDIT_ROWS), _AUDIT_ROWS * (k + n + len(xs)))
    for edges, asz, bsz in blocks:
        for e, sa, sb in zip(edges, asz, bsz):
            holds, dev, bound = _mixing_check(e, sa, sb, n, params, form, h_size, q)
            if not holds:
                violations += 1
            margin = bound - dev
            if margin < worst_margin:
                worst_margin = margin
                worst_sizes = (sa, sb)
    return MixingAudit(
        form=form,
        samples=samples,
        violations=violations,
        worst_margin=worst_margin,
        worst_pair_sizes=worst_sizes,
    )


@dataclass(frozen=True)
class RobustDeleteResult:
    c_x: VertexSet
    c_y: VertexSet
    p1: Fraction
    eps1: Fraction
    attempts: int
    threshold_t: float
    bad_bound: float        # accepted when |C_X| <= bad_bound = 2k*exp(-2t^2 D)
    reverify: PseudoReport  # induced subgraph checked against (p1, eps1)


def robust_delete(
    g: BipartiteGraph,
    p0: Fraction | float,
    eps0: Fraction | float,
    eps: float,
    d_size: int,
    seed: int,
    max_attempts: int = 100,
) -> RobustDeleteResult:
    """Delete a random D-subset of Y and the left vertices it overloads.

    A left vertex u is bad for the sampled T when |N(u) & T| >= (d(u)/n + t)*D
    with t = eps * p0 * (n/D - 1). The first T whose bad set is within the
    expectation bound 2k*exp(-2 t^2 D) is kept (resampling with derived
    streams; in expectation the first attempt already works). The survivor
    graph is re-verified with p1 = p0*(1 - eps), eps1 = 5*(eps0 + 3*eps).
    """
    params0 = PseudoParams(p0, eps0)
    if not verify_thomason(g, params0).passed:
        raise ValueError("graph does not verify the claimed (p0, eps0)")
    k, n = g.k, g.n
    if params0.p * params0.p * k < 1:
        raise ValueError(f"needs p0 >= 1/sqrt(k); got p0 = {float(params0.p):.6g}, k = {k}")
    if not 0 < eps < 0.5:
        raise ValueError(f"eps must lie in (0, 1/2), got {eps}")
    alpha = eps ** 3
    lo, hi = math.ceil(alpha * n / 2), math.floor(alpha * n)
    if not lo <= d_size <= hi:
        raise ValueError(f"D = {d_size} outside [ceil(alpha*n/2), floor(alpha*n)] = [{lo}, {hi}]")

    t = eps * float(params0.p) * (n / d_size - 1)
    bad_bound = 2 * k * math.exp(-2 * t * t * d_size)
    rows, _ = g.edge_arrays()
    limits = (np.diff(g.indptr) / n + t) * d_size
    for attempt in range(max_attempts):
        # T is SplitMix64(derive_seed(seed, attempt)).sample(n, D), as a mask.
        in_t = _sample_masks([derive_seed(seed, attempt)], [n], [d_size])
        # |N(u) & T| for every left u: the rows of the edges that end in T.
        bad = np.bincount(rows[in_t[g.indices]], minlength=k) >= limits
        if np.count_nonzero(bad) <= bad_bound:
            c_x = left_set(np.flatnonzero(bad).tolist())
            c_y = right_set(np.flatnonzero(in_t).tolist())
            p1 = params0.p * (1 - Fraction(eps))
            eps1 = 5 * (params0.eps + 3 * Fraction(eps))
            keep_x = left_set(np.flatnonzero(~bad).tolist())
            keep_y = right_set(np.flatnonzero(~in_t).tolist())
            sub, _, _ = induced_subgraph(g, keep_x, keep_y)
            if sub is None:
                raise ValueError("deletion emptied a side; graph too small for this D")
            report = verify_thomason(sub, PseudoParams(p1, eps1))
            return RobustDeleteResult(
                c_x=c_x,
                c_y=c_y,
                p1=p1,
                eps1=eps1,
                attempts=attempt + 1,
                threshold_t=t,
                bad_bound=bad_bound,
                reverify=report,
            )
    raise RuntimeError(
        f"no acceptable deletion set in {max_attempts} attempts; re-seed and retry"
    )
