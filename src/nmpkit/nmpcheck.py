"""Exact NMP decision with certificates.

A bipartite graph G(X, Y) with |X| = k, |Y| = n has the normalized matching
property (NMP) when every S subset of X satisfies |N(S)|/n >= |S|/k. The
decision is run as a max-flow problem: with g = gcd(k, n), send n/g units
through every left vertex and k/g through every right vertex. Saturation is
equivalent to NMP, and a saturating integral flow restricted to the graph
edges is a multiplicity function (constant row sums n/g, constant column
sums k/g). An unsaturated run yields a violating witness from the min cut:
the left vertices on the source side S satisfy k*|N(S)| < n*|S|. The
solver (`flow.max_flow`) is a greedy pass in ascending order of left
degree, then blocking-flow phases. The first runs over the two-level
layering the greedy pass leaves (a short left's rights are all full), so
it takes the length-3 residual paths in linear time with no search; each
later one over a breadth-first layering. S and |N(S)| are the vertices
the final breadth-first search reaches. That source side is the same for every
maximum flow, so the witness does not depend on the solver; the
multiplicity function is one of possibly many, and may change with it. A
vertex whose degree is below its quota (k*deg(x) < n on the left,
n*deg(y) < k on the right) settles Violated before any flow.

The certificate fills the fields that come from the flow on their first
read, so a caller that reads only the verdict pays for neither: a HasNMP
multiplicity becomes a plain dict {(x, y): m} over every edge, zeros
included, and a Violated graph the degree test settled runs the flow for
its witness.

Also provided: a 2^k brute-force oracle over all subsets, the independent-set
inequality check, and transfer of a right-side witness to a left-side one.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain

import numpy as np

from .flow import max_flow
from .graph import (
    BipartiteGraph,
    Side,
    VertexSet,
    _check_side,
    _is_int,
    _row_search,
    left_set,
    neighborhood,
)


class Verdict(Enum):
    HAS_NMP = "has_nmp"
    VIOLATED = "violated"


@dataclass(frozen=True)
class NMPCertificate:
    verdict: Verdict
    row_sum: int  # n/gcd(k, n)
    col_sum: int  # k/gcd(k, n)
    # A default_factory leaves no class attribute, so reading a field that
    # check_nmp left pending reaches __getattr__.
    multiplicity: dict[tuple[int, int], int] | None = field(default_factory=lambda: None)
    witness: VertexSet | None = field(default_factory=lambda: None)
    witness_neighborhood_size: int | None = field(default_factory=lambda: None)

    def __getattr__(self, name: str):
        # Normal lookup failed: for a field that _defer left pending, this is
        # its first read. Fill the pending fields, then drop the pending state.
        pending = self.__dict__.get("_pending")
        if pending is None or name not in self.__dataclass_fields__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        g, flow = pending
        if flow is not None:
            self.__dict__["multiplicity"] = dict(zip(g.edges(), flow))
        else:
            value, _, witness, witness_nbhd = _solve(g, self.row_sum, self.col_sum)
            if value == g.k * self.row_sum:
                raise RuntimeError("the degree test failed on a graph whose flow saturates")
            self.__dict__.update(witness=left_set(witness), witness_neighborhood_size=witness_nbhd)
        self.__dict__.pop("_pending", None)
        return self.__dict__[name]

    def _defer(self, g: BipartiteGraph, flow: list[int] | None) -> "NMPCertificate":
        """Leave the fields that come from g's flow to their first read: the
        multiplicity, given the saturating flow in CSR order, or the witness
        fields, given no flow."""
        pending = ("multiplicity",) if flow is not None else ("witness", "witness_neighborhood_size")
        for name in pending:
            del self.__dict__[name]
        self.__dict__["_pending"] = (g, flow)
        return self


@dataclass(frozen=True)
class OracleResult:
    verdict: Verdict
    worst_set: VertexSet
    # (|N(S)|, |S|) for the set minimizing the normalized ratio
    # k*|N(S)| / (n*|S|); ties broken by smaller |S|, then lexicographic
    # members.
    worst_ratio_pair: tuple[int, int]


@dataclass(frozen=True)
class IndependentPair:
    i_x: VertexSet
    i_y: VertexSet


def _solve(g: BipartiteGraph, row_sum: int, col_sum: int):
    """max_flow of g's network: (value, flow, witness, |N(witness)|)."""
    return max_flow(g.indptr.tolist(), g.indices.tolist(), g.k, g.n, row_sum, col_sum)


def _fails_degree_test(g: BipartiteGraph, row_sum: int, col_sum: int) -> bool:
    """True when one vertex cannot carry its quota: a left x with
    k*deg(x) < n, or a right y with n*deg(y) < k.

    {x} violates the NMP inequality, and {y} violates it in the side-swapped
    graph, which has NMP exactly when g has; so either settles Violated.
    """
    return (
        int(np.diff(g.indptr).min()) * col_sum < row_sum
        or int(np.bincount(g.indices, minlength=g.n).min()) * row_sum < col_sum
    )


def check_nmp(g: BipartiteGraph) -> NMPCertificate:
    """Decide NMP exactly; return a multiplicity function or a witness.

    The multiplicity is a plain dict, built from the flow on its first
    read, with its (x, y) keys in CSR order: ascending x, then ascending y,
    as g.edges() lists them. A graph with a vertex of too small a degree is
    Violated without a flow; its certificate solves the flow, and so the
    same min-cut witness, on the first read of a witness field. A caller
    that reads only the verdict pays for neither.
    """
    if g.k < 1 or g.n < 1:
        raise ValueError("check_nmp requires nonempty sides")
    d = math.gcd(g.k, g.n)
    row_sum, col_sum = g.n // d, g.k // d
    if _fails_degree_test(g, row_sum, col_sum):
        return NMPCertificate(Verdict.VIOLATED, row_sum, col_sum)._defer(g, None)
    value, flow, witness, witness_nbhd = _solve(g, row_sum, col_sum)
    if value == g.k * row_sum:
        return NMPCertificate(Verdict.HAS_NMP, row_sum, col_sum)._defer(g, flow)
    return NMPCertificate(
        verdict=Verdict.VIOLATED,
        row_sum=row_sum,
        col_sum=col_sum,
        witness=left_set(witness),
        witness_neighborhood_size=witness_nbhd,
    )


def validate_certificate(g: BipartiteGraph, cert: NMPCertificate) -> None:
    """Re-verify a certificate from scratch; raises ValueError when unsound.

    Independent of the flow solver: only sums and the witness inequality.
    A multiplicity is read into arrays in one pass, its keys are looked up
    in g's rows all at once, and its sums are taken with np.add.at; a
    defective entry is named as the first one in dict order.
    """
    d = math.gcd(g.k, g.n)
    if cert.row_sum != g.n // d or cert.col_sum != g.k // d:
        raise ValueError("certificate sums do not match n/gcd, k/gcd")
    if cert.verdict is Verdict.HAS_NMP:
        mult = cert.multiplicity
        if mult is None:
            raise ValueError("HasNMP certificate missing multiplicity function")
        # Every value is clipped to at most cap, which keeps each int64 sum
        # exact and still above its target when one value is.
        xs, ys, ms = _multiplicity_arrays(g, mult, max(cert.row_sum, cert.col_sum) + 1)
        rows = np.zeros(g.k, dtype=np.int64)
        cols = np.zeros(g.n, dtype=np.int64)
        np.add.at(rows, xs, ms)
        np.add.at(cols, ys, ms)
        if (rows != cert.row_sum).any():
            raise ValueError("row sums not constant at n/gcd")
        if (cols != cert.col_sum).any():
            raise ValueError("column sums not constant at k/gcd")
    else:
        if cert.witness is None or len(cert.witness) == 0:
            raise ValueError("Violated certificate missing witness")
        if cert.witness.side is not Side.LEFT:
            raise ValueError("Violated certificate witness is not a left-side set")
        nbhd = neighborhood(g, cert.witness)
        if cert.witness_neighborhood_size != len(nbhd):
            raise ValueError("stated witness neighborhood size is wrong")
        if not g.k * len(nbhd) < g.n * len(cert.witness):
            raise ValueError("witness does not violate the NMP inequality")


def _key_pair(key, k: int, n: int) -> tuple[int, int] | None:
    """A multiplicity key's (x, y), clipped to [-1, k] x [-1, n], or None
    when the key is not a pair of integers."""
    if not (isinstance(key, tuple) and len(key) == 2):
        return None
    try:
        x, y = operator.index(key[0]), operator.index(key[1])
    except TypeError:
        return None
    return min(max(x, -1), k), min(max(y, -1), n)


def _multiplicity_arrays(g: BipartiteGraph, mult: dict, cap: int):
    """Left ends, right ends and values of a multiplicity dict's entries, as
    int64 arrays in dict order, each value clipped to at most cap.

    Raises ValueError for the first entry, in dict order, that is not an
    integer >= 0 on an edge of g. The keys are looked up in g's rows by one
    batched binary search (graph._row_search), without the solver. A dict
    whose keys are tuples of two integers and whose values are integers,
    all within int64, is read by np.fromiter in one pass over its keys and
    one over its values; any other dict is read entry by entry.
    """
    keys, vals = list(mult), list(mult.values())
    m = len(keys)
    plain = (set(map(type, keys)) <= {tuple} and set(map(len, keys)) <= {2}
             and all(t is int or issubclass(t, np.integer) for t in set(map(type, vals))))
    if plain:
        try:
            xy = np.fromiter(map(operator.index, chain.from_iterable(keys)), np.int64, 2 * m)
            ms = np.fromiter(vals, np.int64, m)
        except (TypeError, OverflowError):  # a key that is not an integer, or past int64
            plain = False
    if plain:
        xs, ys = xy[0::2], xy[1::2]
        is_int = np.ones(m, dtype=bool)
    else:
        # A key that is not a pair of integers reads (-1, -1), never an edge.
        pairs = [_key_pair(key, g.k, g.n) or (-1, -1) for key in keys]
        xs, ys = np.array(pairs, dtype=np.int64).reshape(m, 2).T
        is_int = np.array([_is_int(v) for v in vals], dtype=bool)
        ms = np.array([min(max(v, -1), cap) if ok else 0 for v, ok in zip(vals, is_int)],
                      dtype=np.int64)
    xs, ys, ms = np.clip(xs, -1, g.k), np.clip(ys, -1, g.n), np.clip(ms, -1, cap)

    # A right end of -1 or n is in no row; a left end of -1 or k asks row 0.
    on_edge = (xs >= 0) & (xs < g.k)
    on_edge &= _row_search(g, np.where(on_edge, xs, 0), ys)[1]
    bad = ~on_edge | ~is_int | (ms < 0)
    if bad.any():
        i = int(np.argmax(bad))
        key = keys[i]
        if not on_edge[i]:
            if isinstance(key, tuple) and len(key) == 2:
                raise ValueError(f"multiplicity on non-edge ({key[0]}, {key[1]})")
            raise ValueError(f"malformed multiplicity key {key!r}")
        if not is_int[i]:
            raise ValueError(f"non-integer multiplicity {vals[i]!r} on ({key[0]}, {key[1]})")
        raise ValueError("negative multiplicity")
    return xs, ys, ms


def nmp_oracle_bruteforce(g: BipartiteGraph) -> OracleResult:
    """Enumerate all 2^k subsets of X; exact but exponential.

    Requires k <= 22 (the subset neighborhood table has 2^k entries).
    """
    k, n = g.k, g.n
    if k > 22:
        raise ValueError(f"brute force limited to k <= 22, got k={k}")
    nbr_mask = [0] * k
    for x in range(k):
        m = 0
        for y in g.neighbors(x).tolist():
            m |= 1 << y
        nbr_mask[x] = m

    nb = [0] * (1 << k)
    violated = False
    best_sz = best_nb = None  # ratio argmin state
    best_members: tuple[int, ...] | None = None
    for s in range(1, 1 << k):
        low = s & (-s)
        nb[s] = nb[s ^ low] | nbr_mask[low.bit_length() - 1]
        nb_sz = nb[s].bit_count()
        sz = s.bit_count()
        if k * nb_sz < n * sz:
            violated = True
        if best_sz is None:
            better = True
        else:
            lhs = nb_sz * best_sz
            rhs = best_nb * sz
            if lhs != rhs:
                better = lhs < rhs
            elif sz != best_sz:
                better = sz < best_sz
            else:
                members = tuple(x for x in range(k) if s >> x & 1)
                better = members < best_members
        if better:
            best_sz, best_nb = sz, nb_sz
            best_members = tuple(x for x in range(k) if s >> x & 1)
    return OracleResult(
        verdict=Verdict.VIOLATED if violated else Verdict.HAS_NMP,
        worst_set=left_set(best_members),
        worst_ratio_pair=(best_nb, best_sz),
    )


def kleitman_independent_check(g: BipartiteGraph, pair: IndependentPair) -> bool:
    """For an independent pair, test n*|I_X| + k*|I_Y| <= n*k.

    Raises ValueError if (I_X, I_Y) is not independent in g.
    """
    _check_side(g, pair.i_x, Side.LEFT)
    _check_side(g, pair.i_y, Side.RIGHT)
    ys = set(pair.i_y.members)
    for x in pair.i_x:
        for y in g.neighbors(x).tolist():
            if y in ys:
                raise ValueError(f"set is not independent: edge ({x}, {y}) inside it")
    return g.n * len(pair.i_x) + g.k * len(pair.i_y) <= g.n * g.k


def witness_transfer(g: BipartiteGraph, t: VertexSet) -> VertexSet:
    """Turn a right-side violating witness into a left-side one.

    Requires n*|N(T)| < k*|T| (T violates NMP for the side-swapped graph);
    returns S = X \\ N(T), which satisfies k*|N(S)| < n*|S|.
    """
    if t.side is not Side.RIGHT:
        raise ValueError("witness_transfer expects a right-side set")
    nt = neighborhood(g, t)
    if not g.n * len(nt) < g.k * len(t):
        raise ValueError("T is not a violating witness for the side-swapped graph")
    nt_members = set(nt.members)
    return left_set(x for x in range(g.k) if x not in nt_members)
