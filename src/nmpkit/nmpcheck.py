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
degree, a linear repair pass along length-3 residual paths, and then
Hopcroft-Karp-style augmenting phases; S and |N(S)| are the vertices its
final breadth-first search reaches. That source side is the same for every
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
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .flow import max_flow
from .graph import BipartiteGraph, Side, VertexSet, left_set, neighborhood


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
    read. A graph with a vertex of too small a degree is Violated without a
    flow; its certificate solves the flow, and so the same min-cut witness,
    on the first read of a witness field. A caller that reads only the
    verdict pays for neither.
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
    """
    d = math.gcd(g.k, g.n)
    if cert.row_sum != g.n // d or cert.col_sum != g.k // d:
        raise ValueError("certificate sums do not match n/gcd, k/gcd")
    if cert.verdict is Verdict.HAS_NMP:
        mult = cert.multiplicity
        if mult is None:
            raise ValueError("HasNMP certificate missing multiplicity function")
        nbrs = [set(g.neighbors(x).tolist()) for x in range(g.k)]
        rows = [0] * g.k
        cols = [0] * g.n
        for (x, y), m in mult.items():
            if not (0 <= x < g.k and y in nbrs[x]):
                raise ValueError(f"multiplicity on non-edge ({x}, {y})")
            if type(m) is not int and not isinstance(m, np.integer):
                raise ValueError(f"non-integer multiplicity {m!r} on ({x}, {y})")
            if m < 0:
                raise ValueError("negative multiplicity")
            rows[x] += m
            cols[y] += m
        if any(r != cert.row_sum for r in rows):
            raise ValueError("row sums not constant at n/gcd")
        if any(c != cert.col_sum for c in cols):
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
    if pair.i_x.side is not Side.LEFT or pair.i_y.side is not Side.RIGHT:
        raise ValueError("IndependentPair must be (left set, right set)")
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
