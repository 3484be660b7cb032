"""Experiment harness: threshold sweeps, star arrays, greedy matching.

The sweep estimates P[G(k, n, p) has NMP] over a probability grid with a
fixed number of trials per point; seeds are derived per (grid point, trial)
so any run is reproducible from the master seed alone, and its trials run on
every usable CPU. Star arrays are the {0, *}-grid view of the same decision:
a feasible fill puts a nonnegative integer on some stars so all row sums
equal R and all column sums equal C.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graph import BipartiteGraph, FormatError, VertexSet, _is_int
from .nmpcheck import NMPCertificate, Verdict, check_nmp
from .pseudo import gen_gnp
from ._threads import _usable_cpus
from .rng import ALGORITHM_ID, derive_seed

WILSON_Z = 1.96  # 95%
# A sweep forks a worker only while each worker's share is at least this many
# stream outputs (k*n per trial). On a 2-vCPU VM a trial costs about 17 ns
# wall per output, and a fork round trip of a 70 MB process (fork, a one-byte
# write back, os._exit, waitpid) 2-4 ms; 2^20 outputs take about 18 ms, so
# a forked share is worth at least four times the fork it costs.
_FORK_MIN_OUTPUTS = 1 << 20


@dataclass(frozen=True)
class SweepConfig:
    k: int
    n: int
    trials: int
    master_seed: int
    p_grid: tuple[float, ...] | None = None
    c_grid: tuple[float, ...] | None = None  # multipliers of ln(n)/k

    def __post_init__(self):
        if (self.p_grid is None) == (self.c_grid is None):
            raise ValueError("exactly one of p_grid / c_grid must be given")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        # c and p convert through ln(n)/k, which needs k >= 1 and n >= 2.
        if self.k < 1 or self.n < 2:
            raise ValueError(f"a sweep needs k >= 1 and n >= 2, got k={self.k}, n={self.n}")
        if self.p_grid is not None and any(not 0 <= p <= 1 for p in self.p_grid):
            raise ValueError("probabilities must lie in [0, 1]")
        if self.c_grid is not None and any(not 0 <= c < math.inf for c in self.c_grid):
            raise ValueError("multipliers c must be finite and >= 0")


@dataclass(frozen=True)
class SweepRow:
    p: float
    c: float
    trials: int
    successes: int
    phat: float
    wilson_lo: float
    wilson_hi: float


def _wilson(successes: int, trials: int, z: float = WILSON_Z) -> tuple[float, float]:
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return center - half, center + half


def _worker_count(cpus: int, trials: int, outputs: int) -> int:
    """Workers for `trials` trials of `outputs` stream outputs in all: at
    most one per CPU and per trial, and no more than keep each share at
    least _FORK_MIN_OUTPUTS outputs; at least 1, the calling process."""
    return max(1, min(cpus, trials, outputs // _FORK_MIN_OUTPUTS))


def _verdicts(k: int, n: int, jobs: list[tuple[float, int]]) -> bytes:
    """One byte per (p, seed) job: 1 when gen_gnp's graph has NMP, else 0."""
    return bytes(check_nmp(gen_gnp(k, n, p, seed)).verdict is Verdict.HAS_NMP for p, seed in jobs)


def _reap(pid: int, kill: bool) -> None:
    """Wait for child pid, sending it SIGKILL first if kill. Where SIGCHLD
    is ignored the kernel reaps children itself: waitpid waits for the
    child's exit and then fails."""
    try:
        if kill:
            import signal

            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    except (ProcessLookupError, ChildProcessError):
        pass


def _run_trials(k: int, n: int, jobs: list[tuple[float, int]], workers: int) -> bytes:
    """_verdicts(k, n, jobs), with jobs[w::workers] run by worker w: this
    process for w = 0, a forked child for each other w.

    The children share one anonymous mapping `out` of m + workers bytes,
    m = len(jobs): child w writes its verdicts to out[w:m:workers] and only
    then sets its flag byte out[m + w]. This process reaps every child
    before it returns or raises, killing them first if its own share
    raised, and then runs again every share whose flag is unset: one whose
    fork failed (EAGAIN under a process limit, ENOMEM), or whose child
    failed or was killed. So a deterministic error surfaces in this process
    with its traceback.
    """
    if workers == 1:
        return _verdicts(k, n, jobs)
    import mmap

    m = len(jobs)
    with mmap.mmap(-1, m + workers) as out:
        pids: list[int] = []
        done = False
        try:
            for w in range(1, workers):
                try:
                    pid = os.fork()
                except OSError:
                    break  # the shares left without a child run here, below
                if pid == 0:
                    try:
                        out[w:m:workers] = _verdicts(k, n, jobs[w::workers])
                        out[m + w] = 1
                    finally:
                        os._exit(0)
                pids.append(pid)
            out[0:m:workers] = _verdicts(k, n, jobs[::workers])
            done = True
        finally:
            for pid in pids:
                _reap(pid, not done)
        for w in range(1, workers):
            if not out[m + w]:
                out[w:m:workers] = _verdicts(k, n, jobs[w::workers])
        return out[:m]


def threshold_sweep(cfg: SweepConfig) -> list[SweepRow]:
    """One row per grid point: `trials` independent generate-and-check runs.

    A trial reads only check_nmp's verdict, so a graph with an under-degree
    vertex costs no flow. Where there is os.fork the trials are dealt out,
    interleaved, to the calling process and up to one forked child per
    further usable CPU (`os.sched_getaffinity`), while each worker's share
    is at least _FORK_MIN_OUTPUTS stream outputs. The children write their
    verdicts into one shared mapping and then set a flag byte each; the
    calling process reruns every share whose flag is unset (see
    _run_trials). Every trial has its own derived seed, so the rows are
    identical to a serial run's. No child outlives the call. On Python 3.12
    and later, os.fork warns (DeprecationWarning) when the process already
    runs threads, as numpy's OpenBLAS pool does.
    """
    log_n = math.log(cfg.n)
    grid = cfg.p_grid if cfg.p_grid is not None else cfg.c_grid
    points: list[tuple[float, float]] = []
    jobs: list[tuple[float, int]] = []
    for gi, value in enumerate(grid):
        if cfg.p_grid is not None:
            p = value
            c = p * cfg.k / log_n
        else:
            c = value
            p = min(1.0, c * log_n / cfg.k)
        points.append((p, c))
        point_seed = derive_seed(cfg.master_seed, gi)
        jobs += [(p, derive_seed(point_seed, trial)) for trial in range(cfg.trials)]
    cpus = _usable_cpus() if hasattr(os, "fork") else 1
    workers = _worker_count(cpus, len(jobs), len(jobs) * cfg.k * cfg.n)
    verdicts = _run_trials(cfg.k, cfg.n, jobs, workers)
    rows: list[SweepRow] = []
    for gi, (p, c) in enumerate(points):
        successes = verdicts[gi * cfg.trials:(gi + 1) * cfg.trials].count(1)
        lo, hi = _wilson(successes, cfg.trials)
        rows.append(
            SweepRow(
                p=p,
                c=c,
                trials=cfg.trials,
                successes=successes,
                phat=successes / cfg.trials,
                wilson_lo=lo,
                wilson_hi=hi,
            )
        )
    return rows


def monotonicity_flags(rows: list[SweepRow]) -> list[int]:
    """Indices where the empirical probability drops between adjacent rows
    by more than Wilson-interval overlap can explain.

    Returned for reporting only; a flag is suspicious, not an error.
    """
    flags = []
    ordered = sorted(rows, key=lambda r: r.p)
    for i in range(len(ordered) - 1):
        if ordered[i + 1].phat < ordered[i].phat and ordered[i + 1].wilson_hi < ordered[i].wilson_lo:
            flags.append(i)
    return flags


def sweep_csv(rows: list[SweepRow], cfg: SweepConfig, version: str) -> str:
    lines = [
        f"# nmp sweep v{version} algo={ALGORITHM_ID} seed={cfg.master_seed} "
        f"k={cfg.k} n={cfg.n} trials={cfg.trials}",
        "p,c,trials,successes,phat,wilson_lo,wilson_hi",
    ]
    for r in rows:
        lines.append(
            f"{r.p:.10g},{r.c:.10g},{r.trials},{r.successes},"
            f"{r.phat:.10g},{r.wilson_lo:.10g},{r.wilson_hi:.10g}"
        )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class StarArray:
    """k x n grid over {0, *}; stars mark fillable cells."""

    k: int
    n: int
    stars: tuple[tuple[bool, ...], ...]


def parse_star_array(text: str) -> StarArray:
    rows: list[tuple[bool, ...]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        bad = set(line) - {"0", "*"}
        if bad:
            raise FormatError(f"line {lineno}: invalid characters {sorted(bad)}")
        rows.append(tuple(ch == "*" for ch in line))
    if not rows:
        raise FormatError("empty star array")
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise FormatError(f"row {i} has width {len(row)}, expected {width}")
    return StarArray(k=len(rows), n=width, stars=tuple(rows))


@dataclass(frozen=True)
class StarSolution:
    feasible: bool
    grid: tuple[tuple[int, ...], ...] | None = None
    row_sum: int | None = None
    col_sum: int | None = None
    witness_rows: VertexSet | None = None
    witness_col_count: int | None = None


def star_array_graph(arr: StarArray) -> BipartiteGraph:
    return BipartiteGraph.from_matrix(np.array(arr.stars, dtype=bool).reshape(arr.k, arr.n))


def solve_star_array(arr: StarArray) -> StarSolution:
    """Fill stars with nonnegative integers making all row sums R = n/gcd
    and all column sums C = k/gcd, or report a witness row set."""
    g = star_array_graph(arr)
    cert: NMPCertificate = check_nmp(g)
    if cert.verdict is Verdict.VIOLATED:
        return StarSolution(
            feasible=False,
            witness_rows=cert.witness,
            witness_col_count=cert.witness_neighborhood_size,
        )
    grid = [[0] * arr.n for _ in range(arr.k)]
    for (i, j), mval in cert.multiplicity.items():
        grid[i][j] = mval
    return StarSolution(
        feasible=True,
        grid=tuple(tuple(row) for row in grid),
        row_sum=cert.row_sum,
        col_sum=cert.col_sum,
    )


def validate_star_fill(arr: StarArray, sol: StarSolution) -> None:
    """Check a feasible solution by plain summation; raises on any defect."""
    if not sol.feasible:
        raise ValueError("solution is not feasible; nothing to validate")
    grid = sol.grid
    if grid is None or len(grid) != arr.k or any(len(row) != arr.n for row in grid):
        raise ValueError(f"grid is not {arr.k} rows of {arr.n} entries")
    for i in range(arr.k):
        for j in range(arr.n):
            v = grid[i][j]
            if not _is_int(v):
                raise ValueError(f"non-integer entry {v!r} at ({i}, {j})")
            if v < 0:
                raise ValueError(f"negative entry at ({i}, {j})")
            if v and not arr.stars[i][j]:
                raise ValueError(f"zero cell ({i}, {j}) was filled")
    if sol.row_sum is None or sol.row_sum <= 0 or sol.col_sum is None or sol.col_sum <= 0:
        raise ValueError("row/column sums must be positive")
    for i in range(arr.k):
        if sum(grid[i]) != sol.row_sum:
            raise ValueError(f"row {i} sums to {sum(grid[i])}, expected {sol.row_sum}")
    for j in range(arr.n):
        col = sum(grid[i][j] for i in range(arr.k))
        if col != sol.col_sum:
            raise ValueError(f"column {j} sums to {col}, expected {sol.col_sum}")


def format_star_solution(sol: StarSolution) -> str:
    if sol.feasible:
        lines = [" ".join(str(v) for v in row) for row in sol.grid]
        lines.append(f"R={sol.row_sum} C={sol.col_sum}")
    else:
        lines = [
            "INFEASIBLE",
            "witness rows: " + " ".join(str(i) for i in sol.witness_rows),
            f"witness column neighborhood size: {sol.witness_col_count}",
        ]
    return "\n".join(lines) + "\n"


def _check_perm(perm: list[int] | tuple[int, ...], size: int, name: str) -> None:
    if sorted(perm) != list(range(size)):
        raise ValueError(f"{name} is not a permutation of range({size})")


def greedy_matching_value(
    g: BipartiteGraph,
    r: int,
    sigma: list[int] | tuple[int, ...],
    pi: list[int] | tuple[int, ...],
    release_partial: bool = False,
) -> int:
    """Number of left vertices that claim r distinct neighbors greedily.

    X is processed in sigma order; each x walks Y in pi order and claims
    unclaimed neighbors until it holds r of them or runs out. By default an
    x that falls short keeps its partial claims; release_partial frees them
    instead (sensitivity variant).
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    _check_perm(sigma, g.k, "sigma")
    _check_perm(pi, g.n, "pi")
    nbr = [set(g.neighbors(x).tolist()) for x in range(g.k)]
    claimed = [False] * g.n
    full = 0
    for x in sigma:
        picked = []
        for y in pi:
            if not claimed[y] and y in nbr[x]:
                claimed[y] = True
                picked.append(y)
                if len(picked) == r:
                    break
        if len(picked) == r:
            full += 1
        elif release_partial:
            for y in picked:
                claimed[y] = False
    return full


@dataclass(frozen=True)
class RhoResult:
    value: Fraction  # max over pi of min over sigma of m^(r), divided by k
    best_pi: tuple[int, ...]
    worst_sigma: tuple[int, ...]  # a minimizing sigma for best_pi


def rho_r_bruteforce(g: BipartiteGraph, r: int) -> RhoResult:
    """Exact max_pi min_sigma value by full enumeration (k!, n! <= 7!).

    Branch-and-bound on the inner minimum: once a pi's running minimum drops
    to the best value seen, that pi cannot improve and is abandoned. The
    first optimal pi in lexicographic order is reported, with the sigma that
    attains its minimum.
    """
    from itertools import permutations

    if g.k > 7 or g.n > 7:
        raise ValueError("brute force limited to k, n <= 7")
    best_val = -1
    best_pi: tuple[int, ...] | None = None
    best_sigma: tuple[int, ...] | None = None
    for pi in permutations(range(g.n)):
        worst = g.k + 1
        worst_sigma: tuple[int, ...] | None = None
        for sigma in permutations(range(g.k)):
            val = greedy_matching_value(g, r, sigma, pi)
            if val < worst:
                worst = val
                worst_sigma = sigma
            if worst <= best_val:
                break
        else:
            if worst > best_val:
                best_val = worst
                best_pi = pi
                best_sigma = worst_sigma
    return RhoResult(value=Fraction(best_val, g.k), best_pi=best_pi, worst_sigma=best_sigma)
