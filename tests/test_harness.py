import dataclasses
import errno
import math
import os
import signal
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmpkit import (
    BipartiteGraph,
    FormatError,
    SweepConfig,
    build_euclidean_tree,
    format_star_solution,
    greedy_matching_value,
    parse_star_array,
    rho_r_bruteforce,
    solve_star_array,
    threshold_sweep,
    validate_star_fill,
)
from nmpkit import _threads, harness
from nmpkit.harness import _wilson, sweep_csv, star_array_graph
from nmpkit.nmpcheck import Verdict, check_nmp
from nmpkit.pseudo import gen_gnp
from nmpkit.rng import derive_seed

from conftest import complete_graph


def cycle_3x3():
    # x_i adjacent to y_i and y_{i+1 mod 3}: a 6-cycle.
    return BipartiteGraph.from_edges(
        3, 3, [(i, i) for i in range(3)] + [(i, (i + 1) % 3) for i in range(3)]
    )


# --------------------------------------------------------------------- sweep


def test_sweep_extreme_rows():
    cfg = SweepConfig(k=4, n=5, trials=8, master_seed=11, p_grid=(0.0, 1.0))
    rows = threshold_sweep(cfg)
    assert rows[0].phat == 0.0
    assert rows[1].phat == 1.0
    assert all(r.successes <= r.trials for r in rows)
    assert all(0 <= r.wilson_lo <= r.phat <= r.wilson_hi <= 1 for r in rows)


def test_sweep_deterministic():
    cfg = SweepConfig(k=12, n=15, trials=20, master_seed=3, c_grid=(0.8, 1.5))
    a = threshold_sweep(cfg)
    b = threshold_sweep(cfg)
    assert a == b


def test_sweep_c_grid_conversion():
    import math

    cfg = SweepConfig(k=10, n=20, trials=2, master_seed=1, c_grid=(1.0,))
    row = threshold_sweep(cfg)[0]
    assert row.p == pytest.approx(math.log(20) / 10)
    assert row.c == 1.0


def test_sweep_csv_header():
    cfg = SweepConfig(k=4, n=5, trials=2, master_seed=9, p_grid=(0.5,))
    text = sweep_csv(threshold_sweep(cfg), cfg, "0.1.0")
    lines = text.splitlines()
    assert lines[0].startswith("# nmp sweep v0.1.0 algo=splitmix64 seed=9")
    assert lines[1] == "p,c,trials,successes,phat,wilson_lo,wilson_hi"
    assert len(lines) == 3


def serial_rows(cfg):
    """The sweep's rows from a plain loop over grid points and trials."""
    rows = []
    for gi, value in enumerate(cfg.p_grid if cfg.p_grid is not None else cfg.c_grid):
        if cfg.p_grid is not None:
            p, c = value, value * cfg.k / math.log(cfg.n)
        else:
            p, c = min(1.0, value * math.log(cfg.n) / cfg.k), value
        point_seed = derive_seed(cfg.master_seed, gi)
        successes = sum(
            check_nmp(gen_gnp(cfg.k, cfg.n, p, derive_seed(point_seed, t))).verdict is Verdict.HAS_NMP
            for t in range(cfg.trials)
        )
        lo, hi = _wilson(successes, cfg.trials)
        rows.append(harness.SweepRow(p, c, cfg.trials, successes, successes / cfg.trials, lo, hi))
    return rows


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(autouse=True)
def no_child_outlives_a_test():
    yield
    assert_no_children()


def forked_sweep(cfg, workers):
    """threshold_sweep with exactly `workers` workers (fewer if there are
    fewer trials), counting the forks."""
    forks = []

    def fork():
        forks.append(1)
        return real_fork()

    real_fork = os.fork
    with mock.patch.object(harness, "_usable_cpus", return_value=workers), \
            mock.patch.object(harness, "_FORK_MIN_OUTPUTS", 1), \
            mock.patch.object(harness.os, "fork", fork):
        rows = threshold_sweep(cfg)
    assert_no_children()
    return rows, len(forks)


SPLIT_CFG = SweepConfig(k=20, n=30, trials=7, master_seed=5, c_grid=(0.5, 1.0, 1.5, 2.5))


@pytest.mark.parametrize("workers", [1, 2, 3, 8])  # 8: more workers than most hosts' CPUs
def test_sweep_rows_equal_serial_rows_for_any_worker_count(workers):
    rows, forks = forked_sweep(SPLIT_CFG, workers)
    assert forks == workers - 1
    assert rows == serial_rows(SPLIT_CFG)
    assert 0 < sum(r.successes for r in rows) < 4 * SPLIT_CFG.trials


@settings(max_examples=15)
@given(
    k=st.integers(1, 12),
    extra=st.integers(1, 12),
    trials=st.integers(1, 5),
    grid=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
    use_p=st.booleans(),
    workers=st.integers(2, 3),
    seed=st.integers(0, 2**64 - 1),
)
def test_sweep_split_matches_serial_property(k, extra, trials, grid, use_p, workers, seed):
    # k != n; a c grid in [0, 3] covers the whole threshold window.
    cfg = SweepConfig(k=k, n=k + extra, trials=trials, master_seed=seed,
                      p_grid=tuple(grid) if use_p else None,
                      c_grid=None if use_p else tuple(3 * c for c in grid))
    rows, forks = forked_sweep(cfg, workers)
    assert forks == min(workers, trials * len(grid)) - 1
    assert rows == serial_rows(cfg)


def test_sweep_failed_child_share_is_rerun_by_the_parent():
    parent = os.getpid()
    real_check = harness.check_nmp

    def check_in_parent_only(g):
        if os.getpid() != parent:
            raise RuntimeError("child failure")
        return real_check(g)

    with mock.patch.object(harness, "check_nmp", check_in_parent_only):
        rows, forks = forked_sweep(SPLIT_CFG, 3)
    assert forks == 2
    assert rows == serial_rows(SPLIT_CFG)


def test_sweep_parent_runs_no_share_of_a_child_that_finished():
    parent = os.getpid()
    real_check = harness.check_nmp
    parent_checks = []

    def count_parent_checks(g):
        if os.getpid() == parent:
            parent_checks.append(1)
        return real_check(g)

    with mock.patch.object(harness, "check_nmp", count_parent_checks):
        rows, forks = forked_sweep(SPLIT_CFG, 3)
    assert forks == 2
    assert rows == serial_rows(SPLIT_CFG)
    assert len(parent_checks) == len(range(0, 4 * SPLIT_CFG.trials, 3))


@pytest.mark.parametrize("successful_forks", [0, 1])
def test_sweep_runs_the_shares_of_failed_forks_in_the_parent(successful_forks):
    # Under a process limit fork raises EAGAIN (ENOMEM under strict overcommit).
    real_fork = os.fork
    forks = []

    def fork():
        forks.append(1)
        if len(forks) > successful_forks:
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        return real_fork()

    fds = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
    with mock.patch.object(harness, "_usable_cpus", return_value=3), \
            mock.patch.object(harness, "_FORK_MIN_OUTPUTS", 1), \
            mock.patch.object(harness.os, "fork", fork):
        rows = threshold_sweep(SPLIT_CFG)
    assert len(forks) == successful_forks + 1  # no fork is tried after one fails
    assert rows == serial_rows(SPLIT_CFG)
    assert_no_children()
    if fds is not None:
        assert len(os.listdir("/proc/self/fd")) == fds  # the sweep leaves no descriptor open


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_sweep_kills_and_reaps_children_when_the_parent_share_raises(error):
    parent = os.getpid()

    def stall_children_fail_parent(g):
        if os.getpid() != parent:
            time.sleep(60)
        raise error("parent failure")

    t0 = time.monotonic()
    with mock.patch.object(harness, "check_nmp", stall_children_fail_parent), \
            pytest.raises(error, match="parent failure"):
        forked_sweep(SPLIT_CFG, 3)
    assert_no_children()
    assert time.monotonic() - t0 < 30


@pytest.fixture
def sigchld_ignored():
    # Some programs ignore SIGCHLD; then the kernel reaps children itself.
    old = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        yield
    finally:
        signal.signal(signal.SIGCHLD, old)


def test_sweep_works_where_sigchld_is_ignored(sigchld_ignored):
    rows, forks = forked_sweep(SPLIT_CFG, 3)
    assert forks == 2
    assert rows == serial_rows(SPLIT_CFG)
    parent = os.getpid()

    def fail_in_parent_after_children_exit(g):
        if os.getpid() == parent:
            time.sleep(0.5)  # the children are done and gone by now
            raise RuntimeError("parent failure")
        return check_nmp(g)

    with mock.patch.object(harness, "check_nmp", fail_in_parent_after_children_exit), \
            pytest.raises(RuntimeError, match="parent failure"):
        forked_sweep(SPLIT_CFG, 3)


def test_sweep_with_one_worker_forks_nothing():
    def no_fork():
        raise AssertionError("forked")

    with mock.patch.object(harness.os, "fork", no_fork):
        with mock.patch.object(harness, "_usable_cpus", return_value=1):
            assert threshold_sweep(SPLIT_CFG) == serial_rows(SPLIT_CFG)
        # Small: 28 trials of 600 outputs are far below one share.
        assert threshold_sweep(SPLIT_CFG) == serial_rows(SPLIT_CFG)
    assert_no_children()


def test_worker_count_rule():
    floor = harness._FORK_MIN_OUTPUTS
    with mock.patch.object(os, "fork", side_effect=AssertionError("forked")):
        for cpus in (1, 2, 10_000):
            # A tiny sweep, and one below two shares, stay in this process.
            assert harness._worker_count(cpus, 1, 1) == 1
            assert harness._worker_count(cpus, 28, 2 * floor - 1) == 1
            # No sweep at all still has its one worker.
            assert harness._worker_count(cpus, 0, 0) == 1
            # A huge sweep takes every CPU, but never more workers than trials.
            assert harness._worker_count(cpus, 10**9, 10**15) == cpus
            assert harness._worker_count(cpus, 3, 10**15) == min(cpus, 3)
        assert harness._worker_count(10_000, 10**6, 5 * floor) == 5
        # The benchmark's sweep: 200 trials of 300 x 300 outputs.
        assert harness._worker_count(2, 200, 200 * 300 * 300) == 2


def test_usable_cpus(monkeypatch):
    # The sweep counts CPUs with the package's one _usable_cpus.
    assert harness._usable_cpus is _threads._usable_cpus
    assert harness._usable_cpus() == len(os.sched_getaffinity(0))
    # Where there is no os.fork the calling process is the one worker.
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(harness, "_FORK_MIN_OUTPUTS", 1)
    monkeypatch.delattr(harness.os, "fork")
    assert threshold_sweep(SPLIT_CFG) == serial_rows(SPLIT_CFG)


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(k=2, n=2, trials=1, master_seed=0)
    with pytest.raises(ValueError):
        SweepConfig(k=2, n=2, trials=0, master_seed=0, p_grid=(0.5,))
    with pytest.raises(ValueError):
        SweepConfig(k=2, n=2, trials=1, master_seed=0, p_grid=(1.5,))
    # ln(n)/k converts c and p: k = 0 or n = 1 would divide by zero.
    for k, n in [(0, 5), (3, 1), (-1, 5), (3, 0)]:
        for grid in ({"p_grid": (0.5,)}, {"c_grid": (1.0,)}):
            with pytest.raises(ValueError, match="k >= 1 and n >= 2"):
                SweepConfig(k=k, n=n, trials=1, master_seed=0, **grid)
    for c in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError, match="finite and >= 0"):
            SweepConfig(k=2, n=2, trials=1, master_seed=0, c_grid=(1.0, c))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        SweepConfig(k=2, n=2, trials=1, master_seed=0, p_grid=(float("nan"),))
    SweepConfig(k=1, n=2, trials=1, master_seed=0, c_grid=(0.0,))


# --------------------------------------------------------------- star arrays


def test_star_parse_and_shape():
    arr = parse_star_array("PLACEHOLDER".replace("PLACEHOLDER", "*0*\n0*0\n"))
    assert (arr.k, arr.n) == (2, 3)
    assert arr.stars == ((True, False, True), (False, True, False))


def test_star_parse_errors():
    with pytest.raises(FormatError, match="invalid characters"):
        parse_star_array("*x*\n")
    with pytest.raises(FormatError, match="width"):
        parse_star_array("**\n***\n")
    with pytest.raises(FormatError, match="empty"):
        parse_star_array("# only a comment\n")


def test_star_all_star_2x3():
    arr = parse_star_array("***\n***\n")
    sol = solve_star_array(arr)
    assert sol.feasible
    assert (sol.row_sum, sol.col_sum) == (3, 2)
    validate_star_fill(arr, sol)


def test_star_zero_column_infeasible():
    arr = parse_star_array("*0*\n*0*\n")
    sol = solve_star_array(arr)
    assert not sol.feasible
    assert sol.witness_rows is not None and len(sol.witness_rows) > 0
    # the witness really is a violation
    g = star_array_graph(arr)
    from nmpkit import neighborhood

    ns = neighborhood(g, sol.witness_rows)
    assert g.k * len(ns) < g.n * len(sol.witness_rows)
    text = format_star_solution(sol)
    assert text.startswith("INFEASIBLE")


def test_star_two_disjoint_tree_patterns():
    # 4 x 6 pattern made of two T_{2,3} star layouts.
    t23 = build_euclidean_tree(2, 3).graph
    rows = []
    for c in range(2):
        for i in range(2):
            row = ["0"] * 6
            for y in t23.neighbors(i).tolist():
                row[c * 3 + y] = "*"
            rows.append("".join(row))
    arr = parse_star_array("\n".join(rows))
    sol = solve_star_array(arr)
    assert sol.feasible
    assert (sol.row_sum, sol.col_sum) == (3, 2)
    validate_star_fill(arr, sol)


def _with_cells(sol, cells):
    """sol with the grid cells {(i, j): value} replaced."""
    grid = [list(row) for row in sol.grid]
    for (i, j), value in cells.items():
        grid[i][j] = value
    return dataclasses.replace(sol, grid=tuple(map(tuple, grid)))


@pytest.mark.parametrize("tamper, message", [
    (lambda s: dataclasses.replace(s, feasible=False), "solution is not feasible"),
    (lambda s: dataclasses.replace(s, grid=None), "grid is not 2 rows of 3 entries"),
    (lambda s: dataclasses.replace(s, grid=s.grid[:1]), "grid is not 2 rows of 3 entries"),
    (lambda s: dataclasses.replace(s, grid=tuple(row + (0,) for row in s.grid)),
     "grid is not 2 rows of 3 entries"),
    (lambda s: _with_cells(s, {(0, 0): 0.5}), r"non-integer entry 0.5 at \(0, 0\)"),
    (lambda s: _with_cells(s, {(1, 0): True}), r"non-integer entry True at \(1, 0\)"),
    (lambda s: _with_cells(s, {(0, 0): -1}), r"negative entry at \(0, 0\)"),
    (lambda s: _with_cells(s, {(0, 2): 1}), r"zero cell \(0, 2\) was filled"),
    (lambda s: dataclasses.replace(s, row_sum=None), "row/column sums must be positive"),
    (lambda s: dataclasses.replace(s, col_sum=0), "row/column sums must be positive"),
    (lambda s: _with_cells(s, {(0, 0): 2}), "row 0 sums to 4, expected 3"),
    (lambda s: _with_cells(s, {(0, 0): 0, (0, 1): 3}), "column 0 sums to 1, expected 2"),
])
def test_validate_star_fill_rejects_each_defect(tamper, message):
    arr = parse_star_array("**0\n*0*\n")  # the pattern of T_{2,3}
    sol = solve_star_array(arr)
    assert sol.grid == ((1, 2, 0), (1, 0, 2))
    validate_star_fill(arr, sol)
    with pytest.raises(ValueError, match=f"^{message}"):
        validate_star_fill(arr, tamper(sol))


def test_star_format_round_trip_grid():
    arr = parse_star_array("***\n***\n")
    sol = solve_star_array(arr)
    text = format_star_solution(sol)
    assert text.endswith("R=3 C=2\n")
    grid_lines = text.splitlines()[:-1]
    parsed = [[int(v) for v in line.split()] for line in grid_lines]
    assert parsed == [list(r) for r in sol.grid]


# ------------------------------------------------------------------- greedy


def test_greedy_complete():
    g = complete_graph(3, 7)
    assert greedy_matching_value(g, 2, [0, 1, 2], list(range(7))) == 3


def test_greedy_isolated_vertex():
    # A left vertex with no neighbors caps the value at k - 1 for every order.
    g = BipartiteGraph.from_edges(3, 3, [(0, 0), (1, 1)])
    for sigma in ([0, 1, 2], [2, 1, 0], [1, 0, 2]):
        for pi in ([0, 1, 2], [2, 0, 1]):
            assert greedy_matching_value(g, 1, sigma, pi) <= 2


def test_greedy_cycle_identity():
    assert greedy_matching_value(cycle_3x3(), 1, [0, 1, 2], [0, 1, 2]) == 3


def test_greedy_release_partial():
    # x0 grabs y0 then stalls at r=2; releasing lets x1 complete instead.
    g = BipartiteGraph.from_edges(2, 3, [(0, 0), (1, 0), (1, 1), (1, 2)])
    keep = greedy_matching_value(g, 2, [0, 1], [0, 1, 2], release_partial=False)
    release = greedy_matching_value(g, 2, [0, 1], [0, 1, 2], release_partial=True)
    assert keep == 1
    assert release == 1
    g2 = BipartiteGraph.from_edges(2, 2, [(0, 0), (1, 0), (1, 1)])
    assert greedy_matching_value(g2, 2, [0, 1], [0, 1], release_partial=False) == 0
    assert greedy_matching_value(g2, 2, [0, 1], [0, 1], release_partial=True) == 1


def test_greedy_validates_permutations():
    g = complete_graph(2, 2)
    with pytest.raises(ValueError, match="permutation"):
        greedy_matching_value(g, 1, [0, 0], [0, 1])
    with pytest.raises(ValueError, match="r must"):
        greedy_matching_value(g, 0, [0, 1], [0, 1])


def test_greedy_never_exceeds_k():
    g = complete_graph(3, 3)
    assert greedy_matching_value(g, 1, [0, 1, 2], [0, 1, 2]) == 3
    assert greedy_matching_value(g, 3, [0, 1, 2], [0, 1, 2]) == 1


def test_greedy_full_value_needs_enough_right_vertices():
    # value == k forces r*k <= n (every x holds r distinct vertices)
    for k, n, r in [(3, 7, 2), (3, 7, 3), (2, 5, 2), (4, 4, 2)]:
        g = complete_graph(k, n)
        val = greedy_matching_value(g, r, list(range(k)), list(range(n)))
        assert val <= k
        if val == k:
            assert r * k <= n


def test_sweep_monotonicity_flags():
    from nmpkit.harness import SweepRow, monotonicity_flags

    ok = [
        SweepRow(p=0.1, c=1, trials=10, successes=2, phat=0.2, wilson_lo=0.05, wilson_hi=0.5),
        SweepRow(p=0.2, c=2, trials=10, successes=1, phat=0.1, wilson_lo=0.02, wilson_hi=0.4),
    ]
    assert monotonicity_flags(ok) == []  # drop within interval overlap
    bad = [
        SweepRow(p=0.1, c=1, trials=10, successes=9, phat=0.9, wilson_lo=0.6, wilson_hi=0.98),
        SweepRow(p=0.2, c=2, trials=10, successes=1, phat=0.1, wilson_lo=0.02, wilson_hi=0.4),
    ]
    assert monotonicity_flags(bad) == [0]


# ----------------------------------------------------------------- rho brute


def test_rho_complete_3x3():
    assert rho_r_bruteforce(complete_graph(3, 3), 1).value == 1


def test_rho_isolated_left_vertex():
    g = BipartiteGraph.from_edges(3, 3, [(0, 0), (0, 1), (1, 0), (1, 1)])
    assert rho_r_bruteforce(g, 1).value <= Fraction(2, 3)


def test_rho_cycle_regression():
    res = rho_r_bruteforce(cycle_3x3(), 1)
    assert res.value == Fraction(2, 3)
    assert res.best_pi == (0, 1, 2)
    # the reported sigma really attains the minimum for that pi
    val = greedy_matching_value(cycle_3x3(), 1, list(res.worst_sigma), list(res.best_pi))
    assert val == 2


def test_rho_size_limit():
    with pytest.raises(ValueError, match="7"):
        rho_r_bruteforce(complete_graph(8, 8), 1)
