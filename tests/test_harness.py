import dataclasses
from fractions import Fraction

import pytest

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
from nmpkit.harness import sweep_csv, star_array_graph

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
