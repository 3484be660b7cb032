"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. Every tolerance and
runtime budget is fixed here; seeds are constants so reruns are identical.
"""

import math
import time
from fractions import Fraction

import pytest

from nmpkit import (
    PseudoParams,
    SweepConfig,
    Verdict,
    approx_nmp,
    build_euclidean_tree,
    check_nmp,
    euclid_factor_decompose,
    euclid_schedule,
    gen_gnp,
    gen_pg2,
    gen_sum_cayley,
    induced_subgraph,
    is_connected,
    left_set,
    mixing_audit,
    nmp_oracle_bruteforce,
    parse_star_array,
    right_set,
    rho_r_bruteforce,
    robust_delete,
    solve_star_array,
    threshold_sweep,
    validate_certificate,
    validate_star_fill,
    verify_thomason,
    verify_tree_factor,
)
from nmpkit.graph import BipartiteGraph
from nmpkit.harness import greedy_matching_value
from nmpkit.rng import SplitMix64, derive_seed

from conftest import complete_graph, remainder_and_factor

ORACLE_SEED = 20250101
SWEEP_SEED = 20260810
DECOMP_SEED = 777
CASE_A_SEED = 42
CASE_B_SEED = 9090
ROBUST_SEED = 2024
AUDIT_SEED = 314159


def _report(criterion: int, elapsed: float, budget: float, detail: str) -> None:
    assert elapsed < budget, f"criterion {criterion} exceeded budget: {elapsed:.1f}s >= {budget}s"
    print(f"PASS criterion {criterion}: {detail} ({elapsed:.1f}s < {budget:.0f}s)")


@pytest.fixture(scope="module")
def oracle_run():
    t0 = time.time()
    total = mismatches = sound = 0
    has_nmp = violated = 0
    for trial in range(2000):
        rng = SplitMix64(derive_seed(ORACLE_SEED, trial))
        k = 1 + rng.randbelow(10)
        n = 1 + rng.randbelow(12)
        p = (1 + rng.randbelow(9)) / 10
        g = gen_gnp(k, n, p, rng.next_u64())
        cert = check_nmp(g)
        oracle = nmp_oracle_bruteforce(g)
        total += 1
        if cert.verdict is not oracle.verdict:
            mismatches += 1
            continue
        if cert.verdict is Verdict.HAS_NMP:
            has_nmp += 1
        else:
            violated += 1
        validate_certificate(g, cert)  # raises when unsound
        sound += 1
    return {
        "elapsed": time.time() - t0,
        "total": total,
        "mismatches": mismatches,
        "sound": sound,
        "has_nmp": has_nmp,
        "violated": violated,
    }


def test_criterion_01_oracle_equivalence(oracle_run):
    r = oracle_run
    assert r["total"] == 2000
    assert r["mismatches"] == 0
    _report(
        1,
        r["elapsed"],
        30.0,
        f"flow vs brute-force verdicts agree on {r['total']}/{r['total']} graphs",
    )


def test_criterion_02_certificate_soundness(oracle_run):
    r = oracle_run
    assert r["sound"] == r["total"]
    _report(
        2,
        r["elapsed"],
        30.0,
        f"{r['has_nmp']} multiplicity certificates and {r['violated']} witnesses all re-validated",
    )


def test_criterion_03_euclidean_tree_suite():
    t0 = time.time()
    checked = 0
    for big_l in range(2, 61):
        for ell in range(1, big_l):
            if math.gcd(ell, big_l) != 1:
                continue
            tree = build_euclidean_tree(ell, big_l)
            g = tree.graph
            assert g.edge_count == ell + big_l - 1
            assert is_connected(g)
            assert check_nmp(g).verdict is Verdict.HAS_NMP
            sched = euclid_schedule(ell, big_l)
            assert sched.m <= 2.078 * math.log(big_l) + 0.6723
            checked += 1
    s58 = euclid_schedule(5, 8)
    assert s58.m == 4 and s58.q == (2, 1, 1, 1)
    _report(3, time.time() - t0, 10.0, f"{checked} coprime pairs verified, m(5,8)=4 q=(2,1,1,1)")


def test_criterion_04_threshold_reproduction():
    t0 = time.time()
    details = []
    for k, n in ((300, 300), (100, 400)):
        cfg = SweepConfig(k=k, n=n, trials=200, master_seed=SWEEP_SEED, c_grid=(0.5, 2.0))
        low, high = threshold_sweep(cfg)
        assert low.phat <= 0.15, f"k={k}, n={n}: below-threshold phat {low.phat}"
        assert high.phat >= 0.85, f"k={k}, n={n}: above-threshold phat {high.phat}"
        details.append(f"{k}x{n}: {low.phat:.3f}/{high.phat:.3f}")
    _report(4, time.time() - t0, 300.0, "below<=0.15, above>=0.85 at " + "; ".join(details))


def test_criterion_05_decomposition_end_to_end():
    t0 = time.time()
    g = gen_gnp(300, 500, 0.5, DECOMP_SEED)
    tr = euclid_factor_decompose(g, 0.05)
    dx, dy = 0, 0
    for s in tr.stages:
        if s.anchor_side == "X":
            assert s.d_x == dx + s.corrupt_x
            assert s.d_y == dy + s.s_size + s.b_size + s.corrupt_y
        else:
            assert s.d_y == dy + s.corrupt_y
            assert s.d_x == dx + s.s_size + s.a_size + s.corrupt_x
        dx, dy = s.d_x, s.d_y
    assert (300 - len(tr.D_X)) * 5 == (500 - len(tr.D_Y)) * 3
    sub, mapped = remainder_and_factor(g, tr.D_X, tr.D_Y, tr.factor)
    rep = verify_tree_factor(sub, mapped, 3, 5, require_spanning=True)
    assert rep.ok, rep.problems
    assert check_nmp(sub).verdict is Verdict.HAS_NMP
    fx, fy = len(tr.D_X) / 300, len(tr.D_Y) / 500
    assert fx <= 0.10 and fy <= 0.10
    _report(
        5,
        time.time() - t0,
        60.0,
        f"trace exact, ratio identity, spanning factor, remainder NMP, deletions {fx:.1%}/{fy:.1%}",
    )


def test_criterion_06_case_a_constants():
    t0 = time.time()
    g = gen_gnp(100, 1700, 0.4, CASE_A_SEED)
    from nmpkit import estimate_thomason_params

    params = estimate_thomason_params(g)
    eps = float(params.eps)
    res = approx_nmp(g, eps, mode="auto")
    assert res.case == "a"
    assert res.fraction_x <= 4 * eps
    assert res.fraction_y <= 3 * math.sqrt(eps)
    assert res.remainder_nmp_verified
    _report(
        6,
        time.time() - t0,
        30.0,
        f"eps={eps:.4f}: |X_hat|/k={res.fraction_x:.3f}<=4eps, "
        f"|Y_hat|/n={res.fraction_y:.3f}<=3*sqrt(eps), remainder NMP",
    )


def test_criterion_07_case_b_path():
    t0 = time.time()
    eps = 0.01
    g = gen_gnp(2000, 2200, 0.3, CASE_B_SEED)
    res = approx_nmp(g, eps, mode="auto")
    assert res.case == "b"
    cb = res.case_b
    alpha, eta = eps ** 0.75, eps ** 0.25
    unit = math.floor(alpha * 2200)
    assert cb.N % unit == 0 and 2200 * (1 - alpha) <= cb.N <= 2200
    assert cb.K % unit == 0 and 2000 * (1 - 2 * eta) <= cb.K <= 2000 * (1 - eta)
    assert cb.L <= eps ** -0.75
    assert res.remainder_nmp_verified
    budget = 7 * eps ** 0.25 * math.log(1 / eps)
    assert res.fraction_x <= budget and res.fraction_y <= budget
    _report(
        7,
        time.time() - t0,
        120.0,
        f"K={cb.K}, N={cb.N}, (ell,L)=({cb.ell},{cb.L}), L<=eps^-0.75, "
        f"deleted {res.fraction_x:.3f}/{res.fraction_y:.3f} <= {budget:.2f}, remainder NMP",
    )


def test_criterion_08_pseudorandom_generators():
    t0 = time.time()
    pg = gen_pg2(11)
    params = PseudoParams(Fraction(12, 133), 0)
    rep = verify_thomason(pg, params)
    assert rep.passed
    assert rep.max_codegree == 1
    # all codegrees exactly 1
    import numpy as np

    m = pg.matrix().astype(np.int64)
    codegrees = (m @ m.T)[~np.eye(pg.k, dtype=bool)]
    assert codegrees.min() == codegrees.max() == 1
    audit = mixing_audit(pg, params, 1000, AUDIT_SEED, form="thomason")
    assert audit.violations == 0

    sc = gen_sum_cayley(101, 2)
    assert all(sc.graph.degree(x) == 50 for x in range(101))
    ab = mixing_audit(
        sc.graph, None, 1000, AUDIT_SEED, form="alon_bourgain", h_size=50, q=101
    )
    assert ab.violations == 0
    _report(
        8,
        time.time() - t0,
        30.0,
        "pg2(11) verifies (12/133, 0) with all codegrees 1, 0/1000 mixing violations; "
        "sumcayley(101,2) degrees 50, 0/1000 spectral-form violations",
    )


def test_criterion_09_robustness_lemma():
    t0 = time.time()
    g = gen_pg2(11)
    res = robust_delete(g, Fraction(12, 133), 0, eps=0.3, d_size=3, seed=ROBUST_SEED)
    assert len(res.c_y) == 3
    cap = 2 * math.exp(-(49 / 64) / 0.3) * 133
    assert len(res.c_x) <= cap
    assert res.reverify.passed
    # re-verify once more against the exact decimal parameters of the claim
    keep_x = left_set(set(range(133)) - set(res.c_x.members))
    keep_y = right_set(set(range(133)) - set(res.c_y.members))
    sub, _, _ = induced_subgraph(g, keep_x, keep_y)
    exact = PseudoParams(Fraction(12, 133) * Fraction(7, 10), Fraction(9, 2))
    assert verify_thomason(sub, exact).passed
    _report(
        9,
        time.time() - t0,
        5.0,
        f"|C_Y|=3, |C_X|={len(res.c_x)}<={cap:.1f}, reverify at (p1, eps1)=(0.7*p0, 4.5) passes",
    )


def test_criterion_10_star_array_round_trip():
    t0 = time.time()
    arr = parse_star_array("\n".join(["*" * 6] * 4))
    sol = solve_star_array(arr)
    assert sol.feasible and (sol.row_sum, sol.col_sum) == (3, 2)
    validate_star_fill(arr, sol)

    bad = parse_star_array("**0*\n**0*\n**0*\n")
    sol_bad = solve_star_array(bad)
    assert not sol_bad.feasible
    from nmpkit import neighborhood
    from nmpkit.harness import star_array_graph

    g = star_array_graph(bad)
    ns = neighborhood(g, sol_bad.witness_rows)
    assert g.k * len(ns) < g.n * len(sol_bad.witness_rows)
    _report(10, time.time() - t0, 1.0, "4x6 all-star fills with R=3, C=2; zero column yields a valid witness")


def test_criterion_11_greedy_matching():
    t0 = time.time()
    for k in range(1, 7):
        for n in range(k, 7):
            res = rho_r_bruteforce(complete_graph(k, n), n // k)
            assert res.value == 1, (k, n, res.value)
    cycle = BipartiteGraph.from_edges(
        3, 3, [(i, i) for i in range(3)] + [(i, (i + 1) % 3) for i in range(3)]
    )
    assert greedy_matching_value(cycle, 1, [0, 1, 2], [0, 1, 2]) == 3
    _report(
        11,
        time.time() - t0,
        60.0,
        "rho(K_{k,n}, floor(n/k)) = 1 for all k<=n<=6; cycle greedy value 3",
    )
