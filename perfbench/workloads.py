"""The three benchmark workloads.

Each workload builds its inputs from the run's seed in `setup`, then `op`
makes the calls a user makes through nmpkit's public API and returns their
results. `check` validates one result without trusting the solver and
returns its fingerprint; it raises on any defect. `counts` gives computed
(not measured) sizes of the work one op did.

Calls go through `nk.<name>` at call time, never through names bound at
import, so the traced run's wrappers see them.

Why these three:
- approx_b: the `nmp decompose g.txt` path: `parse_graph`, then case (b) of
  `approx_nmp`. Parsing and graph plumbing (`from_edges`,
  `induced_subgraph`) and the remainder's HasNMP flow dominate, not the
  decomposition itself.
- sweep: 200 tiny flows per op, about half of them Violated, so per-call
  overhead and the min-cut witness path dominate.
- pseudo_pg2: exact pseudorandomness scans on PG(2, 47); touches neither
  `flow` nor `nmpcheck`, so solver changes must leave it unchanged.

approx_b uses G(1000, 1100, 0.3), not the G(2000, 2200, 0.3) of the ROADMAP
baseline: on a shared 2-vCPU VM the larger working set spread the per-run
median op time by about a quarter between runs. A separate `nmp check
g.txt` workload (parse plus `check_nmp` on dense G(k, k, 0.5)) was dropped so
that each remaining run can last longer within the same total time; approx_b
covers its parse and single-large-flow layers.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import nmpkit as nk
from nmpkit.harness import SweepConfig, sweep_csv
from nmpkit.rng import derive_seed


class CheckFailed(ValueError):
    """A result failed its validator."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _digest(values) -> str:
    return hashlib.sha256(",".join(map(str, values)).encode()).hexdigest()[:16]


class ApproxB:
    name = "approx_b"
    P = 0.3
    EPS = 0.01

    def __init__(self, k: int = 1000, n: int = 1100):
        self.k, self.n = k, n

    def setup(self, seed: int) -> None:
        g = nk.gen_gnp(self.k, self.n, self.P, seed)
        self.edge_count = g.edge_count
        self.text = nk.serialize_graph(g)

    def op(self):
        g = nk.parse_graph(self.text)
        return g, nk.approx_nmp(g, self.EPS)

    def check(self, result) -> dict:
        g, res = result
        eps = self.EPS
        _require((g.k, g.n, g.edge_count) == (self.k, self.n, self.edge_count),
                 "parsed graph differs from the generated one")
        _require(res.case == "b", f"expected case b, got {res.case}")
        cb = res.case_b
        alpha, eta = eps ** 0.75, eps ** 0.25
        unit = math.floor(alpha * g.n)
        _require(cb.N % unit == 0 and g.n * (1 - alpha) <= cb.N <= g.n, f"N={cb.N} out of bounds")
        _require(cb.K % unit == 0 and g.k * (1 - 2 * eta) <= cb.K <= g.k * (1 - eta),
                 f"K={cb.K} out of bounds")
        _require(cb.L <= eps ** -0.75, f"L={cb.L} > eps^-0.75")
        _require(res.remainder_nmp_verified, "remainder not verified NMP")
        budget = 7 * eps ** 0.25 * math.log(1 / eps)
        _require(res.fraction_x <= budget and res.fraction_y <= budget, "deletions over budget")
        # A spanning T_{ell,L}-factor of the remainder proves it has NMP
        # without the flow solver.
        rem = nk.approx_remainder(g, res)
        xs = sorted(set(range(g.k)) - set(res.x_hat.members))
        ys = sorted(set(range(g.n)) - set(res.y_hat.members))
        li = {o: i for i, o in enumerate(xs)}
        ri = {o: j for j, o in enumerate(ys)}
        try:
            mapped = nk.TreeFactor(res.factor.ell, res.factor.L, tuple(
                nk.TreeCopy(
                    tuple(li[h] for h in c.left_by_role),
                    tuple(ri[h] for h in c.right_by_role),
                    tuple((li[x], ri[y]) for x, y in c.edges),
                )
                for c in res.factor.copies
            ))
        except KeyError as exc:
            raise CheckFailed(f"factor uses deleted vertex {exc}") from None
        rep = nk.verify_tree_factor(rem, mapped, cb.ell, cb.L, require_spanning=True)
        _require(rep.ok, f"tree factor rejected: {rep.problems[:3]}")
        return {
            "case": res.case,
            "K": cb.K,
            "N": cb.N,
            "ell_L": [cb.ell, cb.L],
            "x_hat": [len(res.x_hat), _digest(res.x_hat.members)],
            "y_hat": [len(res.y_hat), _digest(res.y_hat.members)],
        }

    def counts(self, result) -> dict:
        _, res = result
        return {"fraction_x": res.fraction_x, "fraction_y": res.fraction_y}


class Sweep:
    name = "sweep"

    C_GRID = (0.5, 1.0, 1.5, 2.0)

    def __init__(self, k: int = 300, n: int = 300, trials: int = 50):
        self.k, self.n, self.trials = k, n, trials
        self.recheck_point = 0

    def setup(self, seed: int) -> None:
        self.cfg = SweepConfig(k=self.k, n=self.n, trials=self.trials,
                               master_seed=seed, c_grid=self.C_GRID)

    def op(self):
        return nk.threshold_sweep(self.cfg)

    def check(self, rows) -> dict:
        cfg = self.cfg
        _require(len(rows) == len(cfg.c_grid), "wrong number of rows")
        for r in rows:
            _require(r.trials == cfg.trials and r.phat == r.successes / r.trials,
                     "row totals inconsistent")
        # Recheck one grid point per op, rotating, trial by trial with the
        # solver-independent validator; it must reproduce the row's count.
        gi = self.recheck_point
        self.recheck_point = (gi + 1) % len(rows)
        p = min(1.0, cfg.c_grid[gi] * math.log(cfg.n) / cfg.k)
        _require(rows[gi].p == p, f"row {gi}: p={rows[gi].p}, expected {p}")
        point_seed = derive_seed(cfg.master_seed, gi)
        successes, witnesses = 0, []
        for trial in range(cfg.trials):
            g = nk.gen_gnp(cfg.k, cfg.n, p, derive_seed(point_seed, trial))
            cert = nk.check_nmp(g)
            try:
                nk.validate_certificate(g, cert)
            except ValueError as exc:
                raise CheckFailed(f"row {gi} trial {trial}: {exc}") from None
            if cert.verdict is nk.Verdict.HAS_NMP:
                successes += 1
            else:
                # The source side of a maximum flow's residual graph is the
                # same for every maximum flow, so any correct solver gives
                # this witness.
                witnesses.append(_digest(cert.witness.members))
        _require(successes == rows[gi].successes,
                 f"row {gi}: recheck found {successes}, row says {rows[gi].successes}")
        csv = sweep_csv(rows, cfg, nk.__version__)
        return {
            "successes": [r.successes for r in rows],
            f"witnesses_row{gi}": _digest(witnesses),
            "csv_sha256": hashlib.sha256(csv.encode()).hexdigest(),
        }

    def counts(self, rows) -> dict:
        violated = sum(r.trials - r.successes for r in rows)
        return {"violated_share": violated / sum(r.trials for r in rows)}


class PseudoPG2:
    name = "pseudo_pg2"

    def __init__(self, q: int = 47, samples: int = 200):
        self.q, self.samples = q, samples

    def setup(self, seed: int) -> None:
        self.g = nk.gen_pg2(self.q)
        self.params = nk.PseudoParams(Fraction(self.q + 1, self.g.n), 0)
        self.audit_seed = seed

    def op(self):
        g, params = self.g, self.params
        return (
            nk.verify_thomason(g, params),
            nk.estimate_thomason_params(g),
            nk.mixing_audit(g, params, self.samples, self.audit_seed),
        )

    def check(self, result) -> dict:
        rep, est, audit = result
        # Exact values for PG(2, q): every degree is q + 1 and any two points
        # share exactly one line.
        _require(rep.passed, "verify_thomason failed at the exact parameters")
        _require(rep.max_codegree == 1, f"max codegree {rep.max_codegree} != 1")
        _require(rep.min_left_degree == self.q + 1, f"min degree {rep.min_left_degree}")
        _require(est == self.params, f"estimate {est} != {self.params}")
        _require(audit.samples == self.samples and audit.violations == 0,
                 f"{audit.violations} mixing violations")
        return {
            "passed": rep.passed,
            "max_codegree": rep.max_codegree,
            "min_left_degree": rep.min_left_degree,
            "estimate": [str(est.p), str(est.eps)],
            "audit": [audit.violations, list(audit.worst_pair_sizes), repr(audit.worst_margin)],
        }

    def counts(self, result) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (ApproxB, Sweep, PseudoPG2)}
