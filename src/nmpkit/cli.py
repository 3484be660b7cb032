"""Command-line interface.

Exit codes: 0 success (a violated/infeasible verdict is a successful
negative answer), 1 domain errors, 2 usage or file-format errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction

from . import __version__
from .decompose import approx_nmp
from .euclid import build_euclidean_tree, euclid_schedule
from .graph import (
    FormatError,
    _is_int_token,
    _read_text,
    is_connected,
    load_graph,
    save_graph,
    serialize_graph,
)
from .harness import (
    SweepConfig,
    format_star_solution,
    greedy_matching_value,
    monotonicity_flags,
    parse_star_array,
    rho_r_bruteforce,
    solve_star_array,
    sweep_csv,
    threshold_sweep,
)
from .nmpcheck import Verdict, check_nmp
from .pseudo import (
    PseudoParams,
    _estimate_scan,
    _thomason_report,
    gen_gnp,
    gen_pg2,
    gen_sum_cayley,
    mixing_audit,
    robust_delete,
    verify_thomason,
)


def _fraction(text: str) -> Fraction:
    # Accepts "12/133", "0.3", "1"; decimal strings become exact decimals.
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None


def _csv_of(convert, what: str):
    """argparse type for a comma-separated list of values that convert reads."""
    def parse(text: str) -> tuple:
        try:
            return tuple(convert(tok) for tok in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"not a comma-separated list of {what}: {text!r}"
            ) from None
    return parse


def _cmd_check(args) -> int:
    g = load_graph(args.graph)
    cert = check_nmp(g)
    if args.emit_multiplicity:
        if cert.multiplicity is None:
            print("no multiplicity function: graph is violated", file=sys.stderr)
            return 1
        with open(args.emit_multiplicity, "w", encoding="utf-8") as fh:
            fh.writelines(f"m {x} {y} {m}\n" for (x, y), m in cert.multiplicity.items())
    if args.json:
        payload = {
            "verdict": cert.verdict.value,
            "row_sum": cert.row_sum,
            "col_sum": cert.col_sum,
            "witness": list(cert.witness) if cert.witness is not None else None,
            "witness_neighborhood": cert.witness_neighborhood_size,
        }
        print(json.dumps(payload))
    elif cert.verdict is Verdict.HAS_NMP:
        print(f"has_nmp row_sum={cert.row_sum} col_sum={cert.col_sum}")
    else:
        print(
            f"violated witness_size={len(cert.witness)} "
            f"witness_neighborhood={cert.witness_neighborhood_size} "
            f"witness={' '.join(str(x) for x in cert.witness)}"
        )
    return 0


def _cmd_tree(args) -> int:
    tree = build_euclidean_tree(args.l, args.L)
    sched = euclid_schedule(args.l, args.L)
    if args.emit:
        save_graph(
            tree.graph,
            args.emit,
            comments=[f"euclidean tree T_{{{args.l},{args.L}}} m={sched.m}"],
        )
    else:
        sys.stdout.write(serialize_graph(tree.graph))
    if args.verify:
        g = tree.graph
        ok_edges = g.edge_count == args.l + args.L - 1
        ok_conn = is_connected(g)
        verdict = check_nmp(g).verdict
        print(
            f"verify: edges={g.edge_count} expected={args.l + args.L - 1} "
            f"connected={ok_conn} nmp={verdict.value} m={sched.m} "
            f"bound={sched.complexity_bound:.3f}",
            file=sys.stderr,
        )
        if not (ok_edges and ok_conn and verdict is Verdict.HAS_NMP):
            return 1
    return 0


def _cmd_gen(args) -> int:
    if args.generator == "gnp":
        g = gen_gnp(args.k, args.n, args.p, args.seed)
        comments = [f"gnp k={args.k} n={args.n} p={args.p} seed={args.seed} algo=splitmix64"]
    elif args.generator == "sumcayley":
        x_spec = "all" if args.x_list is None else _read_int_list(args.x_list)
        y_spec = "all" if args.y_list is None else _read_int_list(args.y_list)
        res = gen_sum_cayley(args.q, args.d, x_spec, y_spec)
        g = res.graph
        comments = [f"sumcayley q={args.q} d={args.d} |H|={len(res.h)}"]
    else:
        g = gen_pg2(args.q)
        comments = [f"pg2 q={args.q} points=lines={g.k}"]
    if args.out:
        save_graph(g, args.out, comments=comments)
        print(f"wrote {args.out} k={g.k} n={g.n} edges={g.edge_count}")
    else:
        sys.stdout.write(serialize_graph(g, comments=comments))
    return 0


def _read_int_list(path: str) -> list[int]:
    """The integers of a --x-list/--y-list file, split by commas or whitespace."""
    values: list[int] = []
    for lineno, line in enumerate(_read_text(path).replace(",", " ").splitlines(), start=1):
        for tok in line.split():
            if not _is_int_token(tok):
                raise FormatError(f"line {lineno}: not an integer: {tok!r}")
            values.append(int(tok))
    return values


def _cmd_verify_pseudo(args) -> int:
    g = load_graph(args.graph)
    eps = args.eps if args.eps is not None else Fraction(0)
    est = scan = None
    if args.estimate:
        # The estimate's errors (k < 2, an isolated left vertex) come first,
        # a bad --p is reported after it, and the report comes from its scan.
        est, scan = _estimate_scan(g)
        print(f"estimated p={float(est.p):.6g} ({est.p}) eps={float(est.eps):.6g} ({est.eps})")
    if args.p is not None:
        params = PseudoParams(args.p, eps)
    elif est is not None:
        params = est
    else:
        print("either --p or --estimate is required", file=sys.stderr)
        return 2
    if not params.eps_in_definition_range:
        print(f"warning: eps = {float(params.eps):.6g} >= 1 is outside the defining range",
              file=sys.stderr)
    rep = verify_thomason(g, params) if scan is None else _thomason_report(g, params, scan)
    status = "pass" if rep.passed else "fail"
    extra = ""
    if rep.violating_vertex is not None:
        extra += f" violating_vertex={rep.violating_vertex}"
    if rep.violating_pair is not None:
        extra += f" violating_pair={rep.violating_pair[0]},{rep.violating_pair[1]}"
    print(
        f"{status} min_left_degree={rep.min_left_degree} "
        f"max_codegree={rep.max_codegree}{extra}"
    )
    return 0


def _cmd_audit(args) -> int:
    g = load_graph(args.graph)
    if args.alon_bourgain:
        if args.q is None or args.h_size is None:
            print("--alon-bourgain needs --q and --h-size", file=sys.stderr)
            return 2
        rep = mixing_audit(
            g, None, args.samples, args.seed, form="alon_bourgain",
            h_size=args.h_size, q=args.q,
        )
    elif args.p is None:
        print("--p is required unless --alon-bourgain is given", file=sys.stderr)
        return 2
    else:
        params = PseudoParams(args.p, args.eps)
        rep = mixing_audit(g, params, args.samples, args.seed, form="thomason")
    print(
        f"form={rep.form} samples={rep.samples} violations={rep.violations} "
        f"worst_margin={rep.worst_margin:.6g} worst_pair_sizes={rep.worst_pair_sizes}"
    )
    return 0


def _cmd_robust_delete(args) -> int:
    g = load_graph(args.graph)
    res = robust_delete(
        g, args.p0, args.eps0, args.eps, args.D, args.seed, args.max_attempts
    )
    print(
        f"|C_X|={len(res.c_x)} |C_Y|={len(res.c_y)} attempts={res.attempts} "
        f"t={res.threshold_t:.6g} bad_bound={res.bad_bound:.6g} "
        f"p1={float(res.p1):.6g} eps1={float(res.eps1):.6g} "
        f"reverify={'pass' if res.reverify.passed else 'fail'}"
    )
    print("C_X: " + " ".join(str(v) for v in res.c_x))
    print("C_Y: " + " ".join(str(v) for v in res.c_y))
    return 0


def _cmd_decompose(args) -> int:
    g = load_graph(args.graph)
    res = approx_nmp(g, args.eps, mode=args.mode)
    print(
        f"case={res.case} |X_hat|={len(res.x_hat)} |Y_hat|={len(res.y_hat)} "
        f"fraction_x={res.fraction_x:.6g} fraction_y={res.fraction_y:.6g} "
        f"copies={len(res.factor.copies)} T=({res.factor.ell},{res.factor.L}) "
        f"remainder_nmp={'yes' if res.remainder_nmp_verified else 'no'}"
    )
    if args.trace_json:
        payload: dict = {
            "case": res.case,
            "x_hat": list(res.x_hat),
            "y_hat": list(res.y_hat),
            "fraction_x": res.fraction_x,
            "fraction_y": res.fraction_y,
            "remainder_nmp_verified": res.remainder_nmp_verified,
        }
        if res.case_b is not None:
            payload["case_b"] = dataclasses.asdict(res.case_b)
        if res.trace is not None:
            tr = res.trace
            payload["trace"] = {
                "k": tr.k,
                "n": tr.n,
                "t": tr.t,
                "ell": tr.ell,
                "L": tr.L,
                "eps": tr.eps,
                "d0": tr.d0,
                "m": tr.schedule.m,
                "r": list(tr.schedule.r),
                "q": list(tr.schedule.q),
                "stages": [dataclasses.asdict(s) for s in tr.stages],
            }
        with open(args.trace_json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
    if args.emit_factor:
        with open(args.emit_factor, "w", encoding="utf-8") as fh:
            for cid, copy in enumerate(res.factor.copies):
                xs = " ".join(str(v) for v in copy.left_by_role)
                ys = " ".join(str(v) for v in copy.right_by_role)
                fh.write(f"copy {cid}: X {xs} | Y {ys}\n")
    return 0


def _cmd_sweep(args) -> int:
    if (args.p_list is None) == (args.c_list is None):
        print("exactly one of --p-list / --c-list is required", file=sys.stderr)
        return 2
    cfg = SweepConfig(
        k=args.k,
        n=args.n,
        trials=args.trials,
        master_seed=args.seed,
        p_grid=args.p_list,
        c_grid=args.c_list,
    )
    rows = threshold_sweep(cfg)
    text = sweep_csv(rows, cfg, __version__)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out} ({len(rows)} rows)")
    else:
        sys.stdout.write(text)
    for i in monotonicity_flags(rows):
        print(
            f"note: empirical probability drops between grid rows {i} and {i + 1} "
            "beyond interval overlap",
            file=sys.stderr,
        )
    return 0


def _cmd_star(args) -> int:
    arr = parse_star_array(_read_text(args.file))
    sol = solve_star_array(arr)
    text = format_star_solution(sol)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_greedy(args) -> int:
    g = load_graph(args.graph)
    if args.bruteforce:
        res = rho_r_bruteforce(g, args.r)
        print(
            f"rho={res.value} best_pi={','.join(map(str, res.best_pi))} "
            f"worst_sigma={','.join(map(str, res.worst_sigma))}"
        )
        return 0
    sigma = args.sigma or list(range(g.k))
    pi = args.pi or list(range(g.n))
    val = greedy_matching_value(g, args.r, sigma, pi, release_partial=args.release_partial)
    print(f"m_r={val} k={g.k}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nmp",
        description="Normalized matching property toolkit: exact decisions, "
        "Euclidean tree factorizations, pseudorandomness audits.",
    )
    ap.add_argument("--version", action="version", version=f"nmp {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide NMP for a graph file")
    p.add_argument("graph")
    p.add_argument("--json", action="store_true")
    p.add_argument("--emit-multiplicity", metavar="FILE")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("tree", help="emit the Euclidean tree T_{l,L}")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--emit", metavar="FILE")
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=_cmd_tree)

    p = sub.add_parser("gen", help="graph generators")
    gsub = p.add_subparsers(dest="generator", required=True)
    pg = gsub.add_parser("gnp", help="seeded G(k, n, p)")
    pg.add_argument("--k", type=int, required=True)
    pg.add_argument("--n", type=int, required=True)
    pg.add_argument("--p", type=float, required=True)
    pg.add_argument("--seed", type=int, required=True)
    pg.add_argument("--out", metavar="FILE")
    pg.set_defaults(func=_cmd_gen)
    pc = gsub.add_parser("sumcayley", help="x ~ y iff x + y is a d-th power residue mod q")
    pc.add_argument("--q", type=int, required=True)
    pc.add_argument("--d", type=int, required=True)
    pc.add_argument("--x-list", metavar="FILE", help="field elements for X (default: all of F_q)")
    pc.add_argument("--y-list", metavar="FILE", help="field elements for Y (default: all of F_q)")
    pc.add_argument("--out", metavar="FILE")
    pc.set_defaults(func=_cmd_gen)
    pp = gsub.add_parser("pg2", help="point-line incidences of PG(2, q)")
    pp.add_argument("--q", type=int, required=True)
    pp.add_argument("--out", metavar="FILE")
    pp.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify-pseudo", help="exact (p, eps) pseudorandomness check")
    p.add_argument("graph")
    p.add_argument("--p", type=_fraction)
    p.add_argument("--eps", type=_fraction)
    p.add_argument("--estimate", action="store_true")
    p.set_defaults(func=_cmd_verify_pseudo)

    p = sub.add_parser("audit", help="sampled mixing-inequality audit")
    p.add_argument("graph")
    p.add_argument("--p", type=_fraction)
    p.add_argument("--eps", type=_fraction, default=Fraction(0))
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--alon-bourgain", action="store_true")
    p.add_argument("--q", type=int)
    p.add_argument("--h-size", type=int)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("robust-delete", help="delete a right slab, keep pseudorandomness")
    p.add_argument("graph")
    p.add_argument("--p0", type=_fraction, required=True)
    p.add_argument("--eps0", type=_fraction, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-attempts", type=int, default=100)
    p.set_defaults(func=_cmd_robust_delete)

    p = sub.add_parser("decompose", help="NMP approximation by deletion")
    p.add_argument("graph")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--mode", choices=["auto", "a", "b"], default="auto")
    p.add_argument("--trace-json", metavar="FILE")
    p.add_argument("--emit-factor", metavar="FILE")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("sweep", help="Monte Carlo NMP probability over a grid")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p-list", type=_csv_of(float, "numbers"), metavar="a,b,c")
    p.add_argument("--c-list", type=_csv_of(float, "numbers"), metavar="a,b,c",
                   help="multipliers of ln(n)/k")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", metavar="CSV")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("star", help="fill a {0,*} array to constant row/column sums")
    p.add_argument("file")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=_cmd_star)

    p = sub.add_parser("greedy", help="greedy r-neighbor matching value")
    p.add_argument("graph")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--sigma", type=_csv_of(int, "integers"), metavar="CSV")
    p.add_argument("--pi", type=_csv_of(int, "integers"), metavar="CSV")
    p.add_argument("--bruteforce", action="store_true")
    p.add_argument("--release-partial", action="store_true")
    p.set_defaults(func=_cmd_greedy)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())
