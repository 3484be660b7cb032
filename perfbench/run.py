"""nmpkit benchmark: one workload per process, single-client closed loop.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload approx_b --seed 1 --seconds 34 --trace 0

The run imports nmpkit from the checkout's `src/`, builds the workload's
inputs from `--seed`, runs one warm-up op, then runs ops back to back for
`--seconds` seconds. Every op's result is validated outside the timed
region; an op that raises, fails validation or whose fingerprint disagrees
with an earlier op's counts as failed. The last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`.

Times in the end-to-end metrics are reference seconds, not wall seconds:
each op and each set-up is preceded by the calibration kernel of
`calib.py`, and its wall time is rescaled by how long that kernel took (see
`calib.py` for why; on a shared VM the host's speed drifts by up to 1.7x).
On a machine where the kernel takes `calib.REF_S` they equal wall seconds.
The per-op wall seconds are printed on a comment line before the result.

`--trace 0` reports the end-to-end metrics. `--trace 1` alternates untraced
ops with ops during which every function in `targets()` is wrapped by a span
recorder, and reports per-layer self time and calls per op, computed counts
per op and the tracing overhead, all in wall seconds, plus the kernel's
median wall time. Alternating keeps the machine's drift out of the overhead.
The spans are written to `perfbench/out/`.

Run hygiene, and why (timings from a 2-vCPU VM):
- One warm-up op: the first op of `parse_graph` plus `check_nmp` on
  G(1000, 1000, 0.5) took 1.7 s + 2.1 s against about 1.0 s + 1.0 s later
  (allocator growth and cold caches).
- `gc.collect()` between ops, with gc left on: a stray gen-2 collection
  inside one `approx_nmp` op made it take 1.86 s against a 1.01 s median.
- BLAS/OpenMP thread pools are capped at the CPUs this process may use.
- `setup_s` is the median of five set-ups. Each is an `import nmpkit` in a
  fresh interpreter, started after this one has imported nmpkit, plus the
  workload's input generation. A single import in this process would be one
  cold sample whose time depends on the page cache; sweep's set-up is almost
  all import.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import calib
from spans import Recorder, Target, install

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Validators run in the benchmark's "check" span, outside the timed op; their
# per-op numbers are aggregated over check spans, everything else over ops.
VALIDATORS = ("nmpcheck.validate_certificate", "euclid.verify_tree_factor")
COMPUTED = ("flow_nodes", "flow_arcs", "codegree_scan_bytes",
            "violated_share", "fraction_x", "fraction_y")


class FingerprintMismatch(ValueError):
    """An op's fingerprint differs from the warm-up op's."""


def _flow_size(g, *args, **kwargs) -> dict:
    # Network of nmpcheck: source, k lefts, n rights, sink; one arc per
    # left, per edge and per right.
    return {"flow_nodes": g.k + g.n + 2, "flow_arcs": g.k + g.n + g.edge_count}


def _codegree_bytes(g, *args, **kwargs) -> dict:
    # One codegree scan ANDs every left pair of packed rows: two operand
    # rows of ceil(n/8) bytes per pair.
    return {"codegree_scan_bytes": g.k * (g.k - 1) // 2 * -(-g.n // 8) * 2}


def targets() -> list[Target]:
    return [
        Target("graph", "parse_graph"),
        Target("graph", "BipartiteGraph.from_edges"),
        Target("graph", "BipartiteGraph.from_matrix"),
        Target("graph", "BipartiteGraph.matrix"),
        Target("graph", "induced_subgraph"),
        Target("graph", "edge_count_between"),
        Target("graph", "neighborhood"),
        Target("rng", "uniform_stream"),
        Target("rng", "SplitMix64.sample"),
        Target("pseudo", "gen_gnp"),
        Target("pseudo", "verify_thomason", _codegree_bytes),
        Target("pseudo", "estimate_thomason_params", _codegree_bytes),
        Target("pseudo", "mixing_audit"),
        Target("pseudo", "mixing_deviation"),
        Target("nmpcheck", "check_nmp", _flow_size),
        Target("nmpcheck", "validate_certificate"),
        Target("flow", "max_flow"),
        Target("decompose", "approx_nmp"),
        Target("decompose", "euclid_factor_decompose"),
        Target("decompose", "extract_thrill"),
        Target("decompose", "approx_remainder"),
        Target("euclid", "build_euclidean_tree"),
        Target("euclid", "verify_tree_factor"),
        Target("harness", "threshold_sweep"),
    ]


def cap_threads() -> int:
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 1 <= int(cur) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def import_nmpkit() -> None:
    src = ROOT / "src"
    if not (src / "nmpkit" / "__init__.py").is_file():
        raise SystemExit(f"no nmpkit sources under {src}")
    sys.path.insert(0, str(src))
    nk = importlib.import_module("nmpkit")
    if Path(nk.__file__).resolve().parent != src / "nmpkit":
        raise SystemExit(f"imported nmpkit from {nk.__file__}, not from {src}")


def git_sha() -> str:
    """HEAD's commit, read from `.git` without running git: loose or packed
    refs, detached HEAD, and worktrees. "unknown" when it cannot be found."""
    git = ROOT / ".git"
    if git.is_file():  # a worktree: "gitdir: <path>"
        text = git.read_text().strip()
        if not text.startswith("gitdir: "):
            return "unknown"
        git = (ROOT / text[len("gitdir: "):]).resolve()
    head = git / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref if len(ref) >= 40 and all(c in "0123456789abcdef" for c in ref) else "unknown"
    name = ref[len("ref: "):]
    dirs = [git]
    if (git / "commondir").is_file():
        dirs.append((git / (git / "commondir").read_text().strip()).resolve())
    for d in dirs:
        if (d / name).is_file():
            return (d / name).read_text().strip()
        if (d / "packed-refs").is_file():
            for line in (d / "packed-refs").read_text().splitlines():
                sha, _, packed_name = line.partition(" ")
                if packed_name == name:
                    return sha
    return "unknown"


def import_seconds() -> float:
    """Wall seconds `import nmpkit` takes in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import nmpkit; print(time.perf_counter() - t)")
    p = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")], capture_output=True,
                       text=True, check=True, timeout=120)
    return float(p.stdout)


def environment(nproc: int) -> dict:
    import numpy

    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "nmpkit").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        scipy = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy = None
    return {"git_sha": git_sha(), "src_sha256": src.hexdigest()[:16],
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy, "nproc": nproc}


@dataclass
class Tally:
    """Outcome of a sequence of ops: times of ops that returned, counts,
    and the fingerprint every op must agree with."""

    reference: dict = field(default_factory=dict)
    times: list[float] = field(default_factory=list)  # wall seconds
    ref_times: list[float] = field(default_factory=list)  # reference seconds
    kernel_times: list[float] = field(default_factory=list)  # calibration, wall seconds
    attempted: int = 0
    failed: int = 0
    counts: list[dict] = field(default_factory=list)

    def attempt(self, wl, rec=None) -> None:
        """Run, time and check one op."""
        kernel_s = calib.kernel_seconds()
        self.kernel_times.append(kernel_s)
        gc.collect()
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            result = rec.run("op", wl.op) if rec else wl.op()
            dt = time.perf_counter() - t0
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return
        self.times.append(dt)
        self.ref_times.append(calib.reference_seconds(dt, kernel_s))
        try:
            fp = rec.run("check", wl.check, result) if rec else wl.check(result)
            # An op may fingerprint parts the others do not (sweep rechecks
            # a different grid point each op); every key must keep its value.
            clash = {k for k, v in fp.items() if self.reference.setdefault(k, v) != v}
            if clash:
                raise FingerprintMismatch(
                    f"{sorted(clash)}: {[fp[k] for k in sorted(clash)]} != "
                    f"{[self.reference[k] for k in sorted(clash)]}")
            self.counts.append(wl.counts(result))
        except Exception:
            traceback.print_exc()
            self.failed += 1

    def loop(self, wl, seconds: float, rec=None) -> None:
        run_for(seconds, lambda: self.attempt(wl, rec))


def run_for(seconds: float, step) -> None:
    """Call `step` until the next call, as long as the last, would end after
    `seconds`; at least once."""
    end = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        step()
        now = time.perf_counter()
        if 2 * now - t0 > end:
            return


def per_layer(rec: Recorder, names: list[str], traced: Tally, untraced: Tally) -> dict:
    """Per-op self time and calls of each traced name, trace totals and
    computed counts."""
    self_s = rec.self_times()
    kinds = {i: rec.names[i] for i in range(len(rec.names)) if rec.parent[i] < 0}
    ops = [i for i, kind in kinds.items() if kind == "op"]
    n_ops = len(ops)
    self_sum = {(kind, n): 0.0 for kind in ("op", "check") for n in names}
    calls = {key: 0 for key in self_sum}
    computed = dict.fromkeys(COMPUTED, 0.0)
    for i, name in enumerate(rec.names):
        key = (kinds[rec.root[i]], name)
        if key in self_sum:
            self_sum[key] += self_s[i]
            calls[key] += 1
            if key[0] == "op":
                for c, v in rec.counts.get(i, {}).items():
                    computed[c] += v
    computed = {c: v / n_ops for c, v in computed.items()}
    for counts in traced.counts:
        for c, v in counts.items():
            computed[c] += v / len(traced.counts)
    op_total = sum(rec.end[i] - rec.start[i] for i in ops)
    attributed = sum(s for i, s in enumerate(self_s) if kinds[rec.root[i]] == "op")
    if abs(op_total - attributed) > 1e-6 * max(1.0, op_total):
        raise RuntimeError(f"self times sum to {attributed}, ops took {op_total}")
    checks = [i for i, kind in kinds.items() if kind == "check"]

    def s(x):
        return {"value": x, "unit": "s"}

    metrics = {}
    for n in names:
        kind = "check" if n in VALIDATORS else "op"
        metrics[f"{n}.self_s"] = s(self_sum[kind, n] / n_ops)
        metrics[f"{n}.calls"] = {"value": calls[kind, n] / n_ops, "unit": "count"}
    traced_op = op_total / n_ops
    untraced_op = statistics.fmean(untraced.times)
    metrics["trace.op_s"] = s(traced_op)
    metrics["trace.untraced_op_s"] = s(untraced_op)
    metrics["trace.overhead_s"] = s(traced_op - untraced_op)
    metrics["trace.unattributed_s"] = s(sum(self_s[i] for i in ops) / n_ops)
    metrics["trace.check_s"] = s(sum(rec.end[i] - rec.start[i] for i in checks) / n_ops)
    metrics["trace.kernel_s"] = s(statistics.median(untraced.kernel_times + traced.kernel_times))
    units = {"flow_nodes": "count", "flow_arcs": "count", "codegree_scan_bytes": "B"}
    for c in COMPUTED:
        metrics[f"computed.{c}"] = {"value": computed[c], "unit": units.get(c, "ratio")}
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    nproc = cap_threads()
    import_nmpkit()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    print("# env", json.dumps(environment(nproc)), flush=True)

    setup_times = []
    wl = None
    for _ in range(SETUP_REPEATS):
        wl = None  # free the previous inputs first, so peak memory holds one copy
        kernel_s = calib.kernel_seconds()
        gc.collect()
        import_s = import_seconds()
        t0 = time.perf_counter()
        wl = WORKLOADS[args.workload]()
        wl.setup(args.seed)
        dt = import_s + time.perf_counter() - t0
        setup_times.append(calib.reference_seconds(dt, kernel_s))
    setup_s = statistics.median(setup_times)

    tally = Tally()
    tally.attempt(wl)  # warm-up: checked and counted, not timed
    tally.times.clear()
    tally.ref_times.clear()
    tally.kernel_times.clear()
    if args.trace == 0:
        tally.loop(wl, args.seconds)
        if not tally.times:
            raise SystemExit("no op returned; see the tracebacks above")
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_s_p50": {"value": statistics.median(tally.ref_times), "unit": "s"},
            "ops_per_s": {"value": len(tally.ref_times) / sum(tally.ref_times), "unit": "1/s"},
            "pass_ratio": {"value": 1 - tally.failed / tally.attempted, "unit": "ratio"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    else:
        traced = Tally(reference=tally.reference)
        rec, tlist, absent = Recorder(), targets(), set()

        def pair():
            tally.attempt(wl)
            restore, missing = install(rec, "nmpkit", tlist)
            absent.update(missing)
            try:
                traced.attempt(wl, rec)
            finally:
                restore()

        run_for(args.seconds, pair)
        if not tally.times or not traced.times:
            raise SystemExit("no op returned; see the tracebacks above")
        if absent:
            print("# absent (not traced):", " ".join(sorted(absent)))
        metrics = per_layer(rec, [t.name for t in tlist], traced, tally)
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        rec.dump(str(out / f"spans-{wl.name}-seed{args.seed}.json"))
        tally.attempted += traced.attempted
        tally.failed += traced.failed

    print("# fingerprint", json.dumps(tally.reference, sort_keys=True))
    if tally.counts:
        print("# computed per op", json.dumps(tally.counts[0], sort_keys=True))
    print(f"# op wall seconds {[round(t, 4) for t in tally.times]}")
    print(f"# reference seconds: ops {[round(t, 4) for t in tally.ref_times]}, setup runs "
          f"{[round(t, 4) for t in setup_times]}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
