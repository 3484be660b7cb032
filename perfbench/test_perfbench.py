"""Tests of the benchmark's own code: span arithmetic and failure counting."""

import dataclasses
import importlib
import math

import pytest

import nmpkit
import run
from spans import Recorder, Target, install
from workloads import ApproxB, PseudoPG2, Sweep


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_of_nested_calls():
    # op [0, 10] holds a [1, 6] (which holds b [2, 5]) and c [7, 9].
    rec = Recorder(clock=FakeClock([0, 1, 2, 5, 6, 7, 9, 10]))
    op = rec.open("op")
    a = rec.open("a")
    b = rec.open("b")
    rec.close(b)
    rec.close(a)
    c = rec.open("c")
    rec.close(c)
    rec.close(op)
    assert rec.self_times() == [10 - 5 - 2, 5 - 3, 3, 2]
    assert rec.parent == [-1, op, a, op]
    assert rec.root == [op, op, op, op]
    assert sum(rec.self_times()) == 10


PACKAGE = {
    "__init__.py": "from .core import Graph, leaf\n",
    "core.py": """
def leaf(x):
    return x + 1


class Graph:
    @classmethod
    def build(cls, x):
        return leaf(x)
""",
    "user.py": """
from .core import Graph, leaf


def top(x):
    return Graph.build(x) + leaf(x)
""",
}


def test_install_wraps_every_alias_and_reports_absent_names(tmp_path, monkeypatch):
    pkg = tmp_path / "tinypkg"
    pkg.mkdir()
    for name, text in PACKAGE.items():
        (pkg / name).write_text(text)
    monkeypatch.syspath_prepend(str(tmp_path))
    user = importlib.import_module("tinypkg.user")
    rec = Recorder()
    restore, absent = install(rec, "tinypkg", [
        Target("core", "leaf"),
        Target("core", "Graph.build"),
        Target("user", "top"),
        Target("core", "gone"),
        Target("flow", "max_flow"),
    ])
    try:
        assert absent == ["core.gone", "flow.max_flow"]
        assert user.top(1) == 4
    finally:
        restore()
    # top calls build (which calls leaf through core's binding), then leaf
    # through user's own binding.
    assert rec.names == ["user.top", "core.Graph.build", "core.leaf", "core.leaf"]
    assert rec.parent == [-1, 0, 1, 0]
    assert user.leaf is importlib.import_module("tinypkg.core").leaf
    assert not hasattr(user.leaf, "__wrapped__")
    assert isinstance(vars(user.Graph)["build"], classmethod)
    user.top(1)
    assert len(rec.names) == 4


def test_traced_self_times_add_up_to_op_time():
    wl = Sweep(k=12, n=12, trials=3)
    wl.setup(5)
    untraced = run.Tally()
    untraced.loop(wl, 0)
    traced = run.Tally(reference=untraced.reference)
    rec = Recorder()
    tlist = run.targets()
    restore, _ = install(rec, "nmpkit", tlist)
    try:
        traced.loop(wl, 0, rec)
    finally:
        restore()
    assert traced.failed == 0
    m = run.per_layer(rec, [t.name for t in tlist], traced, untraced)
    layers = sum(m[f"{t.name}.self_s"]["value"] for t in tlist if t.name not in run.VALIDATORS)
    assert math.isclose(layers + m["trace.unattributed_s"]["value"], m["trace.op_s"]["value"])
    assert m["nmpcheck.check_nmp.calls"]["value"] == 12
    assert m["computed.flow_nodes"]["value"] == 12 * 26


@pytest.mark.parametrize("make", [
    lambda: ApproxB(k=200, n=220),
    lambda: Sweep(k=12, n=12, trials=4),
    lambda: PseudoPG2(q=5, samples=20),
])
def test_small_workloads_pass(make):
    wl = make()
    wl.setup(3)
    tally = run.Tally()
    tally.loop(wl, 0)
    tally.loop(wl, 0)
    assert (tally.attempted, tally.failed) == (2, 0)


def test_tampered_certificate_counts_as_failed(monkeypatch):
    wl = Sweep(k=12, n=12, trials=4)
    wl.setup(3)
    tally = run.Tally()
    tally.attempt(wl)
    assert tally.failed == 0
    honest = nmpkit.check_nmp

    def tampered(g):
        cert = honest(g)
        if cert.multiplicity is None:
            return dataclasses.replace(
                cert, witness_neighborhood_size=cert.witness_neighborhood_size + 1)
        mult = dict(cert.multiplicity)
        mult[next(iter(mult))] += 1
        return dataclasses.replace(cert, multiplicity=mult)

    # The sweep's recheck validates every certificate it is handed.
    monkeypatch.setattr(nmpkit, "check_nmp", tampered)
    tally.attempt(wl)
    assert (tally.attempted, tally.failed) == (2, 1)


def test_fingerprint_mismatch_counts_as_failed():
    wl = Sweep(k=12, n=12, trials=4)
    wl.setup(3)
    tally = run.Tally()
    tally.attempt(wl)
    wl.setup(4)  # other inputs, valid results, different fingerprint
    tally.attempt(wl)
    assert (tally.attempted, tally.failed) == (2, 1)


def test_git_sha_reads_loose_packed_and_detached_heads(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.git_sha() == "unknown"
    git = tmp_path / ".git"
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    assert run.git_sha() == "unknown"
    (git / "packed-refs").write_text("# pack-refs with: peeled\n" + "a" * 40 + " refs/heads/main\n")
    assert run.git_sha() == "a" * 40
    (git / "refs" / "heads" / "main").write_text("b" * 40 + "\n")
    assert run.git_sha() == "b" * 40
    (git / "HEAD").write_text("c" * 40 + "\n")
    assert run.git_sha() == "c" * 40


def test_sweep_fingerprint_holds_witnesses_of_each_rechecked_point():
    wl = Sweep(k=12, n=12, trials=4)
    wl.setup(3)
    tally = run.Tally()
    for _ in range(len(Sweep.C_GRID) + 1):
        tally.attempt(wl)
    assert tally.failed == 0
    assert {f"witnesses_row{i}" for i in range(len(Sweep.C_GRID))} <= set(tally.reference)
