import re
import sys
import threading
import time
from fractions import Fraction
from unittest import mock

import pytest

from nmpkit import (
    PseudoParams,
    _threads,
    estimate_thomason_params,
    gen_gnp,
    gen_pg2,
    gen_sum_cayley,
    mixing_audit,
    parse_graph,
    pseudo,
    rng,
    serialize_graph,
    verify_thomason,
)
from nmpkit import graph as graph_mod


def cpus(count):
    """Make os.sched_getaffinity report `count` usable CPUs."""
    return mock.patch("os.sched_getaffinity", return_value=set(range(count)))


def every_block_threaded():
    """Let calls too small for a thread of their own start threads."""
    return mock.patch.object(_threads, "_MIN_WORK", 1)


def block_threads():
    return [t for t in threading.enumerate() if t.name == "nmpkit-block"]


class CountingThread(threading.Thread):
    started = 0

    def start(self):
        CountingThread.started += 1
        super().start()


@pytest.fixture
def counted_threads():
    CountingThread.started = 0
    with mock.patch.object(_threads.threading, "Thread", CountingThread):
        yield CountingThread


# ------------------------------------------------------------------- helper


@pytest.mark.parametrize("count", [1, 2, 3])
def test_run_blocks_returns_results_in_block_order(count, counted_threads):
    blocks = list(range(23))
    with cpus(count), every_block_threaded():
        assert _threads.run_blocks(lambda b: b * b, blocks, 10**9) == [b * b for b in blocks]
    assert counted_threads.started == count - 1


def test_run_blocks_runs_inline_below_two_blocks_or_the_least_work(counted_threads):
    with cpus(4):
        assert _threads.run_blocks(str, [7], 10**9) == ["7"]
        assert _threads.run_blocks(str, [], 10**9) == []
        assert _threads.run_blocks(str, [1, 2, 3], _threads._MIN_WORK - 1) == ["1", "2", "3"]
        assert counted_threads.started == 0
        # One worker per block at most, and per CPU.
        _threads.run_blocks(str, [1, 2], _threads._MIN_WORK)
        assert counted_threads.started == 1
        _threads.run_blocks(str, list(range(9)), _threads._MIN_WORK)
        assert counted_threads.started == 1 + 3


def test_every_block_runs_once_under_frequent_switches():
    # More workers than cores, switching threads as often as the
    # interpreter allows: each block must be taken exactly once.
    ran = []

    def fn(b):
        ran.append(b)
        return sum(range(b % 50))

    blocks = list(range(2000))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with cpus(8), every_block_threaded():
            got = _threads.run_blocks(fn, blocks, 10**9)
    finally:
        sys.setswitchinterval(interval)
    assert got == [sum(range(b % 50)) for b in blocks]
    assert sorted(ran) == blocks
    assert block_threads() == []


def test_run_blocks_without_sched_getaffinity_counts_cpu_count():
    with mock.patch.object(_threads.os, "sched_getaffinity", side_effect=AttributeError, create=True), \
            mock.patch.object(_threads.os, "cpu_count", return_value=None):
        assert _threads._usable_cpus() == 1
    with mock.patch.object(_threads.os, "sched_getaffinity", side_effect=AttributeError, create=True), \
            mock.patch.object(_threads.os, "cpu_count", return_value=6):
        assert _threads._usable_cpus() == 6


def test_blocks_run_side_by_side_and_the_first_error_in_block_order_wins():
    # Blocks 0 and 1 meet at a barrier, so they run on two threads at once.
    # Block 1 raises first in time, block 0 later; block 0's error is the
    # one a serial run would raise, and it reaches the caller only after
    # every thread is joined.
    barrier = threading.Barrier(2, timeout=10)

    def fn(b):
        if b < 2:
            barrier.wait()
            if b == 0:
                time.sleep(0.05)
            raise ValueError(f"block {b}")
        return b

    before = threading.active_count()
    with cpus(2), every_block_threaded(), pytest.raises(ValueError, match="^block 0$"):
        _threads.run_blocks(fn, list(range(6)), 10**9)
    assert block_threads() == []
    assert threading.active_count() == before


def test_no_block_starts_after_one_raises():
    started = []

    def fn(b):
        started.append(b)
        if b == 0:
            raise KeyError(b)
        time.sleep(0.01)
        return b

    with cpus(2), every_block_threaded(), pytest.raises(KeyError):
        _threads.run_blocks(fn, list(range(20)), 10**9)
    assert 0 in started and len(started) < 5
    assert block_threads() == []


def test_a_thread_that_cannot_start_leaves_its_blocks_to_the_caller():
    with cpus(3), every_block_threaded(), \
            mock.patch.object(threading.Thread, "start", side_effect=RuntimeError("can't start new thread")):
        assert _threads.run_blocks(lambda b: -b, list(range(8)), 10**9) == [-b for b in range(8)]


# ------------------------------------------------------------- call sites


SCAN_GRAPHS = {
    "pg2_11": lambda: gen_pg2(11),
    "pg2_31": lambda: gen_pg2(31),
    "sum_cayley_101": lambda: gen_sum_cayley(101, 2).graph,
    "gnp": lambda: gen_gnp(300, 200, 0.05, 3),
}


@pytest.mark.parametrize("name", sorted(SCAN_GRAPHS))
def test_pair_scan_is_the_serial_scan_on_any_cpu_count(name, counted_threads):
    g = SCAN_GRAPHS[name]()
    # Small blocks, so every graph has many of them.
    with mock.patch.object(pseudo, "_PAIR_BINS", 3 * g.k):
        with cpus(1):
            want_max, want_rows = pseudo._pair_scan(g)
        assert counted_threads.started == 0
        for count in (2, 3):
            with cpus(count), every_block_threaded():
                max_cod, row_max = pseudo._pair_scan(g)
            assert max_cod == want_max and row_max.tolist() == want_rows.tolist()
    assert counted_threads.started == 1 + 2
    gram_max, gram_rows = pseudo._codegree_scan(pseudo._incidence(g))
    assert want_max == gram_max and want_rows.tolist() == gram_rows.tolist()


AUDITS = {
    "pg2_11": lambda: (gen_pg2(11), PseudoParams(Fraction(12, 133), 0), {}),
    "sum_cayley_101": lambda: (
        gen_sum_cayley(101, 2).graph, None, dict(form="alon_bourgain", h_size=50, q=101)
    ),
}


@pytest.mark.parametrize("name", sorted(AUDITS))
@pytest.mark.parametrize("samples", [1, 33, 150])
def test_mixing_audit_is_the_serial_audit_on_any_cpu_count(name, samples, counted_threads):
    g, params, kw = AUDITS[name]()
    with cpus(1):
        want = mixing_audit(g, params, samples, 9, **kw)
    for count in (2, 3):
        with cpus(count), every_block_threaded():
            assert mixing_audit(g, params, samples, 9, **kw) == want
    assert (counted_threads.started > 0) == (samples > pseudo._AUDIT_ROWS)


def edge_text(pairs):
    return "".join(f"e {x} {y}\n" for x, y in pairs)


GRID = [(x, y) for x in range(3) for y in range(3)]  # keys 0..8, in order
BIG = [("0", "1"), ("0", "9" * 17), ("1", "123456789012345678"), ("8", "9" * 18), ("9" * 18, "0")]

# Edge sections (k, n, edge lines) of lines of six bytes or more, decoded in
# chunks of at most 12 bytes: two lines each, or one line longer than that.
DECODES = {
    "in order": (3, 3, edge_text(GRID)),
    "order breaks at a chunk boundary": (3, 3, edge_text(GRID[:1] + GRID[2:3] + GRID[1:2] + GRID[3:])),
    "duplicate across a chunk boundary": (3, 3, edge_text(GRID[:2] + GRID[1:2] + GRID[3:])),
    "malformed line in the last chunk": (3, 3, edge_text(GRID[:-1]) + "e 2 x\n"),
    "17 and 18 digits": (9, 10**18, edge_text(BIG[:4])),
    "18 digits out of range": (9, 10**18, edge_text(BIG)),
    # The keys x*n + y fit in int64 and increase, but k*n does not fit.
    "k*n at least 2^63": (2**32, 2**32, edge_text(GRID + [(2**31 - 1, 5)])),
    "no edges": (3, 3, ""),
}


def decoded_tokens(k, n, body):
    """What _canonical_edges must give for the edge lines body, from the
    tokens with int(), or None if a line is not canonical."""
    lines = body.splitlines()
    if not all(re.fullmatch(r"e [0-9]{1,18} [0-9]{1,18}", line) for line in lines):
        return None
    xs = [int(line.split()[1]) for line in lines]
    ys = [int(line.split()[2]) for line in lines]
    keys = [x * n + y for x, y in zip(xs, ys)]
    ordered = (
        k * n < 2**63
        and all(x < k for x in xs)
        and all(y < n for y in ys)
        and all(a < b for a, b in zip(keys, keys[1:]))
    )
    return xs, ys, ordered


def chunk_count(body, size):
    count, lo = 0, 0
    while lo < len(body):
        lo = body.rfind("\n", lo, lo + size) + 1 or body.index("\n", lo) + 1
        count += 1
    return count


def parse_result(parse, text):
    try:
        return parse(text)
    except ValueError as exc:  # FormatError, or sizes beyond int64 keys
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("name", sorted(DECODES))
def test_edge_decode_is_the_inline_decode_on_any_cpu_count(name, counted_threads):
    k, n, body = DECODES[name]
    text = f"p bipartite {k} {n}\n" + body
    want = decoded_tokens(k, n, body)
    want_graph = parse_result(graph_mod._parse_lines, text)
    with mock.patch.object(graph_mod, "_CHUNK", 12):
        for count in (1, 2, 3):
            with cpus(count), every_block_threaded():
                got = graph_mod._canonical_edges(body, k, n)
                if want is None:
                    assert got is None
                else:
                    xs, ys, ordered = got
                    assert (xs.tolist(), ys.tolist(), ordered) == want
                assert parse_result(parse_graph, text) == want_graph
    chunks = chunk_count(body, 12)
    assert chunks >= 3 or name == "no edges"
    # Two calls on each CPU count: one worker per usable CPU and per chunk.
    assert counted_threads.started == 2 * sum(min(count, chunks) - 1 for count in (1, 2, 3) if chunks)


def test_edge_decode_names_the_line_the_line_loop_names():
    # The duplicate is the first line of the second chunk: order breaks at
    # the boundary, and _build names the line.
    text = "p bipartite 3 3\n" + DECODES["duplicate across a chunk boundary"][2]
    with mock.patch.object(graph_mod, "_CHUNK", 12), cpus(2), every_block_threaded():
        with pytest.raises(graph_mod.FormatError, match=r"^line 4: duplicate edge \(0, 1\)$"):
            parse_graph(text)


def test_edge_decode_under_frequent_switches():
    # Eight workers on 40 chunks, switching threads as often as the
    # interpreter allows, each writing its own slice of the edge arrays.
    g = gen_gnp(60, 70, 0.5, 3)
    body = serialize_graph(g).partition("\n")[2]
    interval = sys.getswitchinterval()
    with mock.patch.object(graph_mod, "_CHUNK", len(body) // 40):
        with cpus(1):
            xs, ys, ordered = graph_mod._canonical_edges(body, g.k, g.n)
        assert [xs.tolist(), ys.tolist()] == [a.tolist() for a in g.edge_arrays()]
        sys.setswitchinterval(1e-6)
        try:
            with cpus(8), every_block_threaded():
                for _ in range(5):
                    got = graph_mod._canonical_edges(body, g.k, g.n)
                    assert got[0].tolist() == xs.tolist() and got[1].tolist() == ys.tolist()
                    assert got[2] is ordered is True
        finally:
            sys.setswitchinterval(interval)
    assert block_threads() == []


def test_parse_of_a_benchmark_sized_file_on_any_cpu_count(counted_threads):
    # The approx_b benchmark's file: 3.3 MB of edge text, 13 chunks.
    g = gen_gnp(1000, 1100, 0.3, 1)
    text = serialize_graph(g)
    assert len(text) > _threads._MIN_WORK
    for count in (1, 2, 3):
        with cpus(count):
            assert parse_graph(text) == g
    assert counted_threads.started == 1 + 2


def test_pg2_47_results_on_any_cpu_count(counted_threads):
    g = gen_pg2(47)
    params = PseudoParams(Fraction(48, g.n), 0)
    results = []
    for count in (1, 2, 3):
        with cpus(count):
            results.append((verify_thomason(g, params), estimate_thomason_params(g),
                            mixing_audit(g, params, 200, 1)))
    assert results[0] == results[1] == results[2]
    # Three scans and one audit, each over _MIN_WORK: one thread each on two
    # CPUs, two each on three.
    assert counted_threads.started == 4 * 1 + 4 * 2


def test_small_calls_start_no_thread(counted_threads):
    g = gen_pg2(23)
    params = PseudoParams(Fraction(24, g.n), 0)
    # A graph file of 0.86 MB: four chunks, under _MIN_WORK bytes.
    h = gen_gnp(500, 600, 0.3, 1)
    text = serialize_graph(h)
    assert 3 * graph_mod._CHUNK < len(text) < _threads._MIN_WORK
    with cpus(2):
        verify_thomason(g, params)
        estimate_thomason_params(g)
        mixing_audit(g, params, 200, 1)
        assert parse_graph(text) == h
    assert counted_threads.started == 0


def test_no_thread_outlives_a_public_call():
    g = gen_pg2(31)
    params = PseudoParams(Fraction(32, g.n), 0)
    before = threading.active_count()
    with cpus(2), every_block_threaded():
        verify_thomason(g, params)
        assert threading.active_count() == before
        estimate_thomason_params(g)
        assert threading.active_count() == before
        mixing_audit(g, params, 100, 3)
        assert threading.active_count() == before
        with mock.patch.object(graph_mod, "_CHUNK", 1000):
            assert parse_graph(serialize_graph(g)) == g
        assert threading.active_count() == before


@pytest.mark.parametrize("target", ["_block_edge_counts", "_ranges", "_run_values"])
def test_no_thread_outlives_a_call_whose_block_raises(target):
    # The third call of the block kernel raises, on whichever thread runs it.
    g = gen_pg2(31)
    params = PseudoParams(Fraction(32, g.n), 0)
    owner = graph_mod if target == "_run_values" else pseudo
    real = getattr(owner, target)
    calls = []

    def flaky(*args):
        calls.append(None)
        if len(calls) == 3:
            raise MemoryError("injected")
        return real(*args)

    text = serialize_graph(g)
    before = threading.active_count()
    with cpus(2), every_block_threaded(), mock.patch.object(owner, target, flaky), \
            mock.patch.object(pseudo, "_PAIR_BINS", 4 * g.k), mock.patch.object(graph_mod, "_CHUNK", 1000):
        with pytest.raises(MemoryError, match="injected"):
            if target == "_ranges":
                verify_thomason(g, params)
            elif target == "_run_values":
                parse_graph(text)
            else:
                mixing_audit(g, params, 150, 3)
    assert len(calls) >= 3
    assert block_threads() == []
    assert threading.active_count() == before


def test_worker_threads_call_no_traced_function():
    # The benchmark's span recorder keeps one stack of open spans, so the
    # functions it wraps must run on the calling thread only.
    traced = [
        (pseudo, "verify_thomason"), (pseudo, "estimate_thomason_params"),
        (pseudo, "mixing_deviation"), (pseudo, "edge_count_between"),
        (graph_mod, "edge_count_between"), (graph_mod, "neighborhood"),
        (graph_mod, "induced_subgraph"), (graph_mod, "parse_graph"), (rng.SplitMix64, "sample"),
    ]
    off_main = []

    def wrap(fn):
        def wrapper(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                off_main.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    patches = [mock.patch.object(owner, name, wrap(getattr(owner, name))) for owner, name in traced]
    g = gen_pg2(31)
    params = PseudoParams(Fraction(32, g.n), 0)
    text = serialize_graph(g)
    with cpus(2), every_block_threaded(), mock.patch.object(graph_mod, "_CHUNK", 1000):
        for p in patches:
            p.start()
        try:
            pseudo.verify_thomason(g, params)
            pseudo.estimate_thomason_params(g)
            pseudo.mixing_audit(g, params, 100, 3)
            assert graph_mod.parse_graph(text) == g
        finally:
            for p in patches:
                p.stop()
    assert off_main == []

