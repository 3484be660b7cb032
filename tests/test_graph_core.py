import dataclasses
import os
import re
import subprocess
import sys
import threading
import warnings
from pathlib import Path
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given

from nmpkit import (
    BipartiteGraph,
    FormatError,
    Side,
    _threads,
    build_euclidean_tree,
    disjoint_copies,
    edge_count_between,
    gen_gnp,
    graph,
    induced_subgraph,
    is_connected,
    left_set,
    load_graph,
    neighborhood,
    parse_graph,
    right_set,
    save_graph,
    serialize_graph,
)

from conftest import bipartite_graphs, complete_graph


def test_parse_basic():
    g = parse_graph("p bipartite 2 3\ne 0 0\ne 1 0\ne 0 1\ne 1 2")
    assert (g.k, g.n, g.edge_count) == (2, 3, 4)
    assert tuple(tuple(g.neighbors(x).tolist()) for x in range(g.k)) == ((0, 1), (0, 2))


def test_parse_no_edges():
    g = parse_graph("p bipartite 1 1")
    assert (g.k, g.n, g.edge_count) == (1, 1, 0)


def test_parse_comments_and_blank_lines():
    g = parse_graph("# a comment\n\np bipartite 2 2\n# another\ne 1 1\n")
    assert list(g.edges()) == [(1, 1)]


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("p bipartite 2 3\ne 0 5", "line 2"),
        ("p bipartite 2 3\ne 2 0", "line 2"),
        ("p bipartite 2 3\ne 0 0\ne 0 0", "duplicate"),
        ("e 0 0", "before header"),
        ("p bipartite 0 3", "sizes"),
        ("p twopartite 2 3", "header"),
        ("p bipartite 2 3\nq 0 0", "unknown record"),
        ("", "missing header"),
        ("p bipartite 2 3\ne 0 5\nbogus", "line 2: right index 5"),
        ("p bipartite 2 3\ne 0 0\ne 0 x\ne 0 0", "line 3: non-integer"),
        ("p bipartite 2 3\ne 99999999999999999999 0", "line 2: left index 99999999999999999999"),
        (b"p bipartite 2 3\ne 0 \xff", "not valid UTF-8"),
        ("p bipartite 2 3\np bipartite 2 3", "line 2: repeated header"),
        ("p bipartite 2 three", "line 1: non-integer sizes"),
        ("p bipartite 2 3\ne 1 2 3", "line 2: malformed edge line"),
        # \x85 breaks the comment in two lines, so only the line loop numbers
        # the bad edge right.
        ("# a\x85# b\np bipartite 2 3\ne 0 5\n", "^line 4: right index 5"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(FormatError, match=fragment):
        parse_graph(text)


@given(bipartite_graphs())
def test_serialize_round_trip(g):
    assert parse_graph(serialize_graph(g)) == g


def serialize_at_once(g, comments=()):
    """The graph file text with every edge formatted by one % operation."""
    head = "".join(f"# {c}\n" for c in comments) + f"p bipartite {g.k} {g.n}\n"
    pairs = np.column_stack(g.edge_arrays()).ravel().tolist()
    return head + ("e %d %d\n" * g.edge_count) % tuple(pairs)


# No edge, exactly one block of 2^16 edges, and one block plus one edge.
@pytest.mark.parametrize("k, n, edges", [(3, 4, 0), (256, 256, 1 << 16), (257, 256, (1 << 16) + 1)])
def test_serialize_in_blocks_writes_the_one_shot_bytes(k, n, edges):
    assert graph._SERIAL_EDGES == 1 << 16
    g = BipartiteGraph._from_keys(k, n, np.arange(edges))
    assert serialize_graph(g, ["c"]) == serialize_at_once(g, ["c"])


@given(bipartite_graphs(), st.integers(1, 5))
def test_serialize_in_small_blocks_writes_the_one_shot_bytes(g, size):
    with mock.patch.object(graph, "_SERIAL_EDGES", size):
        assert serialize_graph(g) == serialize_at_once(g)


@pytest.mark.parametrize("edges", [0, 1, 5, 6, 13])
def test_save_graph_writes_the_serialized_bytes(edges, tmp_path):
    # Blocks of 5 edges: none, part of one, one, one plus one, several.
    g = BipartiteGraph._from_keys(4, 4, np.arange(edges))
    path = tmp_path / "g.txt"
    with mock.patch.object(graph, "_SERIAL_EDGES", 5):
        save_graph(g, str(path), ["a comment", ""])
        want = serialize_graph(g, ["a comment", ""])
    assert path.read_bytes() == want.encode("ascii")
    assert load_graph(str(path)) == g


def test_save_graph_writes_each_block_as_it_is_formatted(tmp_path):
    # One write for the header, then one per block of 5 edges: the file
    # never gets the whole text at once.
    writes = []
    real_open = open

    class File:
        def __init__(self, *args, **kwargs):
            self.fh = real_open(*args, **kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            writes.append(text)
            return self.fh.write(text)

        def writelines(self, parts):
            for text in parts:
                self.write(text)

    g = BipartiteGraph._from_keys(4, 4, np.arange(13))
    path = tmp_path / "g.txt"
    with mock.patch.object(graph, "_SERIAL_EDGES", 5), \
            mock.patch.object(graph, "open", File, create=True):
        save_graph(g, str(path))
    assert [w.count("\n") for w in writes] == [1, 5, 5, 3]
    assert path.read_text() == "".join(writes) == serialize_graph(g)


def test_save_graph_failing_part_way_leaves_the_old_file(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("old text\n")
    g = BipartiteGraph._from_keys(4, 4, np.arange(13))
    real = graph._serial_edges

    def failing(g):
        parts = real(g)
        yield next(parts)
        raise MemoryError("injected")

    with mock.patch.object(graph, "_SERIAL_EDGES", 5), \
            mock.patch.object(graph, "_serial_edges", failing):
        with pytest.raises(MemoryError, match="injected"):
            save_graph(g, str(path))
    assert path.read_text() == "old text\n"
    assert os.listdir(tmp_path) == ["g.txt"]


def test_save_graph_keeps_a_link_and_writes_into_a_pipe(tmp_path):
    g = BipartiteGraph._from_keys(4, 4, np.arange(13))
    (tmp_path / "g.txt").write_text("old text\n")
    link = tmp_path / "link.txt"
    link.symlink_to("g.txt")
    save_graph(g, str(link))
    assert link.is_symlink()
    assert (tmp_path / "g.txt").read_text() == serialize_graph(g)

    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    got = []
    reader = threading.Thread(target=lambda: got.append(pipe.read_text()), daemon=True)
    reader.start()
    save_graph(g, str(pipe))
    reader.join(timeout=10)
    assert got == [serialize_graph(g)]
    assert sorted(os.listdir(tmp_path)) == ["g.txt", "link.txt", "pipe"]


@given(bipartite_graphs())
def test_from_matrix_takes_no_sort(g):
    with mock.patch.object(BipartiteGraph, "_build", side_effect=AssertionError("sorted")):
        assert BipartiteGraph.from_matrix(g.matrix()) == g


LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


@pytest.mark.parametrize("comment", ["a\nb", "x\re 1 0", "u\u2028v", *(f"c{ch}d" for ch in LINE_BREAKS)])
def test_a_comment_with_a_line_break_is_rejected(comment, tmp_path):
    # Written out, it would not read back: "a\nb" as an unknown record
    # "b", "x\re 1 0" as an edge before the header.
    assert len(comment.splitlines()) == 2
    g = complete_graph(2, 3)
    with pytest.raises(ValueError, match=f"^comment {re.escape(repr(comment))} contains a line break$"):
        serialize_graph(g, ["fine", comment])
    path = tmp_path / "g.txt"
    with pytest.raises(ValueError, match="line break"):
        save_graph(g, str(path), [comment])
    assert not path.exists()


def test_line_breaks_are_every_separator_of_splitlines():
    breaks = {chr(c) for c in range(0x110000) if len(f"a{chr(c)}b".splitlines()) == 2}
    assert breaks == set(LINE_BREAKS)


@given(st.lists(st.text(st.characters(exclude_characters=LINE_BREAKS, exclude_categories=("Cs",))), max_size=3))
def test_comments_without_line_breaks_round_trip(comments):
    g = complete_graph(2, 3)
    assert parse_graph(serialize_graph(g, comments)) == g


@given(bipartite_graphs(), st.randoms(use_true_random=False))
def test_every_construction_gives_the_same_graph(g, rnd):
    edges = list(g.edges())
    rnd.shuffle(edges)
    assert BipartiteGraph.from_edges(g.k, g.n, edges) == g
    assert BipartiteGraph.from_matrix(g.matrix()) == g
    assert hash(BipartiteGraph.from_matrix(g.matrix())) == hash(g)
    assert induced_subgraph(g, left_set(range(g.k)), right_set(range(g.n)))[0] == g
    rows = [g.neighbors(x).tolist() for x in range(g.k)]
    assert all(row == sorted(set(row)) for row in rows)
    gt = g.swap_sides()
    cols = [gt.neighbors(y).tolist() for y in range(g.n)]
    assert cols == [[x for x in range(g.k) if y in rows[x]] for y in range(g.n)]


def first_bad_edge(k, n, edges):
    """Reference: the edge-by-edge check, as (index, kind) of the first bad edge."""
    seen = set()
    for i, (x, y) in enumerate(edges):
        if not 0 <= x < k:
            return i, "left"
        if not 0 <= y < n:
            return i, "right"
        if (x, y) in seen:
            return i, "duplicate"
        seen.add((x, y))
    return None


@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.lists(st.tuples(st.integers(-2, 6), st.integers(-2, 6), st.booleans()), max_size=30),
)
def test_first_bad_edge_is_named_in_input_order(k, n, records):
    edges = [(x, y) for x, y, _ in records]
    lines = [f"p bipartite {k} {n}"]
    edge_line = []
    for x, y, commented in records:
        if commented:
            lines.append("# a comment")
        lines.append(f"e {x} {y}")
        edge_line.append(len(lines))
    text = "\n".join(lines)
    bad = first_bad_edge(k, n, edges)
    if bad is None:
        g = BipartiteGraph.from_edges(k, n, edges)
        assert sorted(g.edges()) == sorted(edges) and parse_graph(text) == g
        return
    i, kind = bad
    x, y = edges[i]
    with pytest.raises(ValueError) as err:
        BipartiteGraph.from_edges(k, n, edges)
    assert str(err.value) == {
        "left": f"left index {x} out of range [0, {k})",
        "right": f"right index {y} out of range [0, {n})",
        "duplicate": f"duplicate edge ({x}, {y})",
    }[kind]
    with pytest.raises(FormatError) as err:
        parse_graph(text)
    assert str(err.value) == f"line {edge_line[i]}: " + {
        "left": f"left index {x} out of range, k={k}",
        "right": f"right index {y} out of range, n={n}",
        "duplicate": f"duplicate edge ({x}, {y})",
    }[kind]


def _line(corrupt):
    """The edge lines with line i replaced by corrupt(line, k, n)."""
    return lambda lines, i, k, n: lines[:i] + [corrupt(lines[i], k, n)] + lines[i + 1:]


def _last_line(corrupt):
    """The edge lines with the last one replaced by corrupt(line, k, n)."""
    return lambda lines, i, k, n: lines[:-1] + [corrupt(lines[-1], k, n)]


# Corruptions of the edge lines of a canonical text, at line i. The canonical
# ones keep the serializer's form, so the bulk path must report them; the
# others leave it, so the line loop must. For each condition of the bulk
# path's form check, at least one of the others is caught by it alone.
CANONICAL_CORRUPTIONS = {
    "left out of range": _line(lambda line, k, n: f"e {k} 0\n"),
    "right out of range": _line(lambda line, k, n: f"e 0 {n + 10**17}\n"),
    "duplicate": _line(lambda line, k, n: line + line),
    "18-digit token": _line(lambda line, k, n: "e 100000000000000000 0\n"),
    "swapped lines": lambda lines, i, k, n: lines[:i] + lines[i:i + 2][::-1] + lines[i + 2:],
    "left index k last": _last_line(lambda line, k, n: f"e {k} 0\n"),
    "right index n alone": lambda lines, i, k, n: [f"e 0 {n}\n"],
}
OTHER_CORRUPTIONS = {
    "19-digit token": _line(lambda line, k, n: "e 1000000000000000000 0\n"),
    "tab": _line(lambda line, k, n: line.replace(" ", "\t", 1)),
    "crlf": _line(lambda line, k, n: line[:-1] + "\r\n"),
    "Arabic-Indic digit": _line(lambda line, k, n: "e \u0660 " + line.split()[2] + "\n"),
    "no final newline": _last_line(lambda line, k, n: line[:-1]),
    "digits after the final newline": _last_line(lambda line, k, n: line + "7"),
    "leading space": _line(lambda line, k, n: " " + line),
    "trailing space": _line(lambda line, k, n: line[:-1] + " \n"),
    "double space": _line(lambda line, k, n: "e  " + "".join(line.split()[1:]) + "\n"),
    "E for e": _line(lambda line, k, n: "E" + line[1:]),
    "x for e": _line(lambda line, k, n: "x" + line[1:]),
    "no space after e": _line(lambda line, k, n: "e1" + line[1:]),
    "letter in a digit run": _line(lambda line, k, n: line.replace(" ", " 1a", 1)),
}


def parse_outcome(parse, text):
    try:
        return parse(text)
    except FormatError as exc:
        return f"FormatError: {exc}"


@given(
    bipartite_graphs(),
    st.lists(st.text(st.characters(exclude_characters="\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029",
                                   exclude_categories=("Cs",)), max_size=8), max_size=3),
    st.sampled_from([None, *CANONICAL_CORRUPTIONS, *OTHER_CORRUPTIONS]),
    st.integers(0, 10**6),
)
def test_bulk_parse_matches_the_line_loop(g, comments, corruption, at):
    text = serialize_graph(g, comments)
    head, _, body = text.rpartition(f"p bipartite {g.k} {g.n}\n")
    lines = body.splitlines(keepends=True)
    if corruption is not None and lines:
        corrupt = {**CANONICAL_CORRUPTIONS, **OTHER_CORRUPTIONS}[corruption]
        lines = corrupt(lines, at % len(lines), g.k, g.n)
        text = head + f"p bipartite {g.k} {g.n}\n" + "".join(lines)
    with mock.patch.object(graph, "_parse_lines", wraps=graph._parse_lines) as line_loop:
        got = parse_outcome(parse_graph, text)
    assert got == parse_outcome(graph._parse_lines, text)
    if corruption is None:
        assert got == g
    bulk = corruption is None or corruption in CANONICAL_CORRUPTIONS or not lines
    assert line_loop.called is not bulk


@pytest.mark.parametrize("corruption", [*CANONICAL_CORRUPTIONS, *OTHER_CORRUPTIONS])
def test_bulk_parse_matches_the_line_loop_on_every_corruption(corruption):
    # Each corruption once for sure, at an inner line, whatever the property draws.
    test_bulk_parse_matches_the_line_loop.hypothesis.inner_test(
        complete_graph(2, 3), ["c"], corruption, 1
    )


def test_bulk_parse_of_a_benchmark_sized_file_warns_nothing():
    # The approx_b benchmark's graph, with the comment line `nmp gen` writes.
    g = gen_gnp(1000, 1100, 0.3, 1)
    text = serialize_graph(g, ["gnp k=1000 n=1100 p=0.3 seed=1 algo=splitmix64"])
    with warnings.catch_warnings(), mock.patch.object(
        graph, "_parse_lines", side_effect=AssertionError("line loop used")
    ):
        warnings.simplefilter("error")
        assert parse_graph(text) == g
        assert parse_graph(text.encode()) == g


def test_bulk_parse_of_a_benchmark_sized_file_takes_no_slow_path():
    g = gen_gnp(1000, 1100, 0.3, 1)
    text = serialize_graph(g, ["gnp k=1000 n=1100 p=0.3 seed=1 algo=splitmix64"])
    assert len(text) > 4 * graph._CHUNK  # several chunks
    with mock.patch.object(
        np, "fromstring", side_effect=AssertionError("np.fromstring used")
    ), mock.patch.object(graph, "_parse_lines", side_effect=AssertionError("line loop used")):
        assert parse_graph(text) == g


def chunk_ends(body, size):
    """Offsets just past each chunk of the edge text, by the parser's rule: a
    chunk ends at the last line end within `size` bytes of its start, or at
    the first one after them."""
    ends, lo = [], 0
    while lo < len(body):
        lo = body.rfind("\n", lo, lo + size) + 1 or body.find("\n", lo) + 1 or len(body)
        ends.append(lo)
    return ends


@pytest.mark.parametrize("place", ["first", "last"])
@pytest.mark.parametrize("corruption", [*CANONICAL_CORRUPTIONS, *OTHER_CORRUPTIONS])
def test_bulk_parse_matches_the_line_loop_across_chunks(corruption, place):
    # The largest chunk size that puts the first corrupted line first or last
    # in its chunk, with at least three chunks (or one per line, if fewer).
    g, comments, at = complete_graph(4, 5), ["c"], 8
    lines = serialize_graph(g).splitlines(keepends=True)[1:]
    bad = {**CANONICAL_CORRUPTIONS, **OTHER_CORRUPTIONS}[corruption](lines, at, g.k, g.n)
    d = next(i for i, (a, b) in enumerate(zip(lines, bad)) if a != b)
    start = len("".join(bad[:d]))
    edge = start if place == "first" else start + len(bad[d])
    body = "".join(bad)

    def placed(size):
        ends = chunk_ends(body, size)
        return edge in [0, *ends] and len(ends) >= min(3, len(bad))

    size = max(filter(placed, range(1, len(body) + 1)))
    with mock.patch.object(graph, "_CHUNK", size):
        test_bulk_parse_matches_the_line_loop.hypothesis.inner_test(g, comments, corruption, at)


@given(
    bipartite_graphs(),
    st.sampled_from([None, *CANONICAL_CORRUPTIONS, *OTHER_CORRUPTIONS]),
    st.integers(0, 10**6),
    st.integers(1, 64),
)
def test_bulk_parse_matches_the_line_loop_in_small_chunks(g, corruption, at, size):
    with mock.patch.object(graph, "_CHUNK", size):
        test_bulk_parse_matches_the_line_loop.hypothesis.inner_test(g, [], corruption, at)


@given(
    bipartite_graphs(),
    st.sampled_from([None, *CANONICAL_CORRUPTIONS, *OTHER_CORRUPTIONS]),
    st.integers(0, 10**6),
    st.integers(1, 64),
)
def test_bulk_parse_matches_the_line_loop_in_small_chunks_on_three_threads(g, corruption, at, size):
    # Every call, however small, decodes its chunks on three threads.
    with mock.patch("os.sched_getaffinity", return_value={0, 1, 2}), \
            mock.patch.object(_threads, "_MIN_WORK", 1):
        test_bulk_parse_matches_the_line_loop_in_small_chunks.hypothesis.inner_test(g, corruption, at, size)


DIGIT_RUNS = st.text("0123456789", min_size=1, max_size=18)


@given(
    st.lists(st.tuples(DIGIT_RUNS, DIGIT_RUNS), max_size=12),
    st.booleans(),
    st.integers(1, 10**18),
    st.integers(1, 10**18),
    st.integers(1, 64),
)
@example([("1", "22"), ("333", "4444")], True, 334, 10**4, 7)
@example([("9" * 18, "0" * 17 + "1"), ("0" * 9 + "12345678", "123456789")], False, 1, 1, 50)
@example([("1" + "0" * r, "0" * r + "7") for r in range(18)], True, 10**18, 9, 30)
def test_bulk_parse_decodes_digit_runs_of_every_length(tokens, ascending, k, n, size):
    # Runs of 1-18 digits, leading zeros and all, each decode to int(token),
    # and the flag says whether they are in range and in increasing key order.
    if ascending:
        tokens = sorted(tokens, key=lambda t: (int(t[0]), int(t[1])))
    body = "".join(f"e {x} {y}\n" for x, y in tokens)
    with mock.patch.object(graph, "_CHUNK", size):
        xs, ys, ordered = graph._canonical_edges(body, k, n)
    want_x = [int(x) for x, _ in tokens]
    want_y = [int(y) for _, y in tokens]
    assert (xs.tolist(), ys.tolist()) == (want_x, want_y)
    keys = [x * n + y for x, y in zip(want_x, want_y)]
    assert ordered is (
        k * n < 2**63
        and all(x < k for x in want_x)
        and all(y < n for y in want_y)
        and all(a < b for a, b in zip(keys, keys[1:]))
    )


@given(bipartite_graphs())
def test_bulk_parse_sorts_only_unsorted_edges(g):
    text = serialize_graph(g)
    with mock.patch.object(graph.BipartiteGraph, "_build", wraps=graph.BipartiteGraph._build) as build:
        assert parse_graph(text) == g
        assert not build.called
        head, _, body = text.partition("\n")
        lines = body.splitlines(keepends=True)
        if len(lines) >= 2:
            lines[:2] = lines[1::-1]
            assert parse_graph(head + "\n" + "".join(lines)) == g
            assert build.called


def test_bulk_parse_names_the_line_of_a_bad_edge():
    text = "# c\n\np bipartite 2 3\ne 0 0\ne 1 2\ne 0 0\n"
    with pytest.raises(FormatError, match=r"^line 6: duplicate edge \(0, 0\)$"):
        parse_graph(text)
    with pytest.raises(FormatError, match=r"^line 5: left index 7 out of range, k=2$"):
        parse_graph(text.replace("e 1 2", "e 7 2"))


def parse_decoded_outcome(data):
    """What parsing the bytes data gives when they are decoded first and go
    through the line loop."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return f"FormatError: not valid UTF-8 text ({exc.reason})"
    return parse_outcome(graph._parse_lines, text)


@given(
    bipartite_graphs(),
    st.lists(st.text(st.characters(exclude_characters=LINE_BREAKS, exclude_categories=("Cs",)),
                     max_size=4), max_size=2),
    st.sampled_from([None, *CANONICAL_CORRUPTIONS, *OTHER_CORRUPTIONS]),
    st.sampled_from([None, b"\xff", b"\xe2\x82", b"\xed\xa0\x80", "é".encode(), b"\n"]),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
)
@example(complete_graph(2, 3), [], None, b"\xff", 0, 0)
@example(complete_graph(2, 3), [], None, None, 0, 0)
def test_bulk_parse_of_bytes_matches_the_decoded_text(g, comments, corruption, junk, at, where):
    # Bytes go to the bulk path undecoded; the graph, or the error with its
    # line number and its UTF-8 reason, is what decoding them first gives.
    text = serialize_graph(g, comments)
    head, _, body = text.rpartition(f"p bipartite {g.k} {g.n}\n")
    lines = body.splitlines(keepends=True)
    if corruption is not None and lines:
        corrupt = {**CANONICAL_CORRUPTIONS, **OTHER_CORRUPTIONS}[corruption]
        lines = corrupt(lines, at % len(lines), g.k, g.n)
    data = (head + f"p bipartite {g.k} {g.n}\n" + "".join(lines)).encode()
    if junk is not None:
        where %= len(data) + 1
        data = data[:where] + junk + data[where:]
    with mock.patch.object(graph, "_parse_lines", wraps=graph._parse_lines) as line_loop:
        got = parse_outcome(parse_graph, data)
    assert got == parse_decoded_outcome(data)
    if corruption is None and junk is None:
        assert not line_loop.called


def test_bulk_parse_of_a_str_keeps_lone_surrogates():
    # A str may hold a lone surrogate, which strict UTF-8 cannot encode.
    text = "# \ud800 \udfff\np bipartite 2 3\ne 0 1\ne 1 2\n"
    with mock.patch.object(graph, "_parse_lines", side_effect=AssertionError("line loop used")):
        assert parse_graph(text) == BipartiteGraph.from_edges(2, 3, [(0, 1), (1, 2)])
    with pytest.raises(FormatError, match=r"^line 4: left index 2 out of range, k=2$"):
        parse_graph(text.replace("e 1 2", "e 2 2"))


@given(bipartite_graphs())
def test_degree_sums_match(g):
    total_l = sum(g.degree(x) for x in range(g.k))
    gt = g.swap_sides()
    total_r = sum(gt.degree(y) for y in range(g.n))
    assert total_l == total_r == g.edge_count


def test_neighborhood_complete():
    g = complete_graph(2, 3)
    assert neighborhood(g, left_set([0])).members == (0, 1, 2)


def test_neighborhood_empty_set():
    g = complete_graph(2, 3)
    assert neighborhood(g, left_set([])).members == ()


def test_neighborhood_euclidean_tree():
    # T_{2,3} has edges {x0y0, x1y0, x0y1, x1y2} by its construction.
    g = build_euclidean_tree(2, 3).graph
    assert sorted(g.edges()) == [(0, 0), (0, 1), (1, 0), (1, 2)]
    assert neighborhood(g, left_set([0])).members == (0, 1)


@given(bipartite_graphs(), st.data())
def test_neighborhood_of_a_right_set(g, data):
    ys = data.draw(st.sets(st.integers(0, g.n - 1)))
    nbhd = neighborhood(g, right_set(ys))
    assert nbhd.side is Side.LEFT
    gt = g.swap_sides()
    assert set(nbhd.members) == set().union(*(gt.neighbors(y).tolist() for y in ys))


@given(bipartite_graphs())
def test_double_neighborhood_contains_non_isolated(g):
    s = left_set(range(g.k))
    back = neighborhood(g, neighborhood(g, s))
    for x in s:
        if g.degree(x) > 0:
            assert x in back


def test_edge_count_between_complete():
    g = complete_graph(3, 4)
    assert edge_count_between(g, left_set(range(3)), right_set(range(4))) == 12
    assert edge_count_between(g, left_set([]), right_set(range(4))) == 0


def test_edge_count_between_t37():
    # A tree on 3 + 7 vertices has 9 edges.
    g = build_euclidean_tree(3, 7).graph
    assert edge_count_between(g, left_set(range(3)), right_set(range(7))) == 9


@given(bipartite_graphs())
def test_edge_count_complement_identity(g):
    a = left_set(range(0, g.k, 2))
    b = right_set(range(0, g.n, 2))
    b_comp = right_set(set(range(g.n)) - set(b.members))
    deg_sum = sum(g.degree(x) for x in a)
    assert edge_count_between(g, a, b) + edge_count_between(g, a, b_comp) == deg_sum


def test_induced_subgraph_basic():
    g = complete_graph(3, 3)
    sub, lmap, rmap = induced_subgraph(g, left_set([0, 1]), right_set([2]))
    assert (sub.k, sub.n, sub.edge_count) == (2, 1, 2)
    assert lmap == (0, 1) and rmap == (2,)


def test_induced_subgraph_identity():
    g = complete_graph(2, 4)
    sub, lmap, rmap = induced_subgraph(g, left_set(range(2)), right_set(range(4)))
    assert sub == g
    assert lmap == (0, 1) and rmap == (0, 1, 2, 3)


def test_induced_subgraph_unrolls_tree_recursion():
    # Dropping the outermost matching layer of T_{3,7} leaves T_{3,4}.
    t37 = build_euclidean_tree(3, 7).graph
    sub, _, _ = induced_subgraph(t37, left_set(range(3)), right_set(range(4)))
    assert sorted(sub.edges()) == sorted(build_euclidean_tree(3, 4).graph.edges())


def test_induced_subgraph_empty_side():
    g = complete_graph(2, 2)
    sub, lmap, rmap = induced_subgraph(g, left_set([]), right_set([0]))
    assert sub is None and lmap == () and rmap == (0,)


def test_duplicate_edges_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        BipartiteGraph.from_edges(2, 2, [(0, 0), (0, 0)])


def test_malformed_constructor_inputs_rejected():
    with pytest.raises(ValueError, match=r"edges must be \(x, y\) pairs"):
        BipartiteGraph.from_edges(2, 2, [(0, 0, 1)])
    with pytest.raises(ValueError, match="vertex indices must be nonnegative"):
        left_set([-1])
    with pytest.raises(ValueError, match="need at least one copy"):
        disjoint_copies(complete_graph(2, 2), 0)


@pytest.mark.parametrize(
    "edges, endpoint",
    [
        ([(0.5, 1)], "0.5"),
        ([(0, 1.0)], "1.0"),
        ([(True, 1)], "True"),
        ([(0, "1")], "'1'"),
        (np.array([[0.5, 1.0]]), "0.5"),
        (np.array([[True, False]]), "True"),
    ],
)
def test_from_edges_refuses_non_integer_endpoints(edges, endpoint):
    with pytest.raises(ValueError, match=f"edge endpoint {re.escape(endpoint)} is not an integer"):
        BipartiteGraph.from_edges(3, 3, edges)


@given(bipartite_graphs(), st.randoms(use_true_random=False),
       st.sampled_from([np.int64, np.int32, np.uint16]))
def test_from_edges_takes_an_integer_array_as_its_list_of_pairs(g, rnd, dtype):
    edges = list(g.edges())
    rnd.shuffle(edges)
    pairs = np.array(edges, dtype=dtype).reshape(len(edges), 2)
    assert BipartiteGraph.from_edges(g.k, g.n, pairs) == BipartiteGraph.from_edges(g.k, g.n, edges) == g
    if edges:
        x, y = edges[0]
        with pytest.raises(ValueError, match=re.escape(f"duplicate edge ({x}, {y})")):
            BipartiteGraph.from_edges(g.k, g.n, np.vstack([pairs, pairs[:1]]))


@pytest.mark.parametrize("k, n, edges, message", [
    (3, 4, np.array([[2**63, 0]], dtype=np.uint64), f"left index {2**63} out of range [0, 3)"),
    (3, 4, np.array([[0, 2**64 - 1]], dtype=np.uint64), f"right index {2**64 - 1} out of range [0, 4)"),
    (3, 4, [(2**63, 0)], f"left index {2**63} out of range [0, 3)"),
    (3, 4, [(0, 1), (-2**63 - 1, 0)], f"left index {-2**63 - 1} out of range [0, 3)"),
])
def test_from_edges_names_an_endpoint_past_int64_as_given(k, n, edges, message):
    with pytest.raises(ValueError) as err:
        BipartiteGraph.from_edges(k, n, edges)
    assert str(err.value) == message


@st.composite
def row_queries(draw):
    """A graph and queries (xs, ys): left vertices, and right values from
    before the first column to past the last."""
    g = draw(bipartite_graphs(max_k=6, max_n=8))
    count = draw(st.integers(0, 30))
    xs = draw(st.lists(st.integers(0, g.k - 1), min_size=count, max_size=count))
    ys = draw(st.lists(st.integers(-2, g.n + 1), min_size=count, max_size=count))
    return g, xs, ys


@given(row_queries())
@example((BipartiteGraph.from_edges(2, 3, []), [0, 1, 1], [0, 2, -1]))  # no edges
@example((complete_graph(2, 3), [], []))  # no queries
# Row 0 is empty; row 1 holds the first and the last column, and 1 and 2
# fall between them.
@example((BipartiteGraph.from_edges(2, 4, [(1, 0), (1, 3)]), [0, 0, 1, 1, 1, 1, 1, 1],
          [0, 3, -1, 0, 1, 2, 3, 4]))
def test_row_search_matches_has_edge(query):
    g, xs, ys = query
    pos, found = graph._row_search(g, np.array(xs, dtype=np.int64), np.array(ys, dtype=np.int64))
    assert found.tolist() == [g.has_edge(x, y) for x, y in zip(xs, ys)]
    assert pos.tolist() == [
        int(g.indptr[x]) + int(np.searchsorted(g.neighbors(x), y)) for x, y in zip(xs, ys)
    ]


def test_sides_too_large_for_int64_edge_keys_rejected():
    with pytest.raises(ValueError, match="int64"):
        BipartiteGraph.from_edges(2**32, 2**32, [])
    for header in ("p bipartite 4294967296 4294967296", "p bipartite 1 10000000000000000000"):
        with pytest.raises(ValueError, match="int64"):
            parse_graph(header + "\ne 0 0\n")


def connected_by_union_find(g):
    """Connectivity oracle: union-find over g.edges(), right vertex y as k + y."""
    parent = list(range(g.k + g.n))

    def root(v):
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    for x, y in g.edges():
        parent[root(x)] = root(g.k + y)
    return len({root(v) for v in range(g.k + g.n)}) == 1


def zigzag_path(k):
    """The path x0 y0 x1 y1 ... x_{k-1} y_{k-1}."""
    edges = [(i, i) for i in range(k)] + [(i + 1, i) for i in range(k - 1)]
    return BipartiteGraph.from_edges(k, k, edges)


@given(bipartite_graphs())
@example(zigzag_path(5000))
@example(BipartiteGraph.from_edges(1, 1, []))
@example(BipartiteGraph.from_edges(1, 3, [(0, 0), (0, 1), (0, 2)]))
@example(BipartiteGraph.from_edges(3, 1, [(0, 0), (1, 0)]))  # x2 isolated
@example(BipartiteGraph.from_edges(2, 2, [(0, 0), (1, 0)]))  # y1 isolated
@example(BipartiteGraph.from_edges(2, 2, [(0, 0), (1, 1)]))  # two components
def test_is_connected_matches_union_find(g):
    assert is_connected(g) is connected_by_union_find(g)
    assert is_connected(g.swap_sides()) is is_connected(g)


def test_vertex_set_side_checks():
    g = complete_graph(2, 2)
    with pytest.raises(ValueError):
        edge_count_between(g, left_set([5]), right_set([0]))
    with pytest.raises(ValueError):
        edge_count_between(g, right_set([0]), right_set([0]))  # wrong side


def test_swap_sides():
    g = parse_graph("p bipartite 2 3\ne 0 2\ne 1 0")
    s = g.swap_sides()
    assert (s.k, s.n) == (3, 2)
    assert sorted(s.edges()) == [(0, 1), (2, 0)]
    assert s.swap_sides() == g


@given(bipartite_graphs())
@example(BipartiteGraph.from_edges(1, 1, []))
@example(BipartiteGraph.from_edges(1, 1, [(0, 0)]))
@example(BipartiteGraph.from_edges(1, 4, [(0, 1), (0, 3)]))
@example(BipartiteGraph.from_edges(5, 1, [(0, 0), (4, 0)]))
@example(BipartiteGraph.from_edges(3, 2, []))
def test_swap_sides_transposes(g):
    assert [f.name for f in dataclasses.fields(g)] == ["k", "n", "indptr", "indices"]
    s = g.swap_sides()
    assert (s.k, s.n) == (g.n, g.k)
    assert list(s.edges()) == sorted((y, x) for x, y in g.edges())
    assert s.swap_sides() == g
    assert not s.indptr.flags.writeable and not s.indices.flags.writeable


def test_side_other():
    assert Side.LEFT.other() is Side.RIGHT
    assert Side.RIGHT.other() is Side.LEFT


def csr_arrays(g):
    return [g.indptr.tolist(), g.indices.tolist()]


@given(bipartite_graphs(), st.integers(1, 3))
def test_sorted_key_constructions_match_build(g, copies):
    xs, ys = g.edge_arrays()
    from_keys = BipartiteGraph._from_keys(g.k, g.n, xs * g.n + ys)
    assert csr_arrays(from_keys) == csr_arrays(g)
    shift = np.repeat(np.arange(copies), g.edge_count)
    built = BipartiteGraph._build(
        g.k * copies, g.n * copies, np.tile(xs, copies) + shift * g.k,
        np.tile(ys, copies) + shift * g.n,
    )
    assert csr_arrays(disjoint_copies(g, copies)) == csr_arrays(built)


@pytest.mark.parametrize("keys, fragment", [
    ([3, 1], "not strictly increasing"),
    ([0, 2, 2], "not strictly increasing"),
    ([-1, 0], r"out of range \[0, k\*n\) for k=2, n=3"),
    ([0, 6], r"out of range \[0, k\*n\) for k=2, n=3"),
])
def test_from_keys_rejects_a_broken_precondition(keys, fragment):
    with pytest.raises(ValueError, match=fragment):
        BipartiteGraph._from_keys(2, 3, keys)


def test_from_keys_rejects_a_broken_precondition_under_python_O():
    script = (
        "from nmpkit import BipartiteGraph\n"
        "assert False, 'asserts must be off'\n"
        "for keys in ([3, 1], [0, 2, 2], [-1, 0], [0, 6]):\n"
        "    try:\n"
        "        BipartiteGraph._from_keys(2, 3, keys)\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    src = str(Path(graph.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "edge keys are not strictly increasing",
        "edge keys are not strictly increasing",
        "edge keys out of range [0, k*n) for k=2, n=3",
        "edge keys out of range [0, k*n) for k=2, n=3",
    ]
