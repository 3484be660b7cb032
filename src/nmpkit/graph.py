"""Bipartite graph core: construction, vertex sets, induced subgraphs, file I/O.

Vertices are 0-based on both sides. The left side X has k vertices, the
right side Y has n vertices. Adjacency is stored once, left to right, as
compressed sparse rows of int64 numpy arrays: the right neighbors of x are
indices[indptr[x]:indptr[x+1]], sorted. The right side's rows are the rows
of g.swap_sides(), which builds the transpose, so call it once per graph,
not once per vertex; the right degrees are np.bincount(g.indices,
minlength=g.n). Every graph ends in one private constructor, _from_keys,
which takes the edge keys x*n + y strictly increasing. _build range-checks
edges given in any order, rejects repeats and sorts them into keys; callers
whose keys are sorted and unique by construction (induced subgraphs,
from_matrix, the generators) skip that sort. The one exception is
parse_graph's bulk path, which checks the same precondition as it decodes
each x and y, and builds the rows from them. The arrays are read-only, so
graphs are immutable after construction.

File format (line-oriented UTF-8):
    # optional comment lines
    p bipartite <k> <n>
    e <x> <y>          (0 <= x < k, 0 <= y < n; duplicates are an error)
The serializer emits the header and then edges sorted by (x, y). When the
edge lines are exactly in that form, the parser checks it and decodes the
numbers on the bytes, in chunks that fit in L2, straight into edge arrays
allocated once; from 1 MB of edge text up the chunks run on one thread per
usable CPU (_threads.run_blocks). Sorted edges skip _build's sort; any other
valid text parses to the same graph line by line.
"""

from __future__ import annotations

import os
import re
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

import numpy as np

from ._threads import run_blocks

_INT64_MAX = np.iinfo(np.int64).max


class FormatError(ValueError):
    """Malformed input file (graph or star-array)."""


@contextmanager
def _utf8():
    """Report text that is not UTF-8 as a FormatError."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise FormatError(f"not valid UTF-8 text ({exc.reason})") from None


def _read_text(path: str) -> str:
    """A graph or star-array file's text. Text mode turns CRLF line ends into
    LF, which keeps a CRLF graph file on parse_graph's bulk path."""
    with open(path, "r", encoding="utf-8") as fh, _utf8():
        return fh.read()


class _BadEdge(ValueError):
    """Edge number `index` of a construction's input is out of range or a repeat.

    The message is in from_edges' words; parse_graph rewords it with the
    edge's line number.
    """

    def __init__(self, index: int, kind: str, x: int, y: int, k: int, n: int):
        self.index = index
        self.kind = kind
        super().__init__(
            {
                "left": f"left index {x} out of range [0, {k})",
                "right": f"right index {y} out of range [0, {n})",
                "duplicate": f"duplicate edge ({x}, {y})",
            }[kind]
        )


class Side(Enum):
    LEFT = "left"
    RIGHT = "right"

    def other(self) -> "Side":
        return Side.RIGHT if self is Side.LEFT else Side.LEFT


@dataclass(frozen=True)
class VertexSet:
    """A set of vertex indices on one side, kept sorted and duplicate-free."""

    side: Side
    members: tuple[int, ...]

    def __post_init__(self):
        members = tuple(sorted(set(self.members)))
        object.__setattr__(self, "members", members)
        if members and members[0] < 0:
            raise ValueError("vertex indices must be nonnegative")

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __contains__(self, v: int) -> bool:
        i = bisect_left(self.members, v)
        return i < len(self.members) and self.members[i] == v


def left_set(members: Iterable[int]) -> VertexSet:
    return VertexSet(Side.LEFT, tuple(members))


def right_set(members: Iterable[int]) -> VertexSet:
    return VertexSet(Side.RIGHT, tuple(members))


def _ids(s: VertexSet) -> np.ndarray:
    return np.array(s.members, dtype=np.int64)


def _is_int(v) -> bool:
    """An integer value: a Python or numpy integer, not a bool, and not a
    float or a string that would convert to one."""
    return type(v) is int or isinstance(v, np.integer)


def _clipped(col: np.ndarray, bound: int) -> np.ndarray:
    """An integer column as int64, each value below 0 read as -1 and each
    one above bound as bound, so that a value past int64 stays out of range
    instead of wrapping round or overflowing."""
    if col.dtype == object:
        col = np.clip(col, -1, bound)
    elif col.dtype == np.uint64:
        col = np.minimum(col, max(bound, 0))
    return np.asarray(col, dtype=np.int64)


def _check_sizes(k: int, n: int) -> None:
    if k < 1 or n < 1:
        raise ValueError(f"sides must be nonempty, got k={k}, n={n}")
    if k * n > _INT64_MAX:
        raise ValueError(f"k*n = {k * n} exceeds the int64 edge keys")


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The integer ranges [starts[i], starts[i] + lens[i]) laid end to end.

    With starts = indptr[rows] and lens = indptr[rows + 1] - starts, these
    are the positions of the CSR rows' entries, row after row.
    """
    out = np.repeat(starts - (np.cumsum(lens) - lens), lens)
    out += np.arange(len(out))
    return out


def _row_search(g: BipartiteGraph, xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """For each query i, the position in g.indices at which ys[i] is, or
    would be inserted, in the sorted row of left vertex xs[i]; and whether
    the edge (xs[i], ys[i]) is there.

    One binary search per query, all queries at once: each step halves
    every query's range within its own row, so there are as many steps as
    the longest queried row has bits, and edges outside the queried rows
    are never read. xs must be left vertices of g; ys may be any integers.
    """
    xs = np.asarray(xs, dtype=np.int64)
    ys = np.asarray(ys, dtype=np.int64)
    lo, end = g.indptr[xs], g.indptr[xs + 1]
    hi = end
    for _ in range(int((end - lo).max(initial=0)).bit_length()):
        mid = (lo + hi) >> 1
        # mid < hi keeps an empty range as it is, and keeps mid in bounds.
        right = mid < hi
        right &= g.indices[np.minimum(mid, len(g.indices) - 1)] < ys
        lo = np.where(right, mid + 1, lo)
        hi = np.where(right, hi, mid)
    found = lo < end
    found[found] = g.indices[lo[found]] == ys[found]
    return lo, found


@dataclass(frozen=True, eq=False)
class BipartiteGraph:
    """Immutable bipartite graph with left-to-right CSR adjacency."""

    k: int
    n: int
    indptr: np.ndarray    # left x -> its right neighbors indices[indptr[x]:indptr[x+1]]
    indices: np.ndarray   # sorted within each row

    def __post_init__(self):
        for a in (self.indptr, self.indices):
            a.flags.writeable = False

    @classmethod
    def _build(cls, k: int, n: int, xs, ys) -> "BipartiteGraph":
        """The one validation path for edges given in any order.

        Raises _BadEdge for the first edge, in input order, that is out of
        range or repeats an earlier one; the sorted keys go to _from_keys.
        """
        _check_sizes(k, n)
        xs = np.asarray(xs, dtype=np.int64)
        ys = np.asarray(ys, dtype=np.int64)
        bad = (xs < 0) | (xs >= k) | (ys < 0) | (ys >= n)
        first_bad = int(bad.argmax()) if bad.any() else len(xs)
        keys = xs[:first_bad] * n + ys[:first_bad]
        fwd = np.sort(keys)
        if (fwd[1:] == fwd[:-1]).any():
            order = np.argsort(keys, kind="stable")
            i = int(order[1:][keys[order[1:]] == keys[order[:-1]]].min())
            raise _BadEdge(i, "duplicate", int(xs[i]), int(ys[i]), k, n)
        if first_bad < len(xs):
            x, y = int(xs[first_bad]), int(ys[first_bad])
            raise _BadEdge(first_bad, "left" if not 0 <= x < k else "right", x, y, k, n)
        return cls._from_keys(k, n, fwd)

    @classmethod
    def _from_keys(cls, k: int, n: int, keys) -> "BipartiteGraph":
        """Graph of the edge keys x*n + y, which must be strictly increasing.

        The tail of _build, for callers whose keys are sorted and unique by
        construction: it skips the sort and the duplicate pass, and checks
        its precondition in one O(E) pass instead.
        """
        _check_sizes(k, n)
        keys = np.asarray(keys, dtype=np.int64)
        if (keys[1:] <= keys[:-1]).any():
            raise ValueError("edge keys are not strictly increasing")
        if len(keys) and not (0 <= keys[0] and keys[-1] < k * n):
            raise ValueError(f"edge keys out of range [0, k*n) for k={k}, n={n}")
        return cls(k, n, np.searchsorted(keys, n * np.arange(k + 1)), keys % n)

    @classmethod
    def from_edges(cls, k: int, n: int, edges: Iterable[tuple[int, int]]) -> "BipartiteGraph":
        """Graph of the (x, y) pairs `edges`, given in any order.

        An ndarray of an integer dtype is taken as it is, so an (E, 2) array
        makes no Python object per edge; any other input is read pair by
        pair, and each endpoint must pass _is_int. Raises ValueError for a
        non-integer endpoint, and for the first edge, in input order, that
        is out of range or repeats an earlier one, named as it was given:
        an endpoint past int64 (a uint64 value, or a Python int) is out of
        range like any other.
        """
        if isinstance(edges, np.ndarray) and np.issubdtype(edges.dtype, np.integer):
            pairs = edges
        else:
            pairs = np.array(list(edges), dtype=object)
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("edges must be (x, y) pairs")
        if pairs.dtype == object and not all(map(_is_int, pairs.flat)):
            v = next(v for v in pairs.flat if not _is_int(v))
            raise ValueError(f"edge endpoint {v!r} is not an integer")
        xs, ys = pairs[:, 0], pairs[:, 1]
        try:
            return cls._build(k, n, _clipped(xs, k), _clipped(ys, n))
        except _BadEdge as exc:
            i = exc.index
            raise _BadEdge(i, exc.kind, xs[i], ys[i], k, n) from None

    @classmethod
    def from_matrix(cls, mat: np.ndarray) -> "BipartiteGraph":
        """Build from a boolean k x n adjacency matrix.

        np.nonzero lists the entries in row-major order, so their keys are
        already strictly increasing and go to _from_keys without a sort.
        """
        k, n = np.shape(mat)
        xs, ys = np.nonzero(mat)
        return cls._from_keys(k, n, xs * n + ys)

    @property
    def edge_count(self) -> int:
        return len(self.indices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BipartiteGraph):
            return NotImplemented
        return (
            (self.k, self.n) == (other.k, other.n)
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __hash__(self) -> int:
        return hash((self.k, self.n, self.indptr.tobytes(), self.indices.tobytes()))

    def neighbors(self, x: int) -> np.ndarray:
        """Sorted right neighbors of left vertex x, as a read-only view."""
        return self.indices[self.indptr[x]:self.indptr[x + 1]]

    def degree(self, x: int) -> int:
        return int(self.indptr[x + 1] - self.indptr[x])

    def has_edge(self, x: int, y: int) -> bool:
        row = self.neighbors(x)
        i = int(row.searchsorted(y))
        return i < len(row) and bool(row[i] == y)

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """All edges as (left, right) int64 arrays in (x, y) sorted order."""
        return np.repeat(np.arange(self.k), np.diff(self.indptr)), self.indices

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges in (x, y) sorted order."""
        xs, ys = self.edge_arrays()
        return zip(xs.tolist(), ys.tolist())

    def swap_sides(self) -> "BipartiteGraph":
        """The graph with X and Y exchanged, from the keys y*k + x, sorted."""
        xs, ys = self.edge_arrays()
        keys = ys * self.k + xs
        keys.sort()
        return BipartiteGraph._from_keys(self.n, self.k, keys)

    def matrix(self) -> np.ndarray:
        """Dense boolean adjacency matrix (k x n)."""
        mat = np.zeros((self.k, self.n), dtype=bool)
        mat[self.edge_arrays()] = True
        return mat


def _header_record(parts: list[str], line: str, lineno: int, have_header: bool) -> tuple[int, int]:
    """(k, n) from a header record; any other record reaching here is an error."""
    if parts[0] == "p":
        if have_header:
            raise FormatError(f"line {lineno}: repeated header")
        if len(parts) != 4 or parts[1] != "bipartite":
            raise FormatError(f"line {lineno}: malformed header {line!r}")
        try:
            k, n = int(parts[2]), int(parts[3])
        except ValueError:
            raise FormatError(f"line {lineno}: non-integer sizes in header") from None
        if k < 1 or n < 1:
            raise FormatError(f"line {lineno}: sizes must be >= 1, got k={k}, n={n}")
        return k, n
    if parts[0] == "e":
        if not have_header:
            raise FormatError(f"line {lineno}: edge before header")
        raise FormatError(f"line {lineno}: malformed edge line {line!r}")
    raise FormatError(f"line {lineno}: unknown record {parts[0]!r}")


def _is_int_token(token: str) -> bool:
    try:
        int(token)
    except ValueError:
        return False
    return True


def _token_ints(tokens: list[str]) -> np.ndarray:
    """int() of every token; a value beyond int64 becomes -1, out of range either way."""
    try:
        return np.array(tokens, dtype=np.int64)
    except OverflowError:
        return np.array(
            [v if -_INT64_MAX <= v <= _INT64_MAX else -1 for v in map(int, tokens)],
            dtype=np.int64,
        )


def _parsed_graph(k: int, n: int, ax, ay, xs, ys, linenos) -> BipartiteGraph:
    """The one _build call of parse_graph, on endpoints ax, ay.

    xs[i], ys[i] are edge i's endpoints as written and linenos[i] its line;
    the first bad edge is named with them.
    """
    try:
        return BipartiteGraph._build(k, n, ax, ay)
    except _BadEdge as exc:
        i = exc.index
        x, y = int(xs[i]), int(ys[i])
        reason = {
            "left": f"left index {x} out of range, k={k}",
            "right": f"right index {y} out of range, n={n}",
            "duplicate": f"duplicate edge ({x}, {y})",
        }[exc.kind]
        raise FormatError(f"line {linenos[i]}: {reason}") from None


def _token_graph(k: int, n: int, xs: list[str], ys: list[str], linenos: list[int]) -> BipartiteGraph:
    """Graph of the gathered edge tokens; the first bad one is named with its line."""
    cut = len(xs)
    try:
        ax, ay = _token_ints(xs), _token_ints(ys)
    except ValueError:
        cut = next(i for i, pair in enumerate(zip(xs, ys)) if not all(map(_is_int_token, pair)))
        ax, ay = _token_ints(xs[:cut]), _token_ints(ys[:cut])
    g = _parsed_graph(k, n, ax, ay, xs, ys, linenos)
    if cut < len(xs):
        raise FormatError(f"line {linenos[cut]}: non-integer edge endpoints")
    return g


def _scan_lines(text: str) -> tuple[int, int, list[str], list[str], list[int]]:
    """The line loop: header sizes, and the edge tokens with their line numbers.

    When a later line is malformed, the edges gathered so far are checked
    first, so the error always names the first bad line.
    """
    k = n = None
    xs: list[str] = []
    ys: list[str] = []
    linenos: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] == "e" and len(parts) == 3 and k is not None:
            xs.append(parts[1])
            ys.append(parts[2])
            linenos.append(lineno)
            continue
        try:
            k, n = _header_record(parts, raw.strip(), lineno, k is not None)
        except FormatError:
            if xs:
                _token_graph(k, n, xs, ys, linenos)
            raise
    if k is None:
        raise FormatError("missing header line 'p bipartite <k> <n>'")
    return k, n, xs, ys, linenos


def _parse_lines(text: str) -> BipartiteGraph:
    """The general path of parse_graph: every line split and checked on its own."""
    return _token_graph(*_scan_lines(text))


# The line breaks of str.splitlines.
_LINE_BREAKS = re.compile("[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")


def _header_end(data: bytes) -> int | None:
    """Offset in the UTF-8 text data just past the first record line, or None
    if a line before it has a line break other than a plain newline."""
    pos = 0
    while (end := data.find(b"\n", pos)) >= 0:
        line = data[pos:end].decode("utf-8", "surrogatepass")
        if _LINE_BREAKS.search(line):
            return None
        parts = line.split()
        if parts and not parts[0].startswith("#"):
            return end + 1
        pos = end + 1
    return None


# Bytes of edge text checked and decoded at a time, cut at a line end, so
# that every temporary array of a chunk stays in L2.
_CHUNK = 1 << 18

# The bytes of a canonical edge line that are not digits, in order, as one
# little-endian uint32.
_LINE_FORM = int.from_bytes(b"e  \n", "little")

# _KEEP[r] keeps the last min(r, 8) of 8 ASCII digits in a little-endian
# word, each as its value 0-9, and clears the bytes in front of them.
_KEEP = np.array(
    [(0x0F0F0F0F0F0F0F0F << 8 * max(8 - r, 0)) & (1 << 64) - 1 for r in range(19)],
    dtype=np.uint64,
)


def _run_values(
    words: np.ndarray, stops: np.ndarray, runs: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """The numbers written as runs of 1-18 ASCII digits, run i being the
    last runs[i] bytes of the word words[stops[i]] and of the words before;
    written into the uint64 array out when it is given, and returned.

    words[s] is bytes s..s+7 of a buffer read as one little-endian uint64, so
    a run's last 8 digits are the word's high bytes, its first digit the
    lowest of them. With the bytes in front of the run cleared, three
    multiply/shift/mask steps add up digit pairs, then pairs of pairs, then
    the two halves (SWAR; Langdale and Lemire, Parsing Gigabytes of JSON per
    Second, VLDB J. 2019); the last step writes into out. A run of more than
    8 digits takes its next 8 from the word 8 bytes before.

    The gather is the fancy index words[stops]. np.take(words, stops,
    out=...) would save the copy into out, but on this unaligned stride-1
    view it first copies the whole view, 8 bytes per byte of data: for one
    chunk's 29.5k numbers of the approx_b benchmark's file, 26 MB and 4.3 ms
    against 0.24 MB and 0.24 ms.
    """
    v = words[stops]
    v &= _KEEP[runs]
    v *= 10 << 8 | 1
    v >>= 8
    v &= 0x00FF00FF00FF00FF
    v *= 100 << 16 | 1
    v >>= 16
    v &= 0x0000FFFF0000FFFF
    v *= 10000 << 32 | 1
    v = np.right_shift(v, 32, out=v if out is None else out)
    more = np.flatnonzero(runs > 8)
    if len(more):
        v[more] += _run_values(words, stops[more] - 8, runs[more] - 8) * 10**8
    return v


def _canonical_edges(
    data: bytes | str, k: int, n: int, start: int = 0
) -> tuple[np.ndarray, np.ndarray, bool] | None:
    """The endpoints xs, ys of the edge lines data[start:] in exactly the
    form serialize_graph writes, "e <x> <y>\n" with 1-18 ASCII digits per
    number (so every value fits in int64), and whether they are in range and
    in strictly increasing key order for sizes k, n; None for any other text.

    The bytes are cut into chunks of about _CHUNK that end at a line end, and
    each chunk's newlines are counted (with numpy: bytes.count took 3-4x as
    long), so that xs and ys are allocated once and each chunk owns the
    slice of them from its first line on; there are no per-chunk arrays to
    concatenate. The chunks are blocks of _threads.run_blocks, with the
    edge-text bytes as the work: from _threads._MIN_WORK bytes up they run
    on every usable CPU. In each, the bytes that are not digits must be "e",
    " ", " ", "\n" per line, the "e" first on its line and right before a
    space, with 1-18 digits between the spaces and between the second space
    and the line end; so a byte outside ASCII fails the form, and a chunk
    that passes has as many lines as newlines. Each number is then read from
    the 8-byte words before its stop by _run_values, in place in data, whose
    last step writes into the chunk's slice (see there why the gather stays
    a fancy index). The chunk reports whether its keys x*n + y are in range
    and increasing, with its first and last key; the caller checks the order
    across chunk ends. Keys are computed only when k*n fits in int64. The
    first line's words reach up to 5 bytes in front of start, where
    parse_graph's header line (16 bytes at least) lies and _KEEP clears
    them; edge text with fewer than 8 bytes in front is copied behind zero
    bytes.
    """
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogatepass")
    if start < 8:
        data, start = bytes(8 - start) + data, 8
    if len(data) > start and data[-1] != ord("\n"):
        return None
    b = np.frombuffer(data, dtype=np.uint8)
    words = np.ndarray((len(data) - 7,), dtype="<u8", buffer=data, strides=(1,))
    chunks = []  # (lo, hi, index of the chunk's first line)
    lo = start
    lines = 0
    while lo < len(data):
        hi = data.rfind(b"\n", lo, lo + _CHUNK) + 1 or data.index(b"\n", lo) + 1
        chunks.append((lo, hi, lines))
        lines += int(np.count_nonzero(b[lo:hi] == ord("\n")))
        lo = hi
    xs = np.empty(lines, dtype=np.int64)
    ys = np.empty(lines, dtype=np.int64)
    keyed = k * n <= _INT64_MAX

    def decode(chunk: tuple[int, int, int]) -> tuple[int, ...] | None:
        """None if the chunk is not canonical; else its first and last key
        if they are in range and increasing, or () if not."""
        lo, hi, first = chunk
        c = b[lo:hi]
        marks = np.flatnonzero((c - ord("0")) > 9)
        if len(marks) % 4 or not (c[marks].view("<u4") == _LINE_FORM).all():
            return None
        s1, s2, nl = marks[1::4], marks[2::4], marks[3::4]
        # Marks increase, so the gaps from each line's start to its "e" and
        # from the "e" to the first space are at least 1 each; these 2L gaps
        # sum to 2L only if every one of them is 1.
        rx, ry = s2 - s1 - 1, nl - s2 - 1
        if (
            s1.sum() - nl.sum() + nl[-1] + 1 != len(marks) // 2
            or min(rx.min(), ry.min()) < 1
            or max(rx.max(), ry.max()) > 18
        ):
            return None
        x, y = xs[first:first + len(nl)], ys[first:first + len(nl)]
        # words[lo - 8 + s] is the 8 bytes before chunk offset s.
        _run_values(words[lo - 8:], s2, rx, x.view(np.uint64))
        _run_values(words[lo - 8:], nl, ry, y.view(np.uint64))
        if keyed:
            keys = x * n + y
            if x.max() < k and y.max() < n and (keys[1:] > keys[:-1]).all():
                return int(keys[0]), int(keys[-1])
        return ()

    ends = run_blocks(decode, chunks, len(data) - start)
    if any(e is None for e in ends):
        return None
    ordered = keyed and all(ends) and all(e[1] < f[0] for e, f in zip(ends, ends[1:]))
    return xs, ys, ordered


def parse_graph(text: str | bytes) -> BipartiteGraph:
    """Parse the graph file format; errors carry the offending line number.

    When everything after the header line is in the form serialize_graph
    writes, the edges are read in bulk: the header part goes through the
    line loop, the edge lines through _canonical_edges, which checks their
    form on the bytes and decodes the numbers chunk by chunk, on one thread
    per usable CPU for 1 MB of edge text or more. Edges that are
    in range and in increasing key order, as the serializer writes them,
    become the CSR arrays directly; others go through _build, which names
    the first bad edge in input order. Any other text takes the line loop
    throughout. Both paths give the same graph, or the same error.

    The bulk path reads one UTF-8 buffer in place: a str is encoded once,
    and bytes are used as they are. Bytes that are not all ASCII are decoded
    first, so that text which is not UTF-8 fails before anything else.
    """
    if isinstance(text, str):
        # surrogatepass: the lone surrogates a str may hold round-trip
        # through the header's decode instead of raising.
        data = text.encode("utf-8", "surrogatepass")
    else:
        data = text
        if not data.isascii():
            with _utf8():
                text = data.decode("utf-8")
    end = _header_end(data)
    edges = None
    if end is not None:
        k, n, _, _, _ = _scan_lines(data[:end].decode("utf-8", "surrogatepass"))
        edges = _canonical_edges(data, k, n, end)
    if edges is None:
        return _parse_lines(text if isinstance(text, str) else text.decode("ascii"))
    xs, ys, ordered = edges
    if ordered:
        # The header gave k, n >= 1 and k*n fits in int64, and the keys
        # x*n + y are strictly increasing: what _from_keys would check.
        return BipartiteGraph(k, n, np.searchsorted(xs, np.arange(k + 1)), ys)
    first = data.count(b"\n", 0, end) + 1
    return _parsed_graph(k, n, xs, ys, xs, ys, range(first, first + len(xs)))


# Edges formatted at a time by serialize_graph. Formatting a block, with its
# tuple of 2^17 Python ints, peaks at about 6.5 MB; one tuple for every edge
# of a graph of a few 100k edges would take tens of MB.
_SERIAL_EDGES = 1 << 16


def serialize_graph(g: BipartiteGraph, comments: Iterable[str] = ()) -> str:
    """The graph file text, with one "# " line per comment. A comment with a
    line break in it would not read back, so it is a ValueError."""
    return "".join([_serial_header(g, comments), *_serial_edges(g)])


def _serial_header(g: BipartiteGraph, comments: Iterable[str]) -> str:
    """The comment lines and the "p bipartite" line of g's file text."""
    lines = []
    for c in comments:
        if _LINE_BREAKS.search(c):
            raise ValueError(f"comment {c!r} contains a line break")
        lines.append(f"# {c}")
    lines.append(f"p bipartite {g.k} {g.n}")
    return "\n".join(lines) + "\n"


def _serial_edges(g: BipartiteGraph) -> Iterator[str]:
    """The edge lines of g's file text, _SERIAL_EDGES edges per part."""
    pairs = np.column_stack(g.edge_arrays())
    for s in range(0, g.edge_count, _SERIAL_EDGES):
        block = pairs[s:s + _SERIAL_EDGES]
        yield ("e %d %d\n" * len(block)) % tuple(block.ravel().tolist())


def load_graph(path: str) -> BipartiteGraph:
    return parse_graph(_read_text(path))


def save_graph(g: BipartiteGraph, path: str, comments: Iterable[str] = ()) -> None:
    """Write serialize_graph(g, comments) to path, one block of edges at a
    time, so the whole text is never held at once. A regular file (or a new
    one) is written beside itself and moved onto path once complete, so an
    error part-way leaves the old file whole; a device or a pipe is written
    in place. A bad comment raises before any file is opened."""
    header = _serial_header(g, comments)
    target = os.path.realpath(path)
    in_place = os.path.exists(target) and not os.path.isfile(target)
    out = target if in_place else f"{target}.{os.getpid()}.part"
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(header)
            fh.writelines(_serial_edges(g))
        if not in_place:
            os.replace(out, target)
    finally:
        if not in_place and os.path.exists(out):
            os.remove(out)


def _check_side(g: BipartiteGraph, s: VertexSet, side: Side) -> None:
    if s.side is not side:
        raise ValueError(f"expected a {side.value}-side vertex set")
    bound = g.k if side is Side.LEFT else g.n
    if s.members and s.members[-1] >= bound:
        raise ValueError(f"vertex {s.members[-1]} out of range for {side.value} side ({bound})")


def neighborhood(g: BipartiteGraph, s: VertexSet) -> VertexSet:
    """N(S): union of neighbor sets, on the opposite side. A right set's
    neighborhood is the left-set one in g.swap_sides()."""
    _check_side(g, s, s.side)
    h = g if s.side is Side.LEFT else g.swap_sides()
    ids = _ids(s)
    starts = h.indptr[ids]
    mark = np.zeros(h.n, dtype=bool)
    mark[h.indices[_ranges(starts, h.indptr[ids + 1] - starts)]] = True
    return VertexSet(s.side.other(), tuple(np.flatnonzero(mark).tolist()))


def edge_count_between(g: BipartiteGraph, a: VertexSet, b: VertexSet) -> int:
    """e(A, B): number of edges with one endpoint in each."""
    _check_side(g, a, Side.LEFT)
    _check_side(g, b, Side.RIGHT)
    in_b = np.zeros(g.n, dtype=bool)
    in_b[_ids(b)] = True
    ids = _ids(a)
    starts = g.indptr[ids]
    return int(np.count_nonzero(in_b[g.indices[_ranges(starts, g.indptr[ids + 1] - starts)]]))


def induced_subgraph(
    g: BipartiteGraph, a: VertexSet, b: VertexSet
) -> tuple[BipartiteGraph | None, tuple[int, ...], tuple[int, ...]]:
    """Subgraph induced by A u B, reindexed in ascending original order.

    Returns (subgraph, left_orig, right_orig) where left_orig[i] is the
    original index of new left vertex i (same for right). If either side is
    empty the subgraph is None (downstream operations reject empty sides).
    """
    _check_side(g, a, Side.LEFT)
    _check_side(g, b, Side.RIGHT)
    left_orig = a.members
    right_orig = b.members
    if not left_orig or not right_orig:
        return None, left_orig, right_orig
    right_new = np.full(g.n, -1, dtype=np.int64)
    right_new[_ids(b)] = np.arange(len(right_orig))
    ids = _ids(a)
    starts = g.indptr[ids]
    lens = g.indptr[ids + 1] - starts
    xs = np.repeat(np.arange(len(left_orig)), lens)
    ys = right_new[g.indices[_ranges(starts, lens)]]
    keep = ys >= 0
    # Both relabellings keep the original order, so the keys come out sorted.
    keys = xs[keep] * len(right_orig) + ys[keep]
    sub = BipartiteGraph._from_keys(len(left_orig), len(right_orig), keys)
    return sub, left_orig, right_orig


def _undirected_adjacency(g: BipartiteGraph) -> list[list[int]]:
    """g as an undirected graph on the ids 0..k+n-1, right vertex y being
    k + y: entry v lists the neighbors of id v, in ascending order."""
    h = g.swap_sides()
    ptr = np.concatenate((g.indptr, g.edge_count + h.indptr[1:])).tolist()
    ids = np.concatenate((g.indices + g.k, h.indices)).tolist()
    return [ids[ptr[v]:ptr[v + 1]] for v in range(g.k + g.n)]


def is_connected(g: BipartiteGraph) -> bool:
    """True if the graph is connected as an undirected graph on X u Y: one
    depth-first search over _undirected_adjacency(g)."""
    adj = _undirected_adjacency(g)
    seen = [False] * (g.k + g.n)
    seen[0] = True
    stack = [0]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if not seen[w]:
                seen[w] = True
                stack.append(w)
    return all(seen)


def disjoint_copies(g: BipartiteGraph, copies: int) -> BipartiteGraph:
    """Disjoint union of `copies` copies of g (copy c offset by c*k, c*n)."""
    if copies < 1:
        raise ValueError("need at least one copy")
    xs, ys = g.edge_arrays()
    shift = np.arange(copies)[:, None]
    # Copy after copy, each in (x, y) order: the keys come out sorted.
    keys = (xs + shift * g.k) * (g.n * copies) + (ys + shift * g.n)
    return BipartiteGraph._from_keys(g.k * copies, g.n * copies, keys.ravel())
