"""Simple undirected graphs with dart (oriented half-edge) indexing.

Vertices are dense integers in [0, n) and edges are dense integers in
[0, m), numbered in construction order with endpoints normalized to
(low, high). Every edge e carries two opposite darts: dart 2*e runs
low -> high and dart 2*e + 1 runs high -> low. Dart ids are stable,
allocation-free keys for the layer sets used by the trail search, and the
opposite dart is a single bit flip.

A Graph is immutable after construction and safe to share between any
number of concurrent readers.
"""

from __future__ import annotations

from collections.abc import Iterable

MAX_VERTICES = 1_000_000  # parse_graph's cap on n: a Graph allocates per vertex


class GraphFormatError(ValueError):
    """Malformed edge-list document, with the offending 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.reason = message


def opposite(dart: int) -> int:
    """Return the other dart on the same edge."""
    return dart ^ 1


def dart_edge(dart: int) -> int:
    """Return the edge id a dart lies on."""
    return dart >> 1


class Graph:
    """Immutable simple undirected graph (no loops, no parallel edges).

    The constructor is the one place that decides whether an edge list is
    valid. Each edge is checked as it is read, in this order, and the
    first refused edge raises ValueError: "loop edge at vertex U", then
    "vertex index X out of range for n = N", then "duplicate edge (A, B)".
    parse_graph reports the same messages on the refused edge's line.

    Attributes:
        n: vertex count.
        m: edge count.
        endpoints: tuple of (low, high) vertex pairs indexed by edge id.
        dart_tails / dart_heads: tuples of length 2*m mapping a dart id to
            its tail / head vertex.
        adjacency: per-vertex tuple of outgoing darts (darts whose tail is
            that vertex), sorted ascending by dart id.
    """

    __slots__ = ("n", "m", "endpoints", "dart_tails", "dart_heads", "adjacency", "_edge_ids")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        endpoints: list[tuple[int, int]] = []
        edge_ids: dict[tuple[int, int], int] = {}
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop edge at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                bad = v if 0 <= u < n else u
                raise ValueError(f"vertex index {bad} out of range for n = {n}")
            pair = (u, v) if u < v else (v, u)
            if pair in edge_ids:
                raise ValueError(f"duplicate edge {pair}")
            edge_ids[pair] = len(endpoints)
            endpoints.append(pair)

        tails: list[int] = []
        heads: list[int] = []
        out: list[list[int]] = [[] for _ in range(n)]
        for e, (u, v) in enumerate(endpoints):
            tails.append(u)
            heads.append(v)
            tails.append(v)
            heads.append(u)
            out[u].append(2 * e)
            out[v].append(2 * e + 1)

        self.n = n
        self.m = len(endpoints)
        self.endpoints = tuple(endpoints)
        self.dart_tails = tuple(tails)
        self.dart_heads = tuple(heads)
        # per-vertex darts arrive in increasing edge id, hence already sorted
        self.adjacency = tuple(tuple(ds) for ds in out)
        self._edge_ids = edge_ids

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def out_darts(self, v: int) -> tuple[int, ...]:
        """Darts leaving v, ascending by id."""
        return self.adjacency[v]

    def head(self, dart: int) -> int:
        return self.dart_heads[dart]

    def tail(self, dart: int) -> int:
        return self.dart_tails[dart]

    def edge_id(self, u: int, v: int) -> int | None:
        """Edge id joining u and v, or None when absent."""
        return self._edge_ids.get((u, v) if u < v else (v, u))

    def has_edge(self, u: int, v: int) -> bool:
        return self.edge_id(u, v) is not None

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _data_lines(text: str):
    """Yield (line number, stripped line) for every line that is not blank or a '#' comment.

    Lines end at '\\n' only; the strip drops a CRLF line's '\\r'.
    str.splitlines would also end a line at '\\x0b', '\\x0c', '\\x1c' to
    '\\x1e', '\\x85', '\\u2028' and '\\u2029', and so read edges out of a
    comment line.
    """
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if line and line[0] != "#":
            yield lineno, line


def _end_line(text: str) -> int:
    """Number of the line after the last one: lines end at '\\n', and a last unterminated line counts."""
    return text.count("\n") + (1 if not text or text.endswith("\n") else 2)


def _int_pair(lineno: int, line: str, expected="edge line 'u v'", kind="edge") -> tuple[int, int]:
    """Read a data line of two whitespace-separated integers, or raise GraphFormatError."""
    fields = line.split()
    if len(fields) != 2:
        raise GraphFormatError(lineno, f"expected {expected}, got {line!r}")
    try:
        return int(fields[0]), int(fields[1])
    except ValueError:
        raise GraphFormatError(lineno, f"{kind} fields must be integers, got {line!r}") from None


def parse_graph(text: str) -> Graph:
    """Parse the plain edge-list format into a Graph.

    Lines whose first non-blank character is '#' and blank lines are
    skipped. The first data line is the header "n m"; exactly m data lines
    "u v" (whitespace-separated decimal) follow. This function checks the
    text: the header (refused above MAX_VERTICES before anything is
    allocated), the field count and integers of each line, and an edge
    count disagreeing with the header. Graph checks the edges (loops,
    out-of-range vertex ids, duplicates) as the lines are read, so every
    refusal is a GraphFormatError naming the first faulty line.
    """
    lines = _data_lines(text)
    header = next(lines, None)
    if header is None:
        raise GraphFormatError(_end_line(text), "missing 'n m' header")
    lineno, line = header
    n, m = _int_pair(lineno, line, "header 'n m'", "header")
    if n < 0 or m < 0:
        raise GraphFormatError(lineno, "header counts must be non-negative")
    if n > MAX_VERTICES:
        raise GraphFormatError(lineno, f"vertex count {n} exceeds the limit of {MAX_VERTICES}")

    def edges():
        nonlocal lineno
        count = 0
        for lineno, line in lines:
            if count == m:
                raise GraphFormatError(lineno, f"header promised {m} edges, found an extra edge line")
            yield _int_pair(lineno, line)
            count += 1
        if count != m:
            raise GraphFormatError(_end_line(text), f"header promised {m} edges, found {count}")

    try:
        return Graph(n, edges())
    except GraphFormatError:
        raise
    except ValueError as exc:  # Graph refused the edge on the line last read
        raise GraphFormatError(lineno, str(exc)) from None


def serialize_graph(g: Graph) -> str:
    """Render the normalized edge-list document (round-trips through parse_graph)."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.endpoints)
    return "\n".join(lines) + "\n"
