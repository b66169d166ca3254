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
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) has a vertex outside 0..{n - 1}")
            if u == v:
                raise ValueError(f"loop edge at vertex {u}")
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


def parse_graph(text: str) -> Graph:
    """Parse the plain edge-list format into a Graph.

    Lines whose first non-blank character is '#' and blank lines are
    skipped. The first data line is the header "n m"; exactly m data lines
    "u v" (whitespace-separated decimal, 0 <= u, v < n) follow. Loops,
    duplicate edges, out-of-range vertex ids, malformed lines, and an edge
    count disagreeing with the header are each rejected with a
    GraphFormatError naming the offending line, as is a header n above
    MAX_VERTICES.
    """
    header: tuple[int, int] | None = None
    n = m = 0
    edges: list[tuple[int, int]] = []
    pairs_seen: set[tuple[int, int]] = set()
    last_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        last_line = lineno
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if header is None:
            if len(fields) != 2:
                raise GraphFormatError(lineno, f"expected header 'n m', got {raw.strip()!r}")
            try:
                n, m = int(fields[0]), int(fields[1])
            except ValueError:
                raise GraphFormatError(lineno, f"header fields must be integers, got {raw.strip()!r}") from None
            if n < 0 or m < 0:
                raise GraphFormatError(lineno, "header counts must be non-negative")
            if n > MAX_VERTICES:
                raise GraphFormatError(lineno, f"vertex count {n} exceeds the limit of {MAX_VERTICES}")
            header = (n, m)
            continue
        if len(edges) == m:
            raise GraphFormatError(lineno, f"header promised {m} edges, found an extra edge line")
        if len(fields) != 2:
            raise GraphFormatError(lineno, f"expected edge line 'u v', got {raw.strip()!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise GraphFormatError(lineno, f"edge fields must be integers, got {raw.strip()!r}") from None
        if u == v:
            raise GraphFormatError(lineno, f"loop edge at vertex {u}")
        for x in (u, v):
            if not 0 <= x < n:
                raise GraphFormatError(lineno, f"vertex index {x} out of range for n = {n}")
        pair = (u, v) if u < v else (v, u)
        if pair in pairs_seen:
            raise GraphFormatError(lineno, f"duplicate edge ({pair[0]}, {pair[1]})")
        pairs_seen.add(pair)
        edges.append(pair)
    if header is None:
        raise GraphFormatError(last_line + 1, "missing 'n m' header")
    if len(edges) != m:
        raise GraphFormatError(last_line + 1, f"header promised {m} edges, found {len(edges)}")
    return Graph(n, edges)


def serialize_graph(g: Graph) -> str:
    """Render the normalized edge-list document (round-trips through parse_graph)."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.endpoints)
    return "\n".join(lines) + "\n"
