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

import json
import re
import operator
from collections.abc import Iterable, Sequence
from itertools import chain

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

    The constructor decides whether an edge list is valid. Each edge is
    checked as it is read, in this order, and the first refused edge
    raises ValueError: "loop edge at vertex U", then "vertex index X out
    of range for n = N", then "duplicate edge (A, B)". parse_graph
    reports the same messages on the refused edge's line. Its bulk
    reader checks a whole edge list in C and builds only a list the
    constructor accepts unchanged; every other list goes to the
    constructor. Both end in _build, the trusted build.

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
        self._build(n, list(chain.from_iterable(endpoints)), endpoints, edge_ids)

    def _build(
        self,
        n: int,
        tails: list[int],
        endpoints: Sequence[tuple[int, int]],
        edge_ids: dict[tuple[int, int], int],
    ) -> None:
        """Set every attribute from edges already checked: the trusted build.

        endpoints holds the normalized (low, high) pairs of a simple graph
        on n vertices, edge_ids maps each pair to its index, and tails is
        the flat list u0 v0 u1 v1 ... of those pairs, which is dart_tails
        as it stands. Nothing is checked here, so a caller passes only
        edges the constructor would accept.
        """
        heads = [0] * len(tails)
        heads[0::2] = tails[1::2]
        heads[1::2] = tails[0::2]
        out: list[list[int]] = [[] for _ in range(n)]
        for d, t in enumerate(tails):
            out[t].append(d)
        self.n = n
        self.m = len(endpoints)
        self.endpoints = tuple(endpoints)
        self.dart_tails = tuple(tails)
        self.dart_heads = tuple(heads)
        # per-vertex darts arrive in increasing dart id, hence already sorted
        self.adjacency = tuple(map(tuple, out))
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
        if "_" in line:  # int reads '_' digit separators: '0_2' would be 2
            raise ValueError(line)
        return int(fields[0]), int(fields[1])
    except ValueError:
        raise GraphFormatError(lineno, f"{kind} fields must be integers, got {line!r}") from None


# the canonical document serialize_graph writes: every line two ASCII
# decimals split by one space, ending at '\n' (the last line may not)
_CANONICAL = re.compile(r"[0-9]+ [0-9]+(?:\n[0-9]+ [0-9]+)*\n?", re.ASCII)


def _read_canonical(text: str) -> Graph | None:
    """The Graph of a canonical document that passes every check, else None.

    The integers are read with one JSON scan of the text turned into an
    array. JSON refuses a leading zero ('07') and a decimal over int's
    digit limit with a ValueError, so such a document, like one that
    fails a header check, is left to the line reader. The edge checks run
    in C over the whole list: every id below n (the scan admits no sign),
    every pair already (low, high), so no loop, and no pair twice. A list
    that passes is exactly one the constructor accepts unchanged, and goes
    to the trusted Graph._build. Any other list goes to the constructor,
    which normalizes reversed pairs or refuses; on a refusal the document
    is left to the line reader, which names the line.
    """
    if _CANONICAL.fullmatch(text) is None:
        return None
    try:
        ints = json.loads("[" + text.rstrip("\n").replace("\n", ",").replace(" ", ",") + "]")
    except ValueError:  # a leading zero or a decimal over int's digit limit
        return None
    n, m = ints[0], ints[1]
    if n > MAX_VERTICES or len(ints) != 2 * m + 2:
        return None
    del ints[:2]
    us, vs = ints[0::2], ints[1::2]
    if max(ints, default=-1) < n and all(map(operator.lt, us, vs)):
        endpoints = tuple(zip(us, vs))
        edge_ids = dict(zip(endpoints, range(m)))
        if len(edge_ids) == m:
            g = Graph.__new__(Graph)
            g._build(n, ints, endpoints, edge_ids)
            return g
    try:
        return Graph(n, zip(us, vs))
    except ValueError:  # an edge Graph refuses
        return None


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

    The canonical document, the one serialize_graph writes (no comments
    or blank lines, every line two ASCII decimals split by one space and
    ending at '\n', the last line optionally not), is read in bulk: one
    JSON scan of the whole text, the same header checks, and edge checks
    in C that pass only a list Graph accepts unchanged, sending any other
    list to Graph itself (see _read_canonical). Any other document, a
    canonical one with a leading zero or a decimal over int's digit
    limit (JSON refuses both), and a canonical one that fails a check, is
    read line by line, so the result and every error are the same either
    way.
    """
    g = _read_canonical(text)
    if g is not None:
        return g
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
