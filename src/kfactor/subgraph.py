"""Degree-limited spanning subgraphs and the augmenting trails that grow them.

The solver's working state is a spanning subgraph M of a host graph in
which every vertex degree is capped at k. Edges inside M are "red", edges
outside "blue". The quantity driving the search is the total degree
deficit, the sum over all vertices of (k - deg_M(v)): it is non-negative,
always has the parity of k*n, and reaches zero exactly when M is a
k-factor.

An augmenting trail is a walk over pairwise-distinct edges that
alternates blue/red starting and ending blue, whose inner vertices are all
filled (degree exactly k) and whose two endpoints are unfilled; a closed
trail additionally needs its start degree below k - 1, since that vertex
gains two edge ends. Toggling membership of the trail's edges raises both
endpoint degrees by one, leaves every inner degree unchanged, and lowers
the deficit by exactly 2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, GraphFormatError, _data_lines, _int_pair


def _check_chain(graph: Graph, darts) -> None:
    """Raise ValueError unless every dart is one of graph's and each chains to the next."""
    limit = 2 * graph.m
    for d in darts:
        if not 0 <= d < limit:
            raise ValueError(f"dart {d} out of range")
    heads = graph.dart_heads
    tails = graph.dart_tails
    for a, b in zip(darts, darts[1:]):
        if heads[a] != tails[b]:
            raise ValueError(f"darts {a} and {b} do not chain")


@dataclass(frozen=True)
class Trail:
    """A chained dart sequence; the undirected trail object.

    Darts rather than vertices are stored because a trail may revisit a
    vertex; the dart sequence is unambiguous. Chaining (head of each dart
    equals tail of the next) is enforced at construction. Whether the
    trail augments a particular subgraph is checked by
    KLimitedSubgraph.validate_augmenting_trail.
    """

    graph: Graph
    darts: tuple[int, ...]

    def __post_init__(self):
        _check_chain(self.graph, self.darts)

    def __len__(self) -> int:
        return len(self.darts)

    @property
    def start(self) -> int:
        return self.graph.dart_tails[self.darts[0]]

    @property
    def end(self) -> int:
        return self.graph.dart_heads[self.darts[-1]]

    @property
    def is_closed(self) -> bool:
        return self.start == self.end

    def edge_ids(self) -> list[int]:
        return [d >> 1 for d in self.darts]

    def vertices(self) -> list[int]:
        """Vertex sequence v_0 .. v_end (one longer than the dart sequence)."""
        heads = self.graph.dart_heads
        return [self.start] + [heads[d] for d in self.darts]


class KLimitedSubgraph:
    """Spanning subgraph of a host graph with every vertex degree at most k.

    augment_darts augments the receiver in place along any dart sequence
    that is an augmenting trail, and refuses every other with nothing
    changed; apply_trail is the same for a Trail, and augment_edge for a
    one-edge trail given by its edge id; replace_edges swaps the whole
    member set in one checked step. copy() is the explicit way to branch
    a state that must survive an augmentation. The deficit is
    cached and maintained incrementally; check_consistency() recomputes
    everything from the membership set and raises on any drift.
    """

    __slots__ = ("graph", "k", "in_m", "deg", "_deficit")

    def __init__(self, graph: Graph, k: int):
        if k < 1:
            raise ValueError("k must be a positive integer")
        self.graph = graph
        self.k = k
        self.in_m: set[int] = set()
        self.deg = [0] * graph.n
        self._deficit = k * graph.n

    @classmethod
    def from_edges(cls, graph: Graph, k: int, edges) -> "KLimitedSubgraph":
        """Build a subgraph with the given member edge ids: replace_edges on the empty one."""
        m = cls(graph, k)
        m.replace_edges(edges)
        return m

    def replace_edges(self, edges) -> None:
        """Make the given edge ids the member set, in place.

        Refused (ValueError), with nothing changed, on an unknown or repeated
        id or on an edge that would push a vertex past degree k.
        """
        graph = self.graph
        k = self.k
        in_m: set[int] = set()
        deg = [0] * graph.n
        for e in edges:
            if not 0 <= e < graph.m:
                raise ValueError(f"unknown edge id {e}")
            if e in in_m:
                raise ValueError(f"edge id {e} listed twice")
            u, v = graph.endpoints[e]
            if deg[u] >= k or deg[v] >= k:
                raise ValueError(f"edge {e} would push a vertex past degree {k}")
            in_m.add(e)
            deg[u] += 1
            deg[v] += 1
        self.in_m.clear()
        self.in_m.update(in_m)
        self.deg[:] = deg
        self._deficit = k * graph.n - 2 * len(in_m)

    def copy(self) -> "KLimitedSubgraph":
        out = KLimitedSubgraph.__new__(KLimitedSubgraph)
        out.graph = self.graph
        out.k = self.k
        out.in_m = set(self.in_m)
        out.deg = list(self.deg)
        out._deficit = self._deficit
        return out

    @property
    def deficit(self) -> int:
        """Total degree deficit; zero exactly when this is a k-factor."""
        return self._deficit

    def is_filled(self, v: int) -> bool:
        return self.deg[v] == self.k

    def member_edges(self) -> list[int]:
        return sorted(self.in_m)

    def check_consistency(self) -> None:
        """Recompute degrees and deficit from scratch; raise on any mismatch."""
        deg = [0] * self.graph.n
        for e in self.in_m:
            u, v = self.graph.endpoints[e]
            deg[u] += 1
            deg[v] += 1
        if deg != self.deg:
            raise AssertionError(f"cached degrees {self.deg} != recomputed {deg}")
        if any(d > self.k for d in deg):
            raise AssertionError("degree cap exceeded")
        if self._deficit != self.k * self.graph.n - 2 * len(self.in_m):
            raise AssertionError("cached deficit out of sync with membership")

    def validate_augmenting_trail(self, trail: Trail) -> tuple[bool, str]:
        """Check the augmenting-trail clauses; return (ok, first failed clause).

        Clause order: odd length, pairwise-distinct edges, blue/red
        alternation starting (and, by parity, ending) blue, inner vertices
        filled, endpoints unfilled, closed-trail degree guard.
        """
        if trail.graph is not self.graph:
            raise ValueError("trail darts belong to a different graph")
        why = self._failed_clause(trail.darts)
        return (True, "ok") if why is None else (False, why)

    def _failed_clause(self, darts) -> str | None:
        """First augmenting-trail clause a chained dart sequence fails, or None."""
        if len(darts) % 2 == 0:
            return "trail length must be odd"
        seen_edges: set[int] = set()
        for d in darts:
            e = d >> 1
            if e in seen_edges:
                u, v = self.graph.endpoints[e]
                return f"edge ({u}, {v}) is used twice"
            seen_edges.add(e)
        in_m = self.in_m
        for i, d in enumerate(darts):
            if ((d >> 1) in in_m) != (i % 2 == 1):
                want = "red" if i % 2 == 1 else "blue"
                return f"edge at position {i} must be {want}"
        tails = self.graph.dart_tails
        k = self.k
        deg = self.deg
        for i in range(1, len(darts)):
            v = tails[darts[i]]
            if deg[v] != k:
                return f"inner vertex {v} is unfilled"
        v0 = tails[darts[0]]
        v_end = self.graph.dart_heads[darts[-1]]
        if deg[v0] == k:
            return f"endpoint {v0} is filled"
        if deg[v_end] == k:
            return f"endpoint {v_end} is filled"
        if v0 == v_end and deg[v0] >= k - 1:
            return f"closed trail needs degree(start) < k - 1, got {deg[v0]}"
        return None

    def apply_trail(self, trail: Trail) -> None:
        """Toggle the trail's edge memberships in place: augment_darts on its darts.

        A trail of another host graph is refused with ValueError too.
        """
        if trail.graph is not self.graph:
            raise ValueError("trail darts belong to a different graph")
        self.augment_darts(trail.darts)

    def augment_darts(self, darts) -> None:
        """Augment in place along a dart sequence of this host.

        Refused (ValueError), with nothing changed, unless every dart is in
        range and each chains to the next (the checks Trail makes), and the
        sequence passes every clause of validate_augmenting_trail
        ("not an augmenting trail: <clause>"). The deficit identity and the
        degree cap are re-checked after the toggle and raise AssertionError
        on failure, since a violation here means the augmentation machinery
        is broken.
        """
        graph = self.graph
        _check_chain(graph, darts)
        why = self._failed_clause(darts)
        if why is not None:
            raise ValueError(f"not an augmenting trail: {why}")
        before = self._deficit
        endpoints = graph.endpoints
        in_m = self.in_m
        deg = self.deg
        for d in darts:
            e = d >> 1
            u, v = endpoints[e]
            if e in in_m:
                in_m.discard(e)
                deg[u] -= 1
                deg[v] -= 1
            else:
                in_m.add(e)
                deg[u] += 1
                deg[v] += 1
        self._deficit = self.k * graph.n - 2 * len(in_m)
        if self._deficit != before - 2:
            raise AssertionError("deficit did not drop by exactly 2")
        k = self.k
        touched = {graph.dart_heads[d] for d in darts}
        touched.add(graph.dart_tails[darts[0]])
        for v in touched:
            if not 0 <= deg[v] <= k:
                raise AssertionError(f"degree bound violated at vertex {v}")

    def augment_edge(self, e: int) -> None:
        """Add edge e in place: the augmentation along the one-edge trail e.

        Refused (ValueError), with nothing changed, unless e is a blue edge
        of the host whose two endpoints are both unfilled; for a one-edge
        trail those are all the clauses validate_augmenting_trail checks,
        since the host has no loops. Both endpoint degrees rise by one and
        the deficit drops by exactly 2.
        """
        if not 0 <= e < self.graph.m:
            raise ValueError(f"unknown edge id {e}")
        if e in self.in_m:
            raise ValueError(f"not an augmenting trail: edge {e} is red")
        u, v = self.graph.endpoints[e]
        deg = self.deg
        k = self.k
        if deg[u] >= k or deg[v] >= k:
            raise ValueError(f"not an augmenting trail: endpoint {u if deg[u] >= k else v} is filled")
        self.in_m.add(e)
        deg[u] += 1
        deg[v] += 1
        self._deficit -= 2


def serialize_factor(g: Graph, edges) -> str:
    """One line per member edge "u v", sorted by endpoint pair."""
    pairs = sorted(g.endpoints[e] for e in edges)
    return "".join(f"{u} {v}\n" for u, v in pairs)


def parse_factor(g: Graph, text: str) -> list[int]:
    """Parse a factor document back into edge ids of g.

    Lines are read as parse_graph reads edge lines: '#' comments and blank
    lines are skipped, and a line that is not two integers is refused.
    The rest is checked here, against g: an out-of-range vertex, an edge
    g does not have and an edge listed twice each raise GraphFormatError
    with the line number.
    """
    out: list[int] = []
    seen: set[int] = set()
    for lineno, line in _data_lines(text):
        u, v = _int_pair(lineno, line)
        if not (0 <= u < g.n and 0 <= v < g.n):
            bad = v if 0 <= u < g.n else u
            raise GraphFormatError(lineno, f"vertex index {bad} out of range for n = {g.n}")
        e = g.edge_id(u, v)
        if e is None:
            raise GraphFormatError(lineno, f"unknown edge ({u}, {v})")
        if e in seen:
            raise GraphFormatError(lineno, f"edge ({u}, {v}) listed twice")
        seen.add(e)
        out.append(e)
    return sorted(out)
