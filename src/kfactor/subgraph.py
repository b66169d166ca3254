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
        limit = 2 * self.graph.m
        for d in self.darts:
            if not 0 <= d < limit:
                raise ValueError(f"dart {d} out of range")
        heads = self.graph.dart_heads
        tails = self.graph.dart_tails
        for a, b in zip(self.darts, self.darts[1:]):
            if heads[a] != tails[b]:
                raise ValueError(f"darts {a} and {b} do not chain")

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

    apply_trail augments the receiver in place with any augmenting trail;
    augment_edge is the same augmentation for a one-edge trail without
    building a Trail. copy() is the explicit way to branch a state that
    must survive an augmentation. The deficit is cached and maintained
    incrementally; check_consistency() recomputes everything from the
    membership set and raises on any drift.

    Degrees never drop: both augmentations raise only the endpoint degrees
    and leave every inner degree as it was. So once a vertex is filled it
    stays filled, and first_unfilled() can advance one cursor lazily
    instead of rescanning from vertex 0.

    dead_starts is the layered search's memo on this state: start vertex ->
    (deficit, vertices its failed search read), each entry made at the
    deficit of the moment. Each vertex carries a change clock for it: the
    deficit left by the last augmentation that stamped the vertex, or k*n,
    which no augmentation leaves. An augmentation stamps every vertex of
    its trail (both ends of an added edge), but only while the memo holds
    an entry: no other augmentation can make an entry stale, and the
    bipartite engine, which keeps no memo, pays nothing for the clock.
    The deficit drops by exactly 2 per augmentation, so
    unchanged_since(deficit, vertices) tells whether an augmentation since
    that deficit touched one of the vertices, for the deficit of any entry
    the memo has held since. copy() carries the clock and starts with an
    empty memo.
    """

    __slots__ = ("graph", "k", "in_m", "deg", "dead_starts", "_deficit", "_unfilled_from", "_changed")

    def __init__(self, graph: Graph, k: int):
        if k < 1:
            raise ValueError("k must be a positive integer")
        self.graph = graph
        self.k = k
        self.in_m: set[int] = set()
        self.deg = [0] * graph.n
        self.dead_starts: dict[int, tuple[int, set[int]]] = {}
        self._deficit = k * graph.n
        self._unfilled_from = 0
        self._changed = [k * graph.n] * graph.n

    @classmethod
    def from_edges(cls, graph: Graph, k: int, edges) -> "KLimitedSubgraph":
        """Build a subgraph with the given member edge ids; rejects cap overflow."""
        m = cls(graph, k)
        for e in edges:
            if not 0 <= e < graph.m:
                raise ValueError(f"unknown edge id {e}")
            if e in m.in_m:
                raise ValueError(f"edge id {e} listed twice")
            u, v = graph.endpoints[e]
            if m.deg[u] >= k or m.deg[v] >= k:
                raise ValueError(f"edge {e} would push a vertex past degree {k}")
            m.in_m.add(e)
            m.deg[u] += 1
            m.deg[v] += 1
        m._deficit = k * graph.n - 2 * len(m.in_m)
        return m

    def copy(self) -> "KLimitedSubgraph":
        out = KLimitedSubgraph.__new__(KLimitedSubgraph)
        out.graph = self.graph
        out.k = self.k
        out.in_m = set(self.in_m)
        out.deg = list(self.deg)
        out.dead_starts = {}
        out._deficit = self._deficit
        out._unfilled_from = self._unfilled_from
        out._changed = list(self._changed)
        return out

    @property
    def deficit(self) -> int:
        """Total degree deficit; zero exactly when this is a k-factor."""
        return self._deficit

    def is_filled(self, v: int) -> bool:
        return self.deg[v] == self.k

    def first_unfilled(self) -> int:
        """Lowest vertex with degree below k, or n when every vertex is filled.

        The cursor only moves up, which is sound because degrees never drop;
        over a whole solve the calls cost O(n) together.
        """
        deg = self.deg
        k = self.k
        v = self._unfilled_from
        n = len(deg)
        while v < n and deg[v] == k:
            v += 1
        self._unfilled_from = v
        return v

    def unchanged_since(self, deficit: int, vertices) -> bool:
        """True when no augmentation since this deficit touched any of the vertices.

        Exact when dead_starts has held an entry ever since the state had
        this deficit, so that every augmentation made meanwhile stamped.
        """
        changed = self._changed
        for v in vertices:
            if changed[v] < deficit:
                return False
        return True

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
        if any(not self._deficit <= c <= self.k * self.graph.n for c in self._changed):
            raise AssertionError("change clock outside [deficit, k*n]")

    def validate_augmenting_trail(self, trail: Trail) -> tuple[bool, str]:
        """Check the augmenting-trail clauses; return (ok, first failed clause).

        Clause order: odd length, pairwise-distinct edges, blue/red
        alternation starting (and, by parity, ending) blue, inner vertices
        filled, endpoints unfilled, closed-trail degree guard.
        """
        if trail.graph is not self.graph:
            raise ValueError("trail darts belong to a different graph")
        darts = trail.darts
        if len(darts) % 2 == 0:
            return False, "trail length must be odd"
        seen_edges: set[int] = set()
        for d in darts:
            e = d >> 1
            if e in seen_edges:
                u, v = self.graph.endpoints[e]
                return False, f"edge ({u}, {v}) is used twice"
            seen_edges.add(e)
        in_m = self.in_m
        for i, d in enumerate(darts):
            if ((d >> 1) in in_m) != (i % 2 == 1):
                want = "red" if i % 2 == 1 else "blue"
                return False, f"edge at position {i} must be {want}"
        tails = self.graph.dart_tails
        k = self.k
        deg = self.deg
        for i in range(1, len(darts)):
            v = tails[darts[i]]
            if deg[v] != k:
                return False, f"inner vertex {v} is unfilled"
        v0 = trail.start
        v_end = trail.end
        if deg[v0] == k:
            return False, f"endpoint {v0} is filled"
        if deg[v_end] == k:
            return False, f"endpoint {v_end} is filled"
        if v0 == v_end and deg[v0] >= k - 1:
            return False, f"closed trail needs degree(start) < k - 1, got {deg[v0]}"
        return True, "ok"

    def apply_trail(self, trail: Trail) -> None:
        """Toggle the trail's edge memberships in place.

        Refused (ValueError) unless the trail validates; validation runs
        before anything changes, so a refused trail leaves the receiver as
        it was. The deficit identity and the degree cap are re-checked
        after the toggle and raise AssertionError on failure, since a
        violation here means the augmentation machinery is broken. While
        dead_starts holds an entry, every trail vertex is stamped with the
        new deficit.
        """
        ok, why = self.validate_augmenting_trail(trail)
        if not ok:
            raise ValueError(f"not an augmenting trail: {why}")
        before = self._deficit
        endpoints = self.graph.endpoints
        in_m = self.in_m
        deg = self.deg
        for d in trail.darts:
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
        self._deficit = self.k * self.graph.n - 2 * len(in_m)
        if self._deficit != before - 2:
            raise AssertionError("deficit did not drop by exactly 2")
        k = self.k
        touched = set(trail.vertices())
        for v in touched:
            if not 0 <= deg[v] <= k:
                raise AssertionError(f"degree bound violated at vertex {v}")
        if self.dead_starts:
            changed = self._changed
            for v in touched:
                changed[v] = self._deficit

    def augment_edge(self, e: int) -> None:
        """Add edge e in place: the augmentation along the one-edge trail e.

        Refused (ValueError), with nothing changed, unless e is a blue edge
        of the host whose two endpoints are both unfilled; for a one-edge
        trail those are all the clauses validate_augmenting_trail checks,
        since the host has no loops. Both endpoint degrees rise by one and
        the deficit drops by exactly 2; while dead_starts holds an entry,
        both endpoints are stamped with the new deficit.
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
        if self.dead_starts:
            self._changed[u] = self._changed[v] = self._deficit


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
            raise GraphFormatError(lineno, f"vertex index out of range for n = {g.n}")
        e = g.edge_id(u, v)
        if e is None:
            raise GraphFormatError(lineno, f"unknown edge ({u}, {v})")
        if e in seen:
            raise GraphFormatError(lineno, f"edge ({u}, {v}) listed twice")
        seen.add(e)
        out.append(e)
    return sorted(out)
