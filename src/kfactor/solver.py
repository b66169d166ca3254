"""The solve entry points, feasibility prechecks, and the bipartite specialization.

Both entry points run _solve: precheck, then one call of an engine that
augments one KLimitedSubgraph in place from the empty subgraph until the
deficit hits zero (factor found) or it gives up (no factor).
compute_k_factor picks its engine by k alone. At k = 1, where a factor is
a perfect matching, it is matching.edmonds_augmenting_path, Edmonds'
blossom search on the host itself, which gives up after the first root
whose search fails: no perfect matching exists then. For k >= 2 it is
_layered_augment, which takes the layered search's trails
(find_augmenting_trail) until the search fails at its start, the least
unfilled vertex. That failure proves nothing, so the state goes to
_gadget_augment: Tutte's gadget (1954) turns a k-factor of the host into
a perfect matching of a larger graph H, and Edmonds' search on H, warm
started from the layered search's state, either completes it or proves
that no k-factor exists. Every answer is therefore exact.
compute_bipartite_k_factor refuses non-bipartite input and uses
_bfs_augmenting_path, a breadth-first shortest alternating path search
that is sound on bipartite hosts only. It first fills the empty state
with _karp_sipser_fill, a Karp-Sipser pass adapted to degree caps that
takes the edges of forced vertices first (those with no more edges to
unfilled vertices than they can still take) and ends maximal, so that
only a few vertices are left for the search.

The blossom and bipartite engines share one loop,
matching.augment_from_cursor, which keeps its own start cursor: the
least unfilled vertex, which only moves up because degrees never drop.
The layered search finds the same vertex by a scan from vertex 0 on
each call: the cursor there pushed acceptance criterion 6's 500 -> 1000
doubling ratio under its 2.5 floor.

Every engine is called as augment(g, m, trace, stats) and returns None;
m is the solve's one working state and stats its SolveStats. An engine
changes m's edges only through m's checked steps: augment_edge,
augment_darts, apply_trail, and replace_edges, which sets the whole
member set at once. It adds its extractions to stats.trails_examined
and its blossom operations to stats.blossom_operations, and traces each
augmentation of m as accepted (the gadget's, on H, are not traced). The
checks are real raises: augment_edge refuses an edge that is not a
one-edge augmenting trail, augment_darts (which apply_trail calls) a
dart sequence that is not an augmenting trail, and re-checks that the
deficit dropped by exactly 2; an engine raises a refusal of what it
found as AssertionError; and a found factor is re-verified k-regular
spanning. Every augmentation lowers the deficit by 2, so _solve reports
(k*n - deficit) / 2 augmentations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .graph import Graph
from .matching import augment_from_cursor, edmonds_augmenting_path
from .search import find_augmenting_trail
from .subgraph import KLimitedSubgraph

FACTOR_FOUND = "factor_found"
NO_FACTOR = "no_factor"
INFEASIBLE_PRECHECK = "infeasible_precheck"


@dataclass
class SolveStats:
    """Counts of one solve; deficit is what the engine left (k*n when the precheck refused)."""

    augmentations: int = 0
    trails_examined: int = 0
    blossom_operations: int = 0
    elapsed_s: float = 0.0
    deficit: int = 0


@dataclass
class SolveOutcome:
    """Result of one solve: status, the factor's edge ids when found, stats."""

    status: str
    factor: list[int] | None
    stats: SolveStats = field(default_factory=SolveStats)
    reason: str | None = None


def feasibility_precheck(g: Graph, k: int) -> str | None:
    """Cheap necessary conditions; None on pass, else the failure reasons.

    Checks: k*n must be even (every factor has k*n/2 edges), k can be at
    most n - 1 in a simple graph, and no vertex may have degree below k.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    if g.n == 0:
        return None
    reasons = []
    if (k * g.n) % 2:
        reasons.append(f"k*n = {k * g.n} is odd")
    if k > g.n - 1:
        reasons.append(f"k = {k} exceeds n - 1 = {g.n - 1}")
    min_deg = min(map(len, g.adjacency))
    if min_deg < k:
        reasons.append(f"minimum degree {min_deg} is below k = {k}")
    return "; ".join(reasons) if reasons else None


def compute_k_factor(g: Graph, k: int, trace=None) -> SolveOutcome:
    """Find a k-factor of g, or decide that none exists.

    Statuses: factor_found (with the edge id list), no_factor (a blossom
    search failed, on g or on Tutte's gadget, which proves there is none),
    infeasible_precheck (a necessary condition failed before any search).
    A successful run reports exactly k*n/2 augmentations.

    At k = 1 the trails are augmenting paths from Edmonds' blossom search:
    blossom_operations counts its contractions, trails_examined equals
    augmentations, and trace emits only "accepted" events. For k >= 2 a
    failed layered search hands the state to Tutte's gadget
    (_gadget_augment), whose augmentations and contractions count into
    the same stats and emit no trace events. Every answer is exact. On
    no_factor, deficit and augmentations are those at the first failed
    search.
    """
    return _solve(g, k, edmonds_augmenting_path if k == 1 else _layered_augment, trace)


def _layered_augment(
    g: Graph, m: KLimitedSubgraph, trace=None, stats: SolveStats | None = None
) -> None:
    """Augment m in place with find_augmenting_trail's trails, then by the gadget; return None.

    Each trail is taken with m.apply_trail, whose refusal is raised as
    AssertionError. When the search finds none, _gadget_augment decides.
    """
    while m.deficit > 0:
        # looked up by name on each call: perfbench's layer tracer patches both
        trail = find_augmenting_trail(g, m, trace, stats)
        if trail is None:
            return _gadget_augment(g, m, stats)
        try:
            m.apply_trail(trail)
        except ValueError as exc:
            raise AssertionError(str(exc)) from exc


def _gadget_augment(g: Graph, m: KLimitedSubgraph, stats: SolveStats | None) -> None:
    """Make m a k-factor in place when g has one, by Tutte's gadget; else leave m as it is.

    H has k copies v*k + i of each vertex v and two vertices a = k*n + 2e
    and a + 1 for each edge e = uv. H's edge e*(2k+1) joins a to a + 1,
    e*(2k+1) + 1 + i joins copy i of u to a, and e*(2k+1) + 1 + k + i
    copy i of v to a + 1. A perfect matching of H leaves a and a + 1
    apart exactly on the edges of a k-factor of g. m gives H's start: a
    member edge matches a and a + 1 to spare copies of u and v, any
    other a to a + 1. matching.edmonds_augmenting_path completes it, or
    fails, which proves that g has no k-factor; a completed matching's
    factor replaces m's edges.
    """
    k = m.k
    n = g.n
    step = 2 * k + 1
    pairs = []
    warm = []
    used = [0] * n  # the copies of each vertex that warm has matched
    for e, (u, v) in enumerate(g.endpoints):
        a = k * n + 2 * e
        pairs.append((a, a + 1))
        pairs.extend((u * k + i, a) for i in range(k))
        pairs.extend((v * k + i, a + 1) for i in range(k))
        if e in m.in_m:
            warm += (e * step + 1 + used[u], e * step + 1 + k + used[v])
            used[u] += 1
            used[v] += 1
        else:
            warm.append(e * step)
    h = Graph(k * n + 2 * g.m, pairs)
    hm = KLimitedSubgraph.from_edges(h, 1, warm)
    edmonds_augmenting_path(h, hm, None, stats)
    if hm.deficit == 0:
        try:
            m.replace_edges([e for e in range(g.m) if e * step not in hm.in_m])
        except ValueError as exc:
            raise AssertionError(str(exc)) from exc


def _solve(g: Graph, k: int, augment, trace) -> SolveOutcome:
    """Precheck, one call of augment on a fresh KLimitedSubgraph, stats, verification."""
    t0 = time.perf_counter()
    stats = SolveStats()
    reason = feasibility_precheck(g, k)
    if reason is not None:
        stats.deficit = k * g.n
        stats.elapsed_s = time.perf_counter() - t0
        return SolveOutcome(INFEASIBLE_PRECHECK, None, stats, reason)
    m = KLimitedSubgraph(g, k)
    augment(g, m, trace, stats)
    stats.augmentations = (k * g.n - m.deficit) // 2
    stats.deficit = m.deficit
    if m.deficit > 0:
        stats.elapsed_s = time.perf_counter() - t0
        return SolveOutcome(NO_FACTOR, None, stats, "trail search exhausted")
    factor = m.member_edges()
    ok, bad = verify_factor(g, k, factor)
    if not ok:
        raise AssertionError(f"internal error: computed factor fails verification at {bad}")
    stats.elapsed_s = time.perf_counter() - t0
    return SolveOutcome(FACTOR_FOUND, factor, stats)


def verify_factor(g: Graph, k: int, edges) -> tuple[bool, dict[int, int]]:
    """Check that the edge id set is a k-regular spanning subgraph.

    Returns (ok, report) where the report maps each vertex whose degree
    differs from k to its actual degree; empty exactly when valid.
    Unknown or repeated edge ids raise.
    """
    counts = [0] * g.n
    seen: set[int] = set()
    for e in edges:
        if not 0 <= e < g.m:
            raise ValueError(f"unknown edge id {e}")
        if e in seen:
            raise ValueError(f"edge id {e} listed twice")
        seen.add(e)
        u, v = g.endpoints[e]
        counts[u] += 1
        counts[v] += 1
    report = {v: c for v, c in enumerate(counts) if c != k}
    return (not report, report)


def two_coloring(g: Graph) -> list[int] | None:
    """BFS 2-coloring; the color list, or None when an odd cycle exists."""
    color = [-1] * g.n
    heads = g.dart_heads
    adjacency = g.adjacency
    for root in range(g.n):
        if color[root] != -1:
            continue
        color[root] = 0
        frontier = [root]
        c = 0
        while frontier:
            c ^= 1  # the colour of the frontier's uncoloured neighbours
            level = []
            for v in frontier:
                for d in adjacency[v]:
                    w = heads[d]
                    cw = color[w]
                    if cw == -1:
                        color[w] = c
                        level.append(w)
                    elif cw != c:
                        return None
            frontier = level
    return color


def _alternating_path(g: Graph, m: KLimitedSubgraph, start: int) -> list[int] | None:
    """Darts of a shortest alternating blue/red path from start to an unfilled vertex, or None.

    Breadth first, one depth at a time. Sound on bipartite hosts only,
    where the parity of a vertex along any alternating walk from start is
    fixed by its side, so one visited mark per vertex suffices. For the
    same reason the blue darts of a vertex reached by a red dart can be
    scanned as soon as it is reached rather than after the whole depth:
    that scan records only vertices of the other side, which the rest of
    the red step never looks up. The path found is the one a first-in
    first-out search over (vertex, colour) pairs returns, expanding
    vertices in the order they were reached and each vertex's darts by id.
    """
    k = m.k
    deg = m.deg
    in_m = m.in_m
    heads = g.dart_heads
    tails = g.dart_tails
    adjacency = g.adjacency
    parent = {start: -1}
    odd = []  # the vertices the last blue step reached, in order
    for d in adjacency[start]:
        if (d >> 1) in in_m:
            continue
        w = heads[d]
        if deg[w] < k:
            return [d]
        if w not in parent:
            parent[w] = d
            odd.append(w)
    while odd:
        level = []
        for v in odd:
            for d in adjacency[v]:
                # a red step, into filled vertices only
                if (d >> 1) not in in_m:
                    continue
                x = heads[d]
                if deg[x] != k or x in parent:
                    continue
                parent[x] = d
                # a blue step from x at once
                for b in adjacency[x]:
                    if (b >> 1) in in_m:
                        continue
                    w = heads[b]
                    if deg[w] < k:
                        darts = [b]
                        while x != start:
                            back = parent[x]
                            darts.append(back)
                            x = tails[back]
                        darts.reverse()
                        return darts
                    if w not in parent:
                        parent[w] = b
                        level.append(w)
        odd = level
    return None


def _karp_sipser_fill(
    g: Graph, m: KLimitedSubgraph, trace=None, stats: SolveStats | None = None
) -> None:
    """Add one-edge augmentations to m in place, Karp-Sipser style, until m is maximal.

    Karp and Sipser (1981) match a degree-1 vertex first, since its one
    edge is in some maximum matching. With degree caps the rule reads:
    let avail[v] count the blue darts from an unfilled v to unfilled
    vertices; v is forced when avail[v] <= k - deg[v], for then all those
    edges fit, and it takes them all in dart id order. The pass keeps
    slack[v] = avail[v] - (k - deg[v]) instead, which an edge added at v
    leaves as it is; only a vertex that fills lowers the slack of its
    unfilled blue neighbours, by one each, and one whose slack drops to 0
    joins the forced stack. With no forced vertex left, the least unfilled
    vertex with a blue dart to an unfilled vertex takes its lowest such
    dart; no vertex regains such a dart, so that cursor only moves up, and
    when it runs off the end no blue edge joins two unfilled vertices.
    Each edge goes through m.augment_edge, whose refusal is raised as
    AssertionError, counts as one trail examined and is traced as accepted.
    m must be empty, as every solve's state starts: then avail[v] is v's
    degree in g.
    """
    k = m.k
    deg = m.deg
    in_m = m.in_m
    heads = g.dart_heads
    adjacency = g.adjacency
    n = g.n
    if in_m:
        raise ValueError("the fill starts from the empty subgraph")
    slack = [len(darts) - k for darts in adjacency]
    forced = [v for v in range(n - 1, -1, -1) if slack[v] <= 0]  # least on top
    cursor = 0
    while True:
        if forced:
            v = forced.pop()
            take_all = True
        elif cursor == n:
            break
        elif deg[cursor] == k:
            cursor += 1
            continue
        else:
            v = cursor
            take_all = False
        for d in adjacency[v]:
            w = heads[d]
            if deg[w] < k and (d >> 1) not in in_m:
                try:
                    m.augment_edge(d >> 1)
                except ValueError as exc:
                    raise AssertionError(str(exc)) from exc
                if trace:
                    trace("accepted", d)
                for x in (v, w):
                    if deg[x] == k:
                        for b in adjacency[x]:
                            y = heads[b]
                            if deg[y] < k and (b >> 1) not in in_m:
                                slack[y] -= 1
                                if slack[y] == 0:
                                    forced.append(y)
                if not take_all:
                    break
        else:
            if not take_all:
                cursor += 1  # it has no blue dart to an unfilled vertex left
    if stats is not None:
        stats.trails_examined += len(in_m)  # m started empty and gained only these edges


def _bfs_augmenting_path(
    g: Graph, m: KLimitedSubgraph, trace=None, stats: SolveStats | None = None
) -> None:
    """Augment m in place along shortest alternating paths until no start has one; return None.

    First _karp_sipser_fill makes m maximal with one-edge augmentations,
    forced vertices first, so that few vertices are left for the search.
    Then the path search: sound on bipartite hosts only (see
    _alternating_path). For the same reason a path never closes: it has
    odd length, so it ends on the side opposite its start. The rounds,
    checks and counts are those of matching.augment_from_cursor; its
    search tries the starts from the cursor in vertex order, skipping
    filled ones, and returns the first path found. A start whose search
    failed is searched again next round. A path turns blue only edges
    between its filled inner vertices, so m stays maximal and the cursor
    round takes no one-edge augmentation after the fill.
    """
    k = m.k
    deg = m.deg
    n = g.n
    _karp_sipser_fill(g, m, trace, stats)

    def search(cursor: int) -> list[int] | None:
        for start in range(cursor, n):
            if deg[start] != k:
                darts = _alternating_path(g, m, start)
                if darts is not None:
                    return darts
        return None

    augment_from_cursor(g, m, search, trace, stats)


def compute_bipartite_k_factor(g: Graph, k: int, trace=None) -> SolveOutcome:
    """k-factor solve specialized to bipartite hosts.

    Raises ValueError when g has an odd cycle (two_coloring finds none).
    The solve itself is _solve with the breadth-first engine, which needs
    no colouring, checks that every path it takes is vertex-simple and
    takes all of them in place.
    """
    if two_coloring(g) is None:
        raise ValueError("graph is not bipartite")
    return _solve(g, k, _bfs_augmenting_path, trace)
