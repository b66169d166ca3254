"""The solve loop, feasibility prechecks, and the bipartite specialization.

Both entry points run one loop, _solve: precheck, then augment one
KLimitedSubgraph in place, starting from the empty subgraph, until the
deficit hits zero (factor found) or the trail finder gives up (no
factor). compute_k_factor picks its finder by k alone. At k = 1, where a
factor is a perfect matching, it is matching.edmonds_augmenting_path,
Edmonds' blossom search on the host itself, which gives up after the
first root whose search fails: no perfect matching exists then. For
k >= 2 it is the layered search, find_augmenting_trail.
compute_bipartite_k_factor refuses non-bipartite input and uses
_bfs_augmenting_path, a breadth-first shortest alternating path search
that is sound on bipartite hosts only.

The bipartite and blossom engines take their starts from
KLimitedSubgraph.first_unfilled(), a cursor that only moves up because
degrees never drop. While that least unfilled vertex has a blue edge to
an unfilled vertex, both take the one-edge augmentation themselves with
augment_edge, lowest dart id first (matching.augment_at_cursor): that
is the path their search would return from there. The layered
engine still scans its starts from vertex 0: the same cursor there
pushed acceptance criterion 6's 500 -> 1000 doubling ratio under its
2.5 floor. It keeps a memo on the state instead, m.dead_starts, and
skips a start whose search failed until an augmentation touches a
vertex that search read, so each "no" from a start is paid for once per
change to what it saw rather than once per augmentation.

A finder is called as find(g, m, trace, counters), where m is the loop's
one working state. A finder may change m's edges only through
m.augment_edge, the checked one-edge augmentation, and may keep its own
memo in m.dead_starts; every other change is the loop's apply_trail of a
trail the finder returned. It returns the next Trail
for the loop to apply, or None when it has no more, adds its extractions
(one per augmentation it finds, in place or returned) and blossom
operations to the SearchCounters, and may raise AssertionError on a
trail it finds malformed. The checks are real raises: augment_edge
refuses an edge that is not a one-edge augmenting trail, apply_trail must
accept each returned trail (a refusal becomes AssertionError), the
deficit must drop by exactly 2 on each, and a found factor is re-verified
k-regular spanning. Every augmentation lowers the deficit by 2, so the
loop reports (k*n - deficit) / 2 augmentations.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

from .graph import Graph
from .matching import augment_at_cursor, edmonds_augmenting_path
from .search import SearchCounters, find_augmenting_trail
from .subgraph import KLimitedSubgraph, Trail

FACTOR_FOUND = "factor_found"
NO_FACTOR = "no_factor"
INFEASIBLE_PRECHECK = "infeasible_precheck"


@dataclass
class SolveStats:
    """Counts of one solve; deficit is what the loop left (k*n when the precheck refused)."""

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
    min_deg = min(len(g.adjacency[v]) for v in range(g.n))
    if min_deg < k:
        reasons.append(f"minimum degree {min_deg} is below k = {k}")
    return "; ".join(reasons) if reasons else None


def compute_k_factor(g: Graph, k: int, trace=None) -> SolveOutcome:
    """Find a k-factor of g, or decide that none exists.

    Statuses: factor_found (with the edge id list), no_factor (the trail
    search was exhausted at some state), infeasible_precheck (a necessary
    condition failed before any search). A successful run performs exactly
    k*n/2 augmentations.

    At k = 1 the trails are augmenting paths from Edmonds' blossom search,
    and every answer is exact. There blossom_operations counts blossom
    contractions, trails_examined equals augmentations, and trace emits
    only "accepted" events; on no_factor, deficit and augmentations are
    those at the first failed search. For k >= 2 the layered search can
    miss a trail, so a no_factor answer can be wrong.
    """
    return _solve(g, k, edmonds_augmenting_path if k == 1 else find_augmenting_trail, trace)


def _solve(g: Graph, k: int, find, trace) -> SolveOutcome:
    """Precheck, then augment with the trails find returns until none is left."""
    t0 = time.perf_counter()
    stats = SolveStats()
    reason = feasibility_precheck(g, k)
    if reason is not None:
        stats.deficit = k * g.n
        stats.elapsed_s = time.perf_counter() - t0
        return SolveOutcome(INFEASIBLE_PRECHECK, None, stats, reason)
    counters = SearchCounters()
    m = KLimitedSubgraph(g, k)
    while m.deficit > 0:
        trail = find(g, m, trace, counters)
        if trail is None:
            break
        before = m.deficit
        try:
            m.apply_trail(trail)
        except ValueError as exc:
            # the trail finder handed back a non-augmenting trail
            raise AssertionError(str(exc)) from exc
        if m.deficit != before - 2:
            raise AssertionError("deficit did not drop by exactly 2")
    stats.augmentations = (k * g.n - m.deficit) // 2
    stats.trails_examined = counters.extracted
    stats.blossom_operations = counters.blossoms
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
    for root in range(g.n):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for d in g.adjacency[v]:
                w = heads[d]
                if color[w] == -1:
                    color[w] = color[v] ^ 1
                    queue.append(w)
                elif color[w] == color[v]:
                    return None
    return color


def _bfs_augmenting_path(
    g: Graph, m: KLimitedSubgraph, trace=None, counters: SearchCounters | None = None
) -> Trail | None:
    """Shortest alternating blue/red path between unfilled vertices.

    Sound on bipartite hosts only, where vertex parity along any
    alternating walk from a fixed start is determined by its side, so one
    visited mark per vertex suffices. For the same reason a path never
    closes: it has odd length, so it ends on the side opposite its start.
    Starts are tried in vertex order from m.first_unfilled(), which skips
    only filled vertices. While that cursor vertex has a blue dart to an
    unfilled vertex, the lowest such dart, which is the path the search
    would return first, is taken in place with m.augment_edge. Later
    starts get no such shortcut: a start whose search failed is searched
    again on the next call. Each augmentation, in place or returned,
    counts as one extraction and is traced as accepted; a path that
    revisits a vertex raises AssertionError.
    """
    k = m.k
    deg = m.deg
    in_m = m.in_m
    heads = g.dart_heads
    tails = g.dart_tails
    adjacency = g.adjacency
    start = augment_at_cursor(g, m, trace, counters)
    for start in range(start, g.n):
        if deg[start] == k:
            continue
        parent: dict[int, int] = {start: -1}
        queue = deque([(start, True)])
        while queue:
            v, want_blue = queue.popleft()
            for d in adjacency[v]:
                if ((d >> 1) in in_m) == want_blue:
                    continue
                w = heads[d]
                if want_blue:
                    if deg[w] < k:
                        darts = [d]
                        x = v
                        while x != start:
                            back = parent[x]
                            darts.append(back)
                            x = tails[back]
                        darts.reverse()
                        found = Trail(g, tuple(darts))
                        if len(set(found.vertices())) != len(darts) + 1:
                            raise AssertionError("bipartite search returned a non-simple path")
                        if counters is not None:
                            counters.extracted += 1
                        if trace:
                            trace("accepted", *found.darts)
                        return found
                    if w not in parent:
                        parent[w] = d
                        queue.append((w, False))
                else:
                    if deg[w] == k and w not in parent:
                        parent[w] = d
                        queue.append((w, True))
    return None


def compute_bipartite_k_factor(g: Graph, k: int, trace=None) -> SolveOutcome:
    """k-factor solve specialized to bipartite hosts.

    Raises ValueError when g has an odd cycle (two_coloring finds none).
    The solve itself is the shared loop with the breadth-first path
    finder, which needs no colouring and checks that every path it
    returns is vertex-simple.
    """
    if two_coloring(g) is None:
        raise ValueError("graph is not bipartite")
    return _solve(g, k, _bfs_augmenting_path, trace)
