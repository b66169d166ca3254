"""The solve loop, feasibility prechecks, and the bipartite specialization.

Both entry points run one loop, _solve: precheck, then apply augmenting
trails from the empty subgraph until the deficit hits zero (factor found)
or the trail finder gives up (no factor). compute_k_factor finds trails
with the layered search, find_augmenting_trail. compute_bipartite_k_factor
refuses non-bipartite input and uses _bfs_augmenting_path, a breadth-first
shortest alternating path search that is sound on bipartite hosts only.

A finder is called as find(g, m, trace, counters). It returns a Trail or
None, adds its extractions and blossom operations to the SearchCounters,
and may raise AssertionError on a trail it finds malformed. The loop then
checks each trail with real raises: apply_trail must accept it (a refusal
becomes AssertionError), the deficit must drop by exactly 2, and a found
factor is re-verified k-regular spanning.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

from .graph import Graph
from .search import SearchCounters, find_augmenting_trail
from .subgraph import KLimitedSubgraph, Trail

FACTOR_FOUND = "factor_found"
NO_FACTOR = "no_factor"
INFEASIBLE_PRECHECK = "infeasible_precheck"


@dataclass
class SolveStats:
    augmentations: int = 0
    trails_examined: int = 0
    blossom_operations: int = 0
    elapsed_s: float = 0.0


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
    """
    return _solve(g, k, find_augmenting_trail, trace)


def _solve(g: Graph, k: int, find, trace) -> SolveOutcome:
    """Precheck, then augment with the trails find returns until none is left."""
    t0 = time.perf_counter()
    stats = SolveStats()
    reason = feasibility_precheck(g, k)
    if reason is not None:
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
            m = m.apply_trail(trail)
        except ValueError as exc:
            # the trail finder handed back a non-augmenting trail
            raise AssertionError(str(exc)) from exc
        if m.deficit != before - 2:
            raise AssertionError("deficit did not drop by exactly 2")
        stats.augmentations += 1
    stats.trails_examined = counters.extracted
    stats.blossom_operations = counters.blossoms
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


def _check_bipartition(g: Graph, colors) -> None:
    if len(colors) != g.n or any(c not in (0, 1) for c in colors):
        raise ValueError("bipartition must assign 0 or 1 to every vertex")
    for u, v in g.endpoints:
        if colors[u] == colors[v]:
            raise ValueError(f"bipartition invalid: edge ({u}, {v}) lies inside one part")


def _bfs_augmenting_path(
    g: Graph, m: KLimitedSubgraph, trace=None, counters: SearchCounters | None = None
) -> Trail | None:
    """Shortest alternating blue/red path between unfilled vertices.

    Sound on bipartite hosts only, where vertex parity along any
    alternating walk from a fixed start is determined by its side, so one
    visited mark per vertex suffices. Each returned path counts as one
    extraction; one that revisits a vertex raises AssertionError.
    """
    k = m.k
    deg = m.deg
    in_m = m.in_m
    heads = g.dart_heads
    tails = g.dart_tails
    adjacency = g.adjacency
    for start in range(g.n):
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
                        if w == start and deg[start] >= k - 1:
                            continue
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


def compute_bipartite_k_factor(
    g: Graph, k: int, bipartition=None, trace=None
) -> SolveOutcome:
    """k-factor solve specialized to bipartite hosts.

    When no bipartition is supplied one is computed; an odd cycle, or a
    supplied part containing one of its own edges, raises ValueError.
    The solve itself is the shared loop with the breadth-first path
    finder, which checks that every path it returns is vertex-simple.
    """
    if bipartition is None:
        bipartition = two_coloring(g)
        if bipartition is None:
            raise ValueError("graph is not bipartite")
    else:
        _check_bipartition(g, bipartition)
    return _solve(g, k, _bfs_augmenting_path, trace)
