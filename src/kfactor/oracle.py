"""Ground truth and instance generation for differential testing.

brute_force_k_factor decides k-factor existence by edge-by-edge
backtracking with a remaining-degree bound. It deliberately shares no code
or data structures with the trail-search solver; independence is the whole
point of an oracle. The generators cover exhaustive labeled enumeration on
small vertex counts and two seeded random models.
"""

from __future__ import annotations

import random
from collections import defaultdict
from collections.abc import Iterator

from .graph import Graph

DEFAULT_EDGE_CAP = 24
EXHAUSTIVE_VERTEX_CAP = 6


def is_valid_factor(g: Graph, k: int, edges) -> bool:
    """Oracle-side validity predicate: the edge set is k-regular spanning."""
    edges = list(edges)
    if len(set(edges)) != len(edges):
        return False
    counts = [0] * g.n
    for e in edges:
        if not 0 <= e < g.m:
            return False
        u, v = g.endpoints[e]
        counts[u] += 1
        counts[v] += 1
    return all(c == k for c in counts)


def brute_force_k_factor(g: Graph, k: int, edge_cap: int = DEFAULT_EDGE_CAP) -> list[int] | None:
    """Exact k-factor decision by backtracking over edges in id order.

    Include is tried before exclude, so the first complete solution (and
    the returned one) is the lexicographically least edge id set. A branch
    dies as soon as one endpoint of the decided edge demands more edges
    than remain incident to it. Instances beyond edge_cap are refused.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    if g.m > edge_cap:
        raise ValueError(f"instance has {g.m} edges, oracle cap is {edge_cap}")
    need = [k] * g.n
    avail = [len(g.adjacency[v]) for v in range(g.n)]
    if any(need[v] > avail[v] for v in range(g.n)):
        return None
    endpoints = g.endpoints
    chosen: list[int] = []

    def decide(e: int) -> bool:
        if e == g.m:
            return all(x == 0 for x in need)
        u, v = endpoints[e]
        if need[u] > 0 and need[v] > 0:
            need[u] -= 1
            need[v] -= 1
            avail[u] -= 1
            avail[v] -= 1
            chosen.append(e)
            if decide(e + 1):
                return True
            chosen.pop()
            need[u] += 1
            need[v] += 1
            avail[u] += 1
            avail[v] += 1
        avail[u] -= 1
        avail[v] -= 1
        ok = need[u] <= avail[u] and need[v] <= avail[v]
        if ok and decide(e + 1):
            return True
        avail[u] += 1
        avail[v] += 1
        return False

    return list(chosen) if decide(0) else None


def vertex_pairs(n: int) -> list[tuple[int, int]]:
    """All unordered pairs in lexicographic order; the enumeration bit order."""
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def enumerate_graphs(n: int) -> Iterator[Graph]:
    """Yield every labeled simple graph on n vertices, in bitmask order.

    Bit i of the mask switches pair i of vertex_pairs(n), so the stream
    starts with the empty graph and ends with the complete graph,
    2^(n*(n-1)/2) graphs in all. Capped at n = 6.
    """
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if n > EXHAUSTIVE_VERTEX_CAP:
        raise ValueError(f"exhaustive enumeration is capped at n = {EXHAUSTIVE_VERTEX_CAP}")
    pairs = vertex_pairs(n)
    for mask in range(1 << len(pairs)):
        yield Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def random_gnp(n: int, p: float, rng: random.Random) -> Graph:
    """G(n, p): every pair kept independently with probability p."""
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    return Graph(n, [pair for pair in vertex_pairs(n) if rng.random() < p])


def _suitable(edges: set[tuple[int, int]], potential: dict[int, int]) -> bool:
    # some non-adjacent pair of leftover stubs must exist, else re-pairing is stuck
    if not potential:
        return True
    verts = list(potential)
    for i, s1 in enumerate(verts):
        for s2 in verts[:i]:
            pair = (s1, s2) if s1 < s2 else (s2, s1)
            if pair not in edges:
                return True
    return False


def _try_pairing(n: int, d: int, rng: random.Random) -> set[tuple[int, int]] | None:
    edges: set[tuple[int, int]] = set()
    stubs = list(range(n)) * d
    while stubs:
        potential: dict[int, int] = defaultdict(int)
        rng.shuffle(stubs)
        it = iter(stubs)
        for s1, s2 in zip(it, it):
            if s1 > s2:
                s1, s2 = s2, s1
            if s1 != s2 and (s1, s2) not in edges:
                edges.add((s1, s2))
            else:
                potential[s1] += 1
                potential[s2] += 1
        if not _suitable(edges, potential):
            return None
        stubs = [v for v, c in potential.items() for _ in range(c)]
    return edges


def random_regular(n: int, d: int, rng: random.Random) -> Graph:
    """Random d-regular simple graph by stub pairing.

    Stubs involved in loops or repeated pairs are re-paired instead of
    throwing the whole pairing away; when the leftovers cannot possibly be
    completed the attempt restarts. Adapted from the standard NetworkX
    pairing routine. Requires 0 <= d < n and n*d even.
    """
    if not 0 <= d < n:
        raise ValueError(f"degree d = {d} must satisfy 0 <= d < n = {n}")
    if (n * d) % 2:
        raise ValueError("n * d must be even")
    if d == 0:
        return Graph(n, [])
    while True:
        edges = _try_pairing(n, d, rng)
        if edges is not None:
            return Graph(n, sorted(edges))

