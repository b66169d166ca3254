"""Edmonds' blossom search for augmenting paths at k = 1, run on the host itself.

At k = 1 a k-limited subgraph is a matching and a 1-factor a perfect
matching, the case Edmonds (1965, "Paths, trees, and flowers") solves
exactly. edmonds_augmenting_path has the trail finder signature of the
solve loop, so every path it finds is still validated and applied by the
loop's apply_trail.

The search grows one alternating tree from an exposed root, breadth
first. A vertex is even when an even-length alternating path from the
root ends at it with a matched edge (the root itself is even), odd when
it was reached from an even vertex over an unmatched edge. An edge
between two even vertices of different blossoms closes an odd cycle: the
blossom is contracted by giving every vertex on the cycle the base of the
blossom nearest the root, and its odd vertices become even. Bases live in
a union-find (Gabow 1976, "An efficient implementation of Edmonds'
algorithm for maximum matching on graphs"), so a contraction touches only
the cycle, never every vertex. The path back to the root is read from
pred, one dart into each labelled vertex whose tail is where the path
goes next: for an odd vertex, the even vertex it was reached from; for an
even vertex on a contracted cycle, its neighbour the other way round the
cycle, so that a path entering the blossom at a formerly odd vertex
leaves it through its base.
"""

from __future__ import annotations

from collections import deque

from .graph import Graph
from .search import SearchCounters
from .subgraph import KLimitedSubgraph, Trail


def augment_at_cursor(
    g: Graph, m: KLimitedSubgraph, trace=None, counters: SearchCounters | None = None
) -> int:
    """Take one-edge augmentations at the least unfilled vertex in place; return that vertex.

    While m.first_unfilled() has a blue dart to an unfilled vertex, the
    lowest such dart's edge is added with m.augment_edge, counted as one
    extraction and traced as accepted. Returns the cursor vertex the loop
    stopped at, n when every vertex is filled.
    """
    k = m.k
    deg = m.deg
    in_m = m.in_m
    heads = g.dart_heads
    adjacency = g.adjacency
    start = m.first_unfilled()
    while start < g.n:
        for d in adjacency[start]:
            if (d >> 1) not in in_m and deg[heads[d]] < k:
                break
        else:
            break
        m.augment_edge(d >> 1)
        if counters is not None:
            counters.extracted += 1
        if trace:
            trace("accepted", d)
        start = m.first_unfilled()
    return start


def edmonds_augmenting_path(
    g: Graph, m: KLimitedSubgraph, trace=None, counters: SearchCounters | None = None
) -> Trail | None:
    """Augmenting path for the matching m (k = 1) from its least exposed vertex, or None.

    One-edge augmentations at the cursor are taken in place first
    (augment_at_cursor). Then one blossom search runs from the cursor
    vertex; the path it finds is returned as a vertex-simple Trail, whose
    inner vertices are all matched. None means that search failed, and
    then m has no perfect matching: by Edmonds' lemma, an exposed vertex
    with no augmenting path is left exposed by some maximum matching (an
    augmentation elsewhere never creates a path from it), so no matching
    covers every vertex. Each augmentation, in place or returned, counts
    as one extraction and is traced as accepted; each contraction counts
    as one blossom operation. A path that revisits a vertex, or whose
    recovery does not reach the root, raises AssertionError.
    """
    if m.k != 1:
        raise ValueError("the blossom search needs k = 1")
    root = augment_at_cursor(g, m, trace, counters)
    if root == g.n:
        return None
    in_m = m.in_m
    heads = g.dart_heads
    tails = g.dart_tails
    adjacency = g.adjacency
    mates: dict[int, int] = {}  # vertex -> dart to its mate, -1 when exposed
    pred: dict[int, int] = {}  # vertex -> dart into it, see the module docstring
    even = {root}
    link: dict[int, int] = {}  # union-find parent; a vertex absent here is a root of its set

    def mate(v: int) -> int:
        d = mates.get(v)
        if d is None:
            d = next((d for d in adjacency[v] if (d >> 1) in in_m), -1)
            mates[v] = d
        return d

    def base(v: int) -> int:
        while v in link:
            parent = link[v]
            if parent in link:
                link[v] = parent = link[parent]
            v = parent
        return v

    def up(b: int) -> int:
        # the base of the blossom above base b, through its mate and that mate's pred
        return base(tails[pred[heads[mate(b)]]])

    def nearest_common_base(x: int, y: int) -> int:
        above_x = {x}
        while x != root:
            x = up(x)
            above_x.add(x)
        while y not in above_x:
            y = up(y)
        return y

    def mark_cycle(v: int, d: int, b: int, merged: list[int]) -> None:
        # walk from even v toward base b; d is the dart the path arrives at v by
        while base(v) != b:
            pred[v] = d
            x = heads[mate(v)]
            merged.append(base(v))
            merged.append(base(x))
            if x not in even:
                even.add(x)
                queue.append(x)
            d = pred[x] ^ 1
            v = tails[pred[x]]

    end = -1
    queue = deque([root])
    while queue and end == -1:
        v = queue.popleft()
        for d in adjacency[v]:
            if (d >> 1) in in_m:
                continue
            w = heads[d]
            if w in even:
                bv = base(v)
                bw = base(w)
                if bv == bw:
                    continue
                b = nearest_common_base(bv, bw)
                merged: list[int] = []
                mark_cycle(v, d ^ 1, b, merged)
                mark_cycle(w, d, b, merged)
                for x in merged:
                    if x != b:
                        link[x] = b
                if counters is not None:
                    counters.blossoms += 1
            elif w not in pred:
                pred[w] = d
                md = mate(w)
                if md == -1:
                    end = w
                    break
                x = heads[md]
                even.add(x)
                queue.append(x)
    if end == -1:
        return None

    # read the path back from end: pred into each vertex, then its mate's edge
    darts = []
    v = end
    while True:
        d = pred[v]
        darts.append(d)
        u = tails[d]
        if u == root:
            break
        back = mate(u)
        darts.append(back ^ 1)
        v = heads[back]
        if len(darts) > g.n:
            raise AssertionError("blossom search path does not reach its root")
    darts.reverse()
    found = Trail(g, tuple(darts))
    if len(set(found.vertices())) != len(darts) + 1:
        raise AssertionError("blossom search returned a non-simple path")
    if counters is not None:
        counters.extracted += 1
    if trace:
        trace("accepted", *found.darts)
    return found
