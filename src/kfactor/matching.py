"""Edmonds' blossom search for augmenting paths at k = 1, run on the host itself.

At k = 1 a k-limited subgraph is a matching and a 1-factor a perfect
matching, the case Edmonds (1965, "Paths, trees, and flowers") solves
exactly. edmonds_augmenting_path runs augment_from_cursor, the loop it
shares with the bipartite engine: from the least unmatched vertex it
takes an unmatched edge to an unmatched neighbour with the matching's
checked augment_edge while there is one, and otherwise the blossom
search's path with the checked augment_darts, until every vertex is
matched or one search fails.

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
from typing import TYPE_CHECKING

from .graph import Graph
from .subgraph import KLimitedSubgraph

if TYPE_CHECKING:
    from .solver import SolveStats


def augment_from_cursor(
    g: Graph, m: KLimitedSubgraph, search, trace=None, stats: SolveStats | None = None
) -> None:
    """Augment m in place until it is filled or search(cursor) returns None; return None.

    The cursor is the least unfilled vertex; degrees never drop, so it only
    moves up, at O(n) over the loop. While it has a blue dart to an unfilled
    vertex, the lowest such dart's edge is added with m.augment_edge;
    otherwise search(cursor) returns a path's darts, which must be
    vertex-simple (else AssertionError) and are taken with m.augment_darts.
    Either refusal is raised as AssertionError. Each augmentation counts as
    one trail examined and is traced as accepted.
    """
    k = m.k
    deg = m.deg
    in_m = m.in_m
    heads = g.dart_heads
    tails = g.dart_tails
    adjacency = g.adjacency
    n = g.n
    cursor = 0
    while True:
        while cursor < n and deg[cursor] == k:
            cursor += 1
        if cursor == n:
            return None
        for d in adjacency[cursor]:
            if (d >> 1) not in in_m and deg[heads[d]] < k:
                try:
                    m.augment_edge(d >> 1)
                except ValueError as exc:
                    raise AssertionError(str(exc)) from exc
                darts = (d,)
                break
        else:
            darts = search(cursor)
            if darts is None:
                return None
            vertices = {heads[d] for d in darts}
            vertices.add(tails[darts[0]])
            if len(vertices) != len(darts) + 1:
                raise AssertionError("search returned a non-simple path")
            try:
                m.augment_darts(darts)
            except ValueError as exc:
                raise AssertionError(str(exc)) from exc
        if stats is not None:
            stats.trails_examined += 1
        if trace:
            trace("accepted", *darts)


def edmonds_augmenting_path(
    g: Graph, m: KLimitedSubgraph, trace=None, stats: SolveStats | None = None
) -> None:
    """Augment the matching m (k = 1) in place until it is perfect or a search fails; return None.

    The rounds, checks and counts are those of augment_from_cursor, with
    one blossom search from the cursor vertex as its search. It returns
    when every vertex is matched, or at the first search that fails: then
    m has no perfect matching, by Edmonds' lemma, since an exposed vertex
    with no augmenting path is left exposed by some maximum matching (an
    augmentation elsewhere never creates a path from it), so no matching
    covers every vertex. Each contraction counts as one blossom operation.
    """
    if m.k != 1:
        raise ValueError("the blossom search needs k = 1")
    augment_from_cursor(g, m, lambda root: _blossom_path(g, m, root, stats), trace, stats)


def _blossom_path(
    g: Graph, m: KLimitedSubgraph, root: int, stats: SolveStats | None
) -> list[int] | None:
    """Darts of an augmenting path from the exposed vertex root, or None when the search fails.

    One breadth-first alternating tree from root, with blossoms
    contracted as the module docstring describes; each contraction counts
    as one blossom operation. A vertex's mate is read at most once per
    search, by a plain scan of its darts for the one matched dart, and
    not at all when the vertex is exposed (degree 0 in m). A path whose
    recovery does not reach the root raises AssertionError.
    """
    in_m = m.in_m
    deg = m.deg
    heads = g.dart_heads
    tails = g.dart_tails
    adjacency = g.adjacency
    mates: dict[int, int] = {}  # vertex -> dart to its mate, -1 when exposed
    pred: dict[int, int] = {}  # vertex -> dart into it, see the module docstring
    even = {root}
    link: dict[int, int] = {}  # union-find parent; a vertex absent here is a root of its set

    def mate(v: int) -> int:
        if not deg[v]:
            return -1
        d = mates.get(v)
        if d is None:
            for d in adjacency[v]:
                if (d >> 1) in in_m:
                    break
            else:
                d = -1
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
                if stats is not None:
                    stats.blossom_operations += 1
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
    return darts
