"""Layered dart search for augmenting trails.

The search works on the directed view of the host graph: every edge
contributes two opposite darts. Starting from an unfilled vertex it grows
layers of darts, blue darts at even depths and red darts at odd depths,
each layer leaving from the filled head vertices of the previous layer.
Construction stops at the first blue layer whose head set contains a
usable trail endpoint: an unfilled vertex, with the start itself counting
only while its degree is below k - 1 (the closed-trail guard). A dart is
admitted at its earliest reachable depth only, which bounds the number of
layers by the dart count and makes any walk that picks one dart per layer
automatically dart-distinct.

Pruning deletes darts that cannot lie on a complete start-to-terminal
walk: a backward sweep drops darts whose head feeds nothing in the next
layer (terminal heads are exempt, they are the endpoints), then a forward
sweep drops darts whose tail is fed by nothing in the previous layer. One
pass each reaches the fixed point. Restricting the terminal layer to a
single target vertex and re-pruning leaves exactly the layered walks from
the start to that target.

Extraction walks the layers depth-first, lowest dart id first, and
returns a chained dart-distinct directed trail. Such a trail may still
traverse some edge in both directions, which happens when the walk folds
through an odd alternating cycle; the violation names the in-dart and the
later, opposite out-dart. The blossom operation deletes the in-dart
unless doing so would disconnect the start from the target (a cut dart),
in which case it deletes the out-dart; either way the dart count strictly
drops, so the extract/repair loop terminates.

A failed search from a start reads the subgraph only at the start and
at the heads of the darts in its layers: the degree of those vertices
and the membership of the edges at them. An augmentation changes
membership only on its trail's edges and degrees only at its ends, so
while no augmentation touches one of those vertices the same search
would fail the same way. find_augmenting_trail keeps that read set per
failed start in the subgraph's dead_starts memo and skips the start
until KLimitedSubgraph.unchanged_since says the memo no longer holds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph
from .subgraph import KLimitedSubgraph, Trail


@dataclass(frozen=True)
class BlossomViolation:
    """Positions i < j in a trail holding opposite darts."""

    trail: Trail
    in_index: int
    out_index: int

    @property
    def in_dart(self) -> int:
        return self.trail.darts[self.in_index]

    @property
    def out_dart(self) -> int:
        return self.trail.darts[self.out_index]


@dataclass
class SearchCounters:
    """Cheap event tallies for callers that do not want a trace callback."""

    extracted: int = 0
    blossoms: int = 0


class LayeredDartGraph:
    """Dart layers D_0 .. D_L grown from one unfilled start vertex.

    Layers are plain dart-id sets, never mutated once stored here: the
    functions below build new sets for the layers they change and share
    the rest with the graph they derive from. A dart may in principle be
    listed at several depths (synthetic instances in tests do this); the
    builder itself admits each dart at its earliest depth only.
    """

    __slots__ = ("graph", "start", "layers")

    def __init__(self, graph: Graph, start: int, layers: list[set[int]]):
        self.graph = graph
        self.start = start
        self.layers = layers

    def dart_count(self) -> int:
        return sum(len(s) for s in self.layers)

    def layer_count(self) -> int:
        return len(self.layers)

    def terminal_heads(self) -> set[int]:
        heads = self.graph.dart_heads
        return {heads[d] for d in self.layers[-1]}

    def is_dead(self) -> bool:
        """True when no complete start-to-terminal walk can exist."""
        return not self.layers or not self.layers[0] or not self.layers[-1]


def build_layers(
    g: Graph, m: KLimitedSubgraph, start: int, trace=None, *, reach: set[int] | None = None
) -> LayeredDartGraph | None:
    """Grow dart layers from an unfilled start vertex.

    Returns the layered graph the moment some blue layer's head set holds a
    valid trail endpoint, or None when the expansion exhausts first (an
    empty next layer). Every layer admits at least one dart not seen
    before, so there are at most 2*m layers. Only filled head vertices are
    extended from, since a trail may pass through filled vertices only.
    On None, a given reach set gains every vertex the build read m at:
    the start and the heads of all darts it admitted.
    """
    if m.is_filled(start):
        raise ValueError(f"start vertex {start} is filled")
    k = m.k
    deg = m.deg
    in_m = m.in_m
    adjacency = g.adjacency
    heads_by_dart = g.dart_heads

    seen = bytearray(2 * g.m)
    first = [d for d in adjacency[start] if (d >> 1) not in in_m]
    if not first:
        if reach is not None:
            reach.add(start)
        return None
    for d in first:
        seen[d] = 1
    layers: list[set[int]] = [set(first)]
    if trace:
        trace("layer-built", 0, len(first))
    while True:
        i = len(layers) - 1
        heads = {heads_by_dart[d] for d in layers[-1]}
        if i % 2 == 0:
            for v in heads:
                if deg[v] < k and (v != start or deg[v] < k - 1):
                    return LayeredDartGraph(g, start, layers)
        want_red = i % 2 == 0
        nxt: list[int] = []
        for v in sorted(heads):
            if deg[v] != k:
                continue
            for d in adjacency[v]:
                if seen[d]:
                    continue
                if ((d >> 1) in in_m) != want_red:
                    continue
                seen[d] = 1
                nxt.append(d)
        if not nxt:
            if reach is not None:
                reach |= _vertices_read(g, start, layers)
            return None
        layers.append(set(nxt))
        if trace:
            trace("layer-built", len(layers) - 1, len(nxt))


def _vertices_read(g: Graph, start: int, layers: list[set[int]]) -> set[int]:
    """The start and the head of every dart in the layers."""
    heads = g.dart_heads
    out = {start}
    for layer in layers:
        out.update([heads[d] for d in layer])
    return out


def prune(l: LayeredDartGraph, trace=None) -> LayeredDartGraph:
    """Remove every dart that cannot lie on a complete layered walk.

    Backward dead-head sweep, then forward dead-tail sweep, both into new
    sets (a one-layer graph shares its set); idempotent. If no complete
    walk exists, the cascades leave the first (and terminal) layer empty.
    """
    layers = list(l.layers)
    heads = l.graph.dart_heads
    tails = l.graph.dart_tails
    last = len(layers) - 1
    for i in range(last - 1, -1, -1):
        alive = {tails[d] for d in layers[i + 1]}
        layers[i] = {d for d in layers[i] if heads[d] in alive}
    for i in range(1, last + 1):
        alive = {heads[d] for d in layers[i - 1]}
        layers[i] = {d for d in layers[i] if tails[d] in alive}
    out = LayeredDartGraph(l.graph, l.start, layers)
    if trace:
        trace("pruned", l.dart_count(), out.dart_count())
    return out


def restrict_to_target(l: LayeredDartGraph, v: int, trace=None) -> LayeredDartGraph:
    """Keep only terminal darts ending at v, then prune.

    What survives is exactly the set of darts lying on some layered walk
    from the start to v. Raises when v is not a terminal head.
    """
    heads = l.graph.dart_heads
    kept = {d for d in l.layers[-1] if heads[d] == v}
    if not kept:
        raise ValueError(f"vertex {v} is not in the terminal head set")
    layers = l.layers[:-1]
    layers.append(kept)
    if trace:
        trace("restricted", v)
    return prune(LayeredDartGraph(l.graph, l.start, layers), trace)


def extract_trail(gv: LayeredDartGraph, trace=None) -> Trail | None:
    """Depth-first extraction of one complete layered directed trail.

    Takes the lowest-id admissible dart at each layer, backtracking when a
    branch dies, and returns None when no dart-distinct walk spans every
    layer. Failed (layer, dart) states are memoized whenever each dart
    occupies a single layer (always true for built graphs, where the memo
    is sound because nothing upstream can block a later layer); synthetic
    instances with overlapping layers fall back to plain backtracking.
    """
    layers = gv.layers
    if not layers or any(not s for s in layers):
        return None
    g = gv.graph
    heads = g.dart_heads
    adjacency = g.adjacency
    last = len(layers) - 1
    distinct = len(set().union(*layers)) == sum(len(s) for s in layers)
    used: set[int] = set()
    failed: set[tuple[int, int]] = set()
    path: list[int] = []

    def candidates(i: int, v: int):
        layer = layers[i]
        return iter([d for d in adjacency[v] if d in layer])

    stack = [candidates(0, gv.start)]
    while stack:
        i = len(path)
        d = next(stack[-1], None)
        if d is None:
            stack.pop()
            if path:
                dead = path.pop()
                used.discard(dead)
                if distinct:
                    failed.add((len(path), dead))
            continue
        if d in used or (distinct and (i, d) in failed):
            continue
        path.append(d)
        used.add(d)
        if i == last:
            found = Trail(g, tuple(path))
            if trace:
                trace("extracted", *found.darts)
            return found
        stack.append(candidates(i + 1, heads[d]))
    return None


def find_blossom_violation(p: Trail) -> BlossomViolation | None:
    """Earliest (by in-dart position) opposite-dart pair, or None if edge-simple."""
    pos = {d: i for i, d in enumerate(p.darts)}
    for i, d in enumerate(p.darts):
        j = pos.get(d ^ 1)
        if j is not None and j > i:
            return BlossomViolation(p, i, j)
    return None


def _without(gv: LayeredDartGraph, dart: int, layer_index: int, trace=None) -> LayeredDartGraph:
    """gv less one dart at one depth, pruned; gv itself is left as it is."""
    layers = list(gv.layers)
    layers[layer_index] = layers[layer_index] - {dart}
    return prune(LayeredDartGraph(gv.graph, gv.start, layers), trace)


def is_cut_dart(gv: LayeredDartGraph, dart: int, layer_index: int) -> bool:
    """True when deleting the dart (plus pruning) severs all complete walks.

    Pure query: gv is left as it is.
    """
    if dart not in gv.layers[layer_index]:
        raise ValueError(f"dart {dart} is not in layer {layer_index}")
    return _without(gv, dart, layer_index).is_dead()


def blossom_operation(gv: LayeredDartGraph, bv: BlossomViolation, trace=None) -> LayeredDartGraph:
    """Resolve one opposite-dart violation by deleting a single dart.

    The in-dart goes unless it is a cut dart of gv, in which case the
    out-dart goes instead; the result is re-pruned. The cut test prunes gv
    less the in-dart, and when that graph survives it is the result. The
    total dart count strictly decreases, which bounds the number of
    blossom operations per restricted graph.
    """
    if len(bv.trail.darts) != len(gv.layers):
        raise ValueError("violation does not come from a trail of this layered graph")
    before = gv.dart_count()
    in_dart, out_dart = bv.in_dart, bv.out_dart
    if in_dart not in gv.layers[bv.in_index]:
        raise ValueError(f"dart {in_dart} is not in layer {bv.in_index}")
    out = _without(gv, in_dart, bv.in_index)
    doomed = out_dart if out.is_dead() else in_dart
    if trace:
        trace("blossom", in_dart, out_dart, doomed)
    if doomed == out_dart:
        out = _without(gv, out_dart, bv.out_index, trace)
    elif trace:
        trace("pruned", before - 1, out.dart_count())
    if out.dart_count() >= before:
        raise AssertionError("blossom operation failed to shrink the layer sets")
    return out


def find_augmenting_trail(
    g: Graph, m: KLimitedSubgraph, trace=None, counters: SearchCounters | None = None
) -> Trail | None:
    """Search for an augmenting trail for the subgraph m.

    Unfilled start vertices are tried in ascending id. For each, the dart
    layers are grown and every valid endpoint in the terminal head set is
    tried in ascending id, the start itself (closed trail) last: the
    layered graph is restricted to that endpoint and the extract/repair
    loop runs until an edge-simple trail appears or the restriction dies.
    Returns the undirected trail of the first success, None after all
    starts and endpoints fail. An optional SearchCounters tallies
    extractions and blossom operations without the cost of a trace.

    A start whose layers could not be built, or whose every restriction
    died, is memoised in m.dead_starts with the current deficit and the
    vertices its search read. It is skipped, probe included, for as long
    as m.unchanged_since holds for that memo: the search would read the
    same values and fail again. Once an augmentation touches one of those
    vertices the memo is dropped and the start is searched as before.
    Skipped starts emit no trace events and add no counts.
    """
    deficit = m.deficit
    if deficit == 0:
        raise ValueError("subgraph has no deficit, nothing to augment")
    k = m.k
    deg = m.deg
    in_m = m.in_m
    dead = m.dead_starts
    dart_heads = g.dart_heads
    adjacency = g.adjacency
    for start in range(g.n):
        if deg[start] == k:
            continue
        memo = dead.get(start)
        if memo is not None:
            if m.unchanged_since(*memo):
                continue
            del dead[start]
        # probe for a one-dart trail first: a blue dart straight to an
        # unfilled neighbour is what restriction, pruning and extraction
        # would deliver from a single-layer graph, at a fraction of the
        # cost, and it is the common case while the subgraph is sparse
        blue = 0
        best_v = -1
        best_d = -1
        for d in adjacency[start]:
            if (d >> 1) in in_m:
                continue
            blue += 1
            h = dart_heads[d]
            if deg[h] < k and (best_v == -1 or h < best_v):
                best_v = h
                best_d = d
        if best_d != -1:
            if counters is not None:
                counters.extracted += 1
            if trace:
                trace("layer-built", 0, blue)
                trace("extracted", best_d)
                trace("accepted", best_d)
            return Trail(g, (best_d,))
        if blue == 0:
            continue
        reach: set[int] = set()
        built = build_layers(g, m, start, trace, reach=reach)
        if built is None:
            dead[start] = (deficit, reach)
            continue
        heads = built.terminal_heads()
        targets = sorted(v for v in heads if deg[v] < k and v != start)
        if start in heads and deg[start] < k - 1:
            targets.append(start)
        for v in targets:
            gv = restrict_to_target(built, v, trace)
            while not gv.is_dead():
                trail = extract_trail(gv, trace)
                if trail is None:
                    break
                if counters is not None:
                    counters.extracted += 1
                violation = find_blossom_violation(trail)
                if violation is None:
                    if trace:
                        trace("accepted", *trail.darts)
                    return trail
                if counters is not None:
                    counters.blossoms += 1
                gv = blossom_operation(gv, violation, trace)
        dead[start] = (deficit, _vertices_read(g, start, built.layers))
    return None
