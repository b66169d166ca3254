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
drops, so the extract/repair loop terminates. find_augmenting_trail
searches from one start only, the least unfilled vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .graph import Graph
from .subgraph import KLimitedSubgraph, Trail

if TYPE_CHECKING:
    from .solver import SolveStats


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


class LayeredDartGraph:
    """Dart layers D_0 .. D_L grown from one unfilled start vertex.

    Layers are plain dart-id sets, never mutated once stored here: the
    functions below build new sets for the layers they change and share
    the rest with the graph they derive from. The layers are disjoint:
    build_layers admits each dart at its earliest depth only, and prune,
    restrict_to_target and blossom_operation only take subsets.
    extract_trail relies on this.
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


def build_layers(g: Graph, m: KLimitedSubgraph, start: int, trace=None) -> LayeredDartGraph | None:
    """Grow dart layers from an unfilled start vertex.

    Returns the layered graph the moment some blue layer's head set holds a
    valid trail endpoint, or None when the expansion exhausts first (an
    empty next layer). Every layer admits at least one dart not seen
    before, so there are at most 2*m layers. Only filled head vertices are
    extended from, since a trail may pass through filled vertices only.
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
            return None
        layers.append(set(nxt))
        if trace:
            trace("layer-built", len(layers) - 1, len(nxt))


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
    branch dies, and returns None when no walk spans every layer. The
    layers must be disjoint, as in every LayeredDartGraph the search
    builds: then every such walk is dart-distinct, and whether a walk
    completes from a (layer, dart) state depends on that state alone, so
    failed states are memoized.
    """
    layers = gv.layers
    if not layers or any(not s for s in layers):
        return None
    g = gv.graph
    heads = g.dart_heads
    adjacency = g.adjacency
    last = len(layers) - 1
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
                failed.add((len(path), dead))
            continue
        if (i, d) in failed:
            continue
        path.append(d)
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
    g: Graph, m: KLimitedSubgraph, trace=None, stats: SolveStats | None = None
) -> Trail | None:
    """Search for an augmenting trail of the subgraph m from its least unfilled vertex.

    The start is found by a scan from vertex 0. A blue dart from it to an
    unfilled neighbour, the lowest such neighbour first, is returned at
    once. Otherwise the dart layers are grown and every valid endpoint in
    the terminal head set is tried in ascending id, the start itself
    (closed trail) last: the layered graph is restricted to that endpoint
    and the extract/repair loop runs until an edge-simple trail appears or
    the restriction dies. Returns the undirected trail of the first
    success, None as soon as the start fails: its layers could not be
    built (it has no blue dart, for one) or every restriction died. No
    later start is tried. A given SolveStats counts the extractions and
    blossom operations without the cost of a trace.
    """
    if m.deficit == 0:
        raise ValueError("subgraph has no deficit, nothing to augment")
    k = m.k
    deg = m.deg
    in_m = m.in_m
    dart_heads = g.dart_heads
    start = next(v for v in range(g.n) if deg[v] < k)
    # probe for a one-dart trail first: a blue dart straight to an
    # unfilled neighbour is what restriction, pruning and extraction
    # would deliver from a single-layer graph, at a fraction of the
    # cost, and it is the common case while the subgraph is sparse
    blue = 0
    best_v = -1
    best_d = -1
    for d in g.adjacency[start]:
        if (d >> 1) in in_m:
            continue
        blue += 1
        h = dart_heads[d]
        if deg[h] < k and (best_v == -1 or h < best_v):
            best_v = h
            best_d = d
    if best_d != -1:
        if stats is not None:
            stats.trails_examined += 1
        if trace:
            trace("layer-built", 0, blue)
            trace("extracted", best_d)
            trace("accepted", best_d)
        return Trail(g, (best_d,))
    built = build_layers(g, m, start, trace)
    if built is None:
        return None
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
            if stats is not None:
                stats.trails_examined += 1
            violation = find_blossom_violation(trail)
            if violation is None:
                if trace:
                    trace("accepted", *trail.darts)
                return trail
            if stats is not None:
                stats.blossom_operations += 1
            gv = blossom_operation(gv, violation, trace)
    return None
