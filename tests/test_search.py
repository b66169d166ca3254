"""Tests for the layered dart search engine.

Two instances are pinned down to exact dart ids: one where the extracted
walk folds through an odd cycle and the blossom operation deletes the
in-dart, and one where the in-dart is a cut dart so the out-dart goes and
the restriction dies. Both were worked out by hand and cross-checked
against the enumerators in bruteforce.py. The rest of the module checks
the structural promises (layer parity, prune idempotence, lexicographic
extraction, strict blossom shrinkage) over randomized instances. A third
pinned instance shows a failed start's memo holding and then being
dropped once an augmentation touches a vertex its search read.
"""

from __future__ import annotations

import math
import random

import pytest

from kfactor import Graph, KLimitedSubgraph, Trail
from kfactor.oracle import random_gnp
from kfactor.search import (
    BlossomViolation,
    LayeredDartGraph,
    SearchCounters,
    blossom_operation,
    build_layers,
    extract_trail,
    find_augmenting_trail,
    find_blossom_violation,
    is_cut_dart,
    prune,
    restrict_to_target,
)

from bruteforce import (
    augmenting_trails,
    complete_graph,
    cycle_graph,
    distinct_layer_walks,
    has_augmenting_trail,
    layer_walks,
    path_graph,
    planted_state,
    random_klimited,
)


def record(events):
    return lambda *fields: events.append(fields)


def random_layered(seed: int, count: int, span=(4, 8)):
    """Yield (g, m, built) triples with at least two layers each."""
    rng = random.Random(seed)
    made = 0
    while made < count:
        n = rng.randint(*span)
        g = random_gnp(n, rng.uniform(0.3, 0.8), rng)
        k = rng.randint(1, 3)
        m = random_klimited(g, k, rng)
        for start in range(g.n):
            if m.deg[start] == k:
                continue
            built = build_layers(g, m, start)
            if built is None or built.layer_count() < 2:
                continue
            yield g, m, built
            made += 1
            if made >= count:
                return


# ---------------------------------------------------------------------------
# containers


def test_blossom_violation_views():
    g = complete_graph(3)
    bv = BlossomViolation(Trail(g, (0, 1)), 0, 1)
    assert bv.in_dart == 0 and bv.out_dart == 1


def test_layered_dart_graph_queries():
    g = path_graph(3)
    lg = LayeredDartGraph(g, 0, [{0}, {2}])
    assert lg.dart_count() == 2 and lg.layer_count() == 2
    assert lg.terminal_heads() == {2}
    assert not lg.is_dead()
    assert LayeredDartGraph(g, 0, [{0}, set()]).is_dead()
    assert LayeredDartGraph(g, 0, []).is_dead()


# ---------------------------------------------------------------------------
# build_layers


def test_build_layers_single_layer():
    g = cycle_graph(4)
    m = KLimitedSubgraph(g, 2)
    built = build_layers(g, m, 0)
    assert built.layers == [{0, 6}]
    assert built.start == 0
    assert built.terminal_heads() == {1, 3}


def test_build_layers_walks_through_filled_vertices():
    g = path_graph(4)
    m = KLimitedSubgraph.from_edges(g, 1, [1])
    built = build_layers(g, m, 0)
    assert [sorted(s) for s in built.layers] == [[0], [2], [4]]


def test_build_layers_rejects_filled_start():
    g = path_graph(2)
    m = KLimitedSubgraph.from_edges(g, 1, [0])
    with pytest.raises(ValueError, match="start vertex 0 is filled"):
        build_layers(g, m, 0)


def test_build_layers_no_blue_dart_at_start():
    # 0 has one edge and it is red, so the first layer cannot exist
    g = path_graph(3)
    m = KLimitedSubgraph.from_edges(g, 2, [0, 1])
    assert build_layers(g, m, 0) is None


def test_build_layers_dead_expansion():
    # from 2 the walk reaches 0 through the red edge, then has nowhere to go
    g = path_graph(3)
    m = KLimitedSubgraph.from_edges(g, 1, [0])
    assert build_layers(g, m, 2) is None


def test_build_layers_trace_reports_sizes():
    g = path_graph(4)
    m = KLimitedSubgraph.from_edges(g, 1, [1])
    events = []
    build_layers(g, m, 0, trace=record(events))
    assert events == [("layer-built", 0, 1), ("layer-built", 1, 1), ("layer-built", 2, 1)]


def test_build_layers_structure_randomized():
    for g, m, built in random_layered(seed=401, count=150):
        layers = built.layers
        # terminal layer is blue and holds a usable endpoint
        last = built.layer_count() - 1
        assert last % 2 == 0
        k, deg, start = m.k, m.deg, built.start
        assert any(
            deg[v] < k and (v != start or deg[v] < k - 1)
            for v in built.terminal_heads()
        )
        seen_all: set[int] = set()
        for i, layer in enumerate(layers):
            assert layer, "builder never leaves an empty layer"
            for d in layer:
                # blue at even depth, red at odd, one depth per dart
                assert ((d >> 1) in m.in_m) == (i % 2 == 1)
                assert d not in seen_all
                seen_all.add(d)
            tails = {g.dart_tails[d] for d in layer}
            if i == 0:
                assert tails == {start}
            else:
                # deeper layers leave only from filled heads of the previous
                prev = {g.dart_heads[d] for d in layers[i - 1]}
                assert tails <= {v for v in prev if deg[v] == k}


# ---------------------------------------------------------------------------
# prune


def test_prune_drops_dead_heads_and_tails():
    g = path_graph(4)
    # dart 5 (3 -> 2) in layer 0 has head 2, which feeds nothing in layer 1
    dead_head = LayeredDartGraph(g, 0, [{0, 5}, {2}, {4}])
    out = prune(dead_head)
    assert [sorted(s) for s in out.layers] == [[0], [2], [4]]
    assert 5 in dead_head.layers[0]
    # dart 5 in layer 1 has tail 3, which nothing in layer 0 reaches
    dead_tail = LayeredDartGraph(g, 0, [{0}, {2, 5}, {4}])
    out = prune(dead_tail)
    assert [sorted(s) for s in out.layers] == [[0], [2], [4]]


def test_prune_empty_middle_kills_everything():
    g = path_graph(3)
    lg = LayeredDartGraph(g, 0, [{0}, set(), {0}])
    out = prune(lg)
    assert out.is_dead() and out.dart_count() == 0


def test_prune_trace_reports_counts():
    g = path_graph(4)
    lg = LayeredDartGraph(g, 0, [{0, 5}, {2}, {4}])
    events = []
    prune(lg, trace=record(events))
    assert events == [("pruned", 4, 3)]


def test_prune_idempotent_and_walk_preserving():
    for g, m, built in random_layered(seed=402, count=120):
        if math.prod(len(s) for s in built.layers) > 20000:
            continue
        once = prune(built)
        twice = prune(once)
        assert [sorted(s) for s in once.layers] == [sorted(s) for s in twice.layers]
        assert sorted(layer_walks(once)) == sorted(layer_walks(built))
        if not once.is_dead():
            assert all(once.layers)


# ---------------------------------------------------------------------------
# restrict_to_target


def test_restrict_keeps_exactly_walks_to_target():
    for g, m, built in random_layered(seed=403, count=60):
        if math.prod(len(s) for s in built.layers) > 20000:
            continue
        heads = g.dart_heads
        frozen = [sorted(s) for s in built.layers]
        for v in sorted(built.terminal_heads()):
            gv = restrict_to_target(built, v)
            want = sorted(w for w in layer_walks(built) if heads[w[-1]] == v)
            assert sorted(layer_walks(gv)) == want
            assert all(heads[d] == v for d in gv.layers[-1])
        # restriction never mutates its input
        assert [sorted(s) for s in built.layers] == frozen


def test_restrict_unknown_target_raises():
    g = cycle_graph(4)
    built = build_layers(g, KLimitedSubgraph(g, 2), 0)
    with pytest.raises(ValueError, match="vertex 2 is not in the terminal head set"):
        restrict_to_target(built, 2)


# ---------------------------------------------------------------------------
# extract_trail


def test_extract_is_lexicographically_least_distinct_walk():
    for g, m, built in random_layered(seed=404, count=100):
        if math.prod(len(s) for s in built.layers) > 20000:
            continue
        for v in sorted(built.terminal_heads()):
            gv = restrict_to_target(built, v)
            got = extract_trail(gv)
            walks = distinct_layer_walks(gv)
            if walks:
                assert got is not None and got.darts == min(walks)
                # deterministic on repeat
                assert extract_trail(gv).darts == got.darts
            else:
                assert got is None


def test_extract_none_when_layers_empty():
    g = path_graph(3)
    assert extract_trail(LayeredDartGraph(g, 0, [])) is None
    assert extract_trail(LayeredDartGraph(g, 0, [{0}, set()])) is None


def test_extract_none_when_only_walk_repeats_a_dart():
    # the chain 0 -> 1 -> 0 exists but reuses dart 0, so nothing is distinct
    g = path_graph(2)
    lg = LayeredDartGraph(g, 0, [{0}, {1}, {0}])
    assert 0 in lg.layers[0] and 0 in lg.layers[2]
    assert extract_trail(lg) is None


def test_extract_trace_reports_darts():
    g = path_graph(4)
    lg = LayeredDartGraph(g, 0, [{0}, {2}, {4}])
    events = []
    extract_trail(lg, trace=record(events))
    assert events == [("extracted", 0, 2, 4)]


# ---------------------------------------------------------------------------
# violations and repairs


def test_find_blossom_violation_none_when_edge_simple():
    g = path_graph(4)
    assert find_blossom_violation(Trail(g, (0, 2, 4))) is None


def test_find_blossom_violation_picks_earliest_in_dart():
    g = complete_graph(3)
    # positions 0/3 and 1/2 both hold opposite pairs; earliest in-dart wins
    bv = find_blossom_violation(Trail(g, (2, 5, 4, 3)))
    assert (bv.in_index, bv.out_index) == (0, 3)
    assert bv.in_dart == 2 and bv.out_dart == 3


def test_is_cut_dart_rejects_absent_dart():
    g = path_graph(3)
    lg = LayeredDartGraph(g, 0, [{0}, {2}])
    with pytest.raises(ValueError, match="dart 1 is not in layer 0"):
        is_cut_dart(lg, 1, 0)


def test_is_cut_dart_is_pure():
    g = path_graph(3)
    lg = LayeredDartGraph(g, 0, [{0}, {2}])
    assert is_cut_dart(lg, 0, 0)
    assert is_cut_dart(lg, 2, 1)
    assert lg.layers == [{0}, {2}]


def test_blossom_operation_rejects_foreign_violation():
    g = complete_graph(3)
    lg = LayeredDartGraph(g, 0, [{0}])
    bv = BlossomViolation(Trail(g, (2, 5, 1)), 0, 2)
    with pytest.raises(ValueError, match="does not come from a trail"):
        blossom_operation(lg, bv)


# ---------------------------------------------------------------------------
# pinned instances, exact to the dart


def test_blossom_deletes_in_dart_end_to_end():
    # two vertices of degree three each, joined to a triangle chord; the
    # first extraction walks 4 -> 0 -> 2 -> 3 -> 0 -> 4 reusing edge (0, 4)
    g = Graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3)])
    m = KLimitedSubgraph.from_edges(g, 2, [0, 1, 3, 4])
    assert m.deficit == 2

    built = build_layers(g, m, 4)
    assert [sorted(s) for s in built.layers] == [
        [5, 11],
        [0, 2, 6, 8],
        [12, 13],
        [1, 3, 7, 9],
        [4, 10],
    ]
    assert built.terminal_heads() == {4}

    gv = restrict_to_target(built, 4)
    assert gv.dart_count() == 14

    first = extract_trail(gv)
    assert first.darts == (5, 0, 12, 3, 4)
    bv = find_blossom_violation(first)
    assert (bv.in_index, bv.out_index) == (0, 4)
    assert (bv.in_dart, bv.out_dart) == (5, 4)
    assert not is_cut_dart(gv, 5, 0)

    gv2 = blossom_operation(gv, bv)
    assert gv2.dart_count() == 11
    assert sorted(gv2.layers[0]) == [11]

    second = extract_trail(gv2)
    assert second.darts == (11, 6, 12, 3, 4)
    assert find_blossom_violation(second) is None

    events = []
    counters = SearchCounters()
    trail = find_augmenting_trail(g, m, trace=record(events), counters=counters)
    assert trail.darts == (11, 6, 12, 3, 4)
    assert (counters.extracted, counters.blossoms) == (2, 1)
    assert events == [
        ("layer-built", 0, 2),
        ("layer-built", 1, 4),
        ("layer-built", 2, 2),
        ("layer-built", 3, 4),
        ("layer-built", 4, 2),
        ("restricted", 4),
        ("pruned", 14, 14),
        ("extracted", 5, 0, 12, 3, 4),
        ("blossom", 5, 4, 5),
        ("pruned", 13, 11),
        ("extracted", 11, 6, 12, 3, 4),
        ("accepted", 11, 6, 12, 3, 4),
    ]

    m.apply_trail(trail)
    assert sorted(m.in_m) == [0, 2, 4, 5, 6]
    assert m.deficit == 0


def test_blossom_spares_cut_dart_and_restriction_dies():
    # vertex 4 hangs off a dense block by a single edge; every walk from 4
    # must both leave and re-enter through it, so the in-dart is a cut dart,
    # the out-dart is deleted instead, and pruning collapses the whole graph
    g = Graph(5, [(0, 1), (0, 2), (0, 4), (1, 2), (1, 3), (2, 3)])
    m = KLimitedSubgraph.from_edges(g, 2, [0, 1, 4, 5])
    assert m.deficit == 2

    built = build_layers(g, m, 4)
    assert [sorted(s) for s in built.layers] == [
        [5],
        [0, 2],
        [6, 7],
        [1, 3, 8, 10],
        [4],
    ]
    gv = restrict_to_target(built, 4)
    assert [sorted(s) for s in gv.layers] == [[5], [0, 2], [6, 7], [1, 3], [4]]

    first = extract_trail(gv)
    assert first.darts == (5, 0, 6, 3, 4)
    bv = find_blossom_violation(first)
    assert (bv.in_dart, bv.out_dart) == (5, 4)
    assert is_cut_dart(gv, 5, 0)

    events = []
    gv2 = blossom_operation(gv, bv, trace=record(events))
    assert events == [("blossom", 5, 4, 4), ("pruned", 7, 0)]
    assert gv2.is_dead() and gv2.dart_count() == 0

    # the engine agrees with exhaustive enumeration: no trail exists at all
    assert find_augmenting_trail(g, m) is None
    assert not has_augmenting_trail(g, m)


def test_closed_trail_found_when_start_degree_allows():
    # only vertex 3 is unfilled, so the trail must leave it and come back
    g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    m = KLimitedSubgraph.from_edges(g, 2, [0, 1, 3])

    built = build_layers(g, m, 3)
    assert [sorted(s) for s in built.layers] == [[5, 9], [0, 1, 2, 6], [4, 8]]
    assert built.terminal_heads() == {3}

    trail = find_augmenting_trail(g, m)
    assert trail.darts == (5, 0, 8)
    assert g.dart_tails[trail.darts[0]] == 3
    assert g.dart_heads[trail.darts[-1]] == 3
    m.apply_trail(trail)
    assert sorted(m.in_m) == [1, 2, 3, 4]
    assert m.deficit == 0


def test_layer_sets_are_never_mutated():
    # derived graphs share their unchanged layer sets with the graph they
    # come from, so no search step may change a stored set in place
    def pinned():
        for edges, members in (
            ([(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3)], [0, 1, 3, 4]),
            ([(0, 1), (0, 2), (0, 4), (1, 2), (1, 3), (2, 3)], [0, 1, 4, 5]),
        ):
            g = Graph(5, edges)
            m = KLimitedSubgraph.from_edges(g, 2, members)
            yield g, m, build_layers(g, m, 4)

    def untouched(fn, l, *args):
        before = [frozenset(s) for s in l.layers]
        result = fn(l, *args)
        assert [frozenset(s) for s in l.layers] == before, fn.__name__
        return result

    cuts = {True: 0, False: 0}
    graphs = list(pinned()) + list(random_layered(seed=409, count=80))
    for g, m, built in graphs:
        frozen = [frozenset(s) for s in built.layers]
        untouched(prune, built)
        for v in sorted(built.terminal_heads()):
            gv = untouched(restrict_to_target, built, v)
            while not gv.is_dead():
                trail = untouched(extract_trail, gv)
                bv = trail and find_blossom_violation(trail)
                if not bv:
                    break
                cuts[untouched(is_cut_dart, gv, bv.in_dart, bv.in_index)] += 1
                gv = untouched(blossom_operation, gv, bv)
        assert [frozenset(s) for s in built.layers] == frozen
    assert cuts[True] >= 1 and cuts[False] >= 1


# ---------------------------------------------------------------------------
# the full search


def test_find_rejects_zero_deficit():
    g = path_graph(2)
    m = KLimitedSubgraph.from_edges(g, 1, [0])
    with pytest.raises(ValueError, match="no deficit"):
        find_augmenting_trail(g, m)


def test_find_takes_one_dart_shortcut():
    g = path_graph(2)
    m = KLimitedSubgraph(g, 1)
    events = []
    counters = SearchCounters()
    trail = find_augmenting_trail(g, m, trace=record(events), counters=counters)
    assert trail.darts == (0,)
    assert events == [("layer-built", 0, 1), ("extracted", 0), ("accepted", 0)]
    assert (counters.extracted, counters.blossoms) == (1, 0)


def test_find_prefers_lowest_unfilled_neighbour():
    # adjacency at 0 lists heads 3, 2, 1 in that order; the lowest head wins
    g = Graph(4, [(0, 3), (0, 2), (0, 1)])
    m = KLimitedSubgraph(g, 1)
    trail = find_augmenting_trail(g, m)
    assert trail.darts == (4,)
    assert g.dart_heads[4] == 1


def test_find_agrees_with_enumeration_randomized():
    rng = random.Random(405)
    checked = 0
    for _ in range(300):
        n = rng.randint(3, 7)
        g = random_gnp(n, rng.uniform(0.2, 0.9), rng)
        k = rng.randint(1, 3)
        m = random_klimited(g, k, rng)
        if m.deficit == 0:
            continue
        trail = find_augmenting_trail(g, m)
        assert (trail is not None) == has_augmenting_trail(g, m)
        if trail is not None:
            ok, why = m.validate_augmenting_trail(trail)
            assert ok, why
        checked += 1
    assert checked >= 200


def test_counters_match_trace_tallies():
    rng = random.Random(406)
    for _ in range(120):
        n = rng.randint(4, 8)
        g = random_gnp(n, rng.uniform(0.3, 0.8), rng)
        k = rng.randint(1, 3)
        m = random_klimited(g, k, rng)
        if m.deficit == 0:
            continue
        events = []
        counters = SearchCounters()
        find_augmenting_trail(g, m, trace=record(events), counters=counters)
        names = [e[0] for e in events]
        assert counters.extracted == names.count("extracted")
        assert counters.blossoms == names.count("blossom")
        assert set(names) <= {
            "layer-built",
            "restricted",
            "pruned",
            "extracted",
            "blossom",
            "accepted",
        }


def test_blossom_strictly_shrinks_randomized():
    rng = random.Random(407)
    ops = 0
    tries = 0
    while ops < 30 and tries < 6000:
        tries += 1
        n = rng.randint(5, 9)
        g = random_gnp(n, rng.uniform(0.5, 0.9), rng)
        k = rng.randint(2, 3)
        s = rng.randrange(n)
        m = planted_state(g, k, s, rng)
        if m.deg[s] >= k:
            continue
        built = build_layers(g, m, s)
        if built is None or built.layer_count() < 3:
            continue
        targets = sorted(v for v in built.terminal_heads() if m.deg[v] < k and v != s)
        if s in built.terminal_heads() and m.deg[s] < k - 1:
            targets.append(s)
        for v in targets:
            gv = restrict_to_target(built, v)
            while not gv.is_dead():
                p = extract_trail(gv)
                if p is None:
                    break
                bv = find_blossom_violation(p)
                if bv is None:
                    break
                before = gv.dart_count()
                gv = blossom_operation(gv, bv)
                assert gv.dart_count() < before
                ops += 1
    assert ops >= 30


def test_every_enumerated_trail_is_engine_reachable():
    # the engine returns one trail; enumeration lists them all. On small
    # instances make sure the engine's pick actually appears in the list
    # (as darts or as the reverse walk over the same edges).
    rng = random.Random(408)
    hits = 0
    for _ in range(200):
        n = rng.randint(3, 6)
        g = random_gnp(n, rng.uniform(0.3, 0.9), rng)
        k = rng.randint(1, 2)
        m = random_klimited(g, k, rng)
        if m.deficit == 0:
            continue
        trail = find_augmenting_trail(g, m)
        if trail is None:
            continue
        assert trail.darts in set(augmenting_trails(g, m))
        hits += 1
    assert hits >= 80


# ---------------------------------------------------------------------------
# the dead-start memo


def clique_hub_host(hubs: int, cliques: int, hub_edges: int, rng: random.Random) -> Graph:
    """Hubs 0..hubs-1, then disjoint K5s joined only to hubs, each by at least one edge.

    With more cliques than hubs, deleting the hubs leaves more odd
    components than hubs, so there is no 1-factor.
    """
    edges = set()
    for c in range(cliques):
        first = hubs + 5 * c
        edges.update((first + a, first + b) for a in range(5) for b in range(a + 1, 5))
    targets = list(range(cliques)) + [rng.randrange(cliques) for _ in range(hub_edges - cliques)]
    for c in targets:
        free = [(h, hubs + 5 * c + a) for h in range(hubs) for a in range(5)]
        edges.add(rng.choice([e for e in free if e not in edges]))
    return Graph(hubs + 5 * cliques, sorted(edges))


def memo_hosts():
    """(family, g, k) over random G(n, p), clique-and-hub barriers and odd cliques."""
    rng = random.Random(1601)
    for _ in range(150):
        n = rng.randint(6, 20)
        yield "gnp", random_gnp(n, rng.uniform(0.2, 0.7), rng), rng.randint(1, 3)
    for _ in range(15):
        yield "barrier", clique_hub_host(3, 5, 6, rng), 1
    for _ in range(15):
        # one K5 per hub, so a 1-factor may exist through the hub edges
        yield "odd_cliques", clique_hub_host(8, 8, 20, rng), 1


def test_memo_changes_no_trail_along_solves():
    """At every step of a solve, the search with the state's memo returns the
    same trail as the search from a copy, whose memo is empty."""
    skipped: dict[str, int] = {}
    for family, g, k in memo_hosts():
        m = KLimitedSubgraph(g, k)
        while m.deficit > 0:
            skipped[family] = skipped.get(family, 0) + sum(
                1 for s, memo in m.dead_starts.items() if m.deg[s] < k and m.unchanged_since(*memo)
            )
            fresh = m.copy()
            trail = find_augmenting_trail(g, m)
            again = find_augmenting_trail(g, fresh)
            assert (trail and trail.darts) == (again and again.darts)
            if trail is None:
                break
            m.apply_trail(trail)
    assert all(skipped.get(family, 0) > 0 for family in ("gnp", "barrier", "odd_cliques")), skipped


def test_memo_changes_no_trail_along_random_augmentations():
    """As above, but each step applies a random enumerated trail instead of the
    engine's: that touches the graph in more places and revives dead starts."""
    rng = random.Random(1602)
    revived = 0
    for _ in range(300):
        n = rng.randint(5, 9)
        g = random_gnp(n, rng.uniform(0.3, 0.8), rng)
        k = rng.randint(1, 3)
        m = KLimitedSubgraph(g, k)
        while m.deficit > 0:
            stale = {s for s, memo in m.dead_starts.items() if not m.unchanged_since(*memo)}
            trail = find_augmenting_trail(g, m)
            again = find_augmenting_trail(g, m.copy())
            assert (trail and trail.darts) == (again and again.darts)
            revived += trail is not None and trail.start in stale
            trails = augmenting_trails(g, m)
            if not trails:
                break
            m.apply_trail(Trail(g, rng.choice(trails)))
    assert revived > 0


def test_memo_holds_until_an_augmentation_touches_what_its_search_read():
    # edges 0..9: (0,1) (0,3) (0,4) (1,2) (1,4) (2,6) (3,5) (3,7) (5,7) (6,7)
    g = Graph(8, [(0, 1), (0, 3), (0, 4), (1, 2), (1, 4), (2, 6), (3, 5), (3, 7), (5, 7), (6, 7)])
    m = KLimitedSubgraph.from_edges(g, 2, [0, 2, 3, 5, 6, 7])
    assert m.deficit == 4 and [v for v in range(8) if m.deg[v] < 2] == [4, 5, 6, 7]
    # from 4 the layers run 4 -> 1 -> {0, 2} -> 3 -> {5, 7} and stop: the
    # last layer is red and its heads 5 and 7 are unfilled, so nothing grows
    # from them; 5 then has the one-dart trail 5 -> 7
    first = find_augmenting_trail(g, m)
    assert first.darts == (16,)
    assert m.dead_starts == {4: (4, {0, 1, 2, 3, 4, 5, 7})}
    # while the memo holds, start 4 is skipped without a trace event
    events = []
    assert find_augmenting_trail(g, m, trace=record(events)).darts == (16,)
    assert events == [("layer-built", 0, 1), ("extracted", 16), ("accepted", 16)]
    m.apply_trail(first)
    assert not m.unchanged_since(*m.dead_starts[4])
    # 5 and 7 are filled now, so the layers from 4 go on through 7 to 6
    second = find_augmenting_trail(g, m)
    assert second.darts == (9, 1, 2, 14, 19)
    assert [g.dart_tails[d] for d in second.darts] == [4, 1, 0, 3, 7]
    assert 4 not in m.dead_starts
    m.apply_trail(second)
    assert m.deficit == 0
