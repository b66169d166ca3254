"""Tests for the k = 1 blossom search and the hosts the layered search missed at k = 1."""

from __future__ import annotations

import random

import pytest

from kfactor import (
    FACTOR_FOUND,
    NO_FACTOR,
    Graph,
    KLimitedSubgraph,
    SolveStats,
    Trail,
    compute_k_factor,
    verify_factor,
)
from kfactor import matching
from kfactor.difftest import DiffConfig, run_difftest
from kfactor.matching import augment_from_cursor, edmonds_augmenting_path
from kfactor.oracle import brute_force_k_factor, random_gnp

from bruteforce import augmenting_trails, cycle_graph, random_klimited

# hubs 0-6 and seven triangles; hub i is joined to one vertex of triangle i
# (a planted perfect matching) and to random triangle vertices. The layered
# search answers no_factor here at k = 1.
HUBS_AND_TRIANGLES = (
    (0, 7), (0, 15), (0, 20), (0, 27), (1, 8), (1, 10), (1, 18), (1, 19), (2, 11),
    (2, 13), (2, 17), (2, 18), (3, 13), (3, 14), (3, 16), (3, 20), (4, 19), (4, 20),
    (4, 24), (4, 25), (5, 12), (5, 14), (5, 15), (5, 22), (6, 12), (6, 15), (6, 18),
    (6, 25), (7, 8), (7, 9), (8, 9), (10, 11), (10, 12), (11, 12), (13, 14), (13, 15),
    (14, 15), (16, 17), (16, 18), (17, 18), (19, 20), (19, 21), (20, 21), (22, 23),
    (22, 24), (23, 24), (25, 26), (25, 27), (26, 27),
)


def clique_edges(first: int, size: int) -> list[tuple[int, int]]:
    return [(first + a, first + b) for a in range(size) for b in range(a + 1, size)]


def odd_cliques_host(hubs: int, rng: random.Random) -> tuple[Graph, list[tuple[int, int]]]:
    """Hubs 0..hubs-1, one K5 per hub; hub i is joined to a vertex of K5 number i
    and to two random clique vertices. Returns the host and the planted perfect matching."""
    edges: set[tuple[int, int]] = set()
    planted = []
    for hub in range(hubs):
        first = hubs + 5 * hub
        edges.update(clique_edges(first, 5))
        mate = first + rng.randrange(5)
        edges.add((hub, mate))
        rest = [v for v in range(first, first + 5) if v != mate]
        planted += [(hub, mate), (rest[0], rest[1]), (rest[2], rest[3])]
    for hub in range(hubs):
        for _ in range(2):
            edges.add((hub, hubs + rng.randrange(5 * hubs)))
    return Graph(6 * hubs, sorted(edges)), planted


def odd_components(g: Graph, removed: set[int]) -> int:
    """Number of odd-sized components of g - removed, by depth-first search."""
    seen = set(removed)
    odd = 0
    for s in range(g.n):
        if s in seen:
            continue
        seen.add(s)
        stack, size = [s], 0
        while stack:
            v = stack.pop()
            size += 1
            for d in g.adjacency[v]:
                w = g.dart_heads[d]
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        odd += size % 2
    return odd


def assert_perfect_matching_found(g: Graph) -> None:
    out = compute_k_factor(g, 1)
    assert out.status == FACTOR_FOUND
    assert verify_factor(g, 1, out.factor) == (True, {})


# ---------------------------------------------------------------------------
# hosts the layered search missed at k = 1


def test_hubs_and_triangles_host_has_a_perfect_matching():
    g = Graph(28, HUBS_AND_TRIANGLES)
    assert g.m > 24  # above the brute-force oracle's edge cap
    assert_perfect_matching_found(g)


# seeds on which the layered search answers no_factor at k = 1
@pytest.mark.parametrize("seed", [9, 20, 21, 58])
def test_odd_cliques_host_has_a_perfect_matching(seed):
    g, planted = odd_cliques_host(6, random.Random(seed))
    assert verify_factor(g, 1, [g.edge_id(u, v) for u, v in planted]) == (True, {})
    assert_perfect_matching_found(g)


def test_barrier_host_above_the_edge_cap_has_no_perfect_matching():
    # hubs S = {0, 1, 2}; five K5s joined only to S, so G - S has five odd
    # components, more than |S|: by Tutte's theorem there is no perfect matching
    hubs = {0, 1, 2}
    edges = [e for c in range(5) for e in clique_edges(3 + 5 * c, 5)]
    edges += [(h, 3 + 5 * c + h) for h in hubs for c in range(5)]
    g = Graph(28, edges)
    assert g.m > 24
    assert odd_components(g, hubs) == 5 > len(hubs)
    out = compute_k_factor(g, 1)
    assert out.status == NO_FACTOR
    assert out.stats.blossom_operations > 0
    assert 2 * out.stats.augmentations + out.stats.deficit == g.n


# ---------------------------------------------------------------------------
# the finder


def test_exhaustive_6_vertex_sweep_at_k1(tmp_path):
    report = run_difftest(DiffConfig(mode="exhaustive", n=6, k_values=(1,), out_dir=str(tmp_path)))
    assert report.total("instances") == 1 << 15
    assert report.total("solver_missed") == 0
    assert report.total("solver_false") == 0


def test_finder_paths_are_simple_and_accepted_on_random_hosts():
    rng = random.Random(1965)
    blossoms = augmentations = checked = 0
    for _ in range(300):
        n = 2 * rng.randint(1, 20)
        g = random_gnp(n, min(1.0, rng.uniform(1.0, 4.0) / n), rng)
        m = KLimitedSubgraph(g, 1)
        stats = SolveStats()
        paths = []
        deficits = []

        def accepted(event, *darts):
            assert event == "accepted"
            paths.append(darts)
            deficits.append(m.deficit)

        assert edmonds_augmenting_path(g, m, accepted, stats) is None
        # each path the finder took is simple and, replayed from the empty
        # matching, accepted by apply_trail with the same drop in deficit
        replay = KLimitedSubgraph(g, 1)
        for darts, after in zip(paths, deficits):
            path = Trail(g, darts)
            vertices = path.vertices()
            assert len(set(vertices)) == len(vertices)
            before = replay.deficit
            replay.apply_trail(path)
            assert replay.deficit == before - 2 == after
        assert replay.in_m == m.in_m
        m.check_consistency()
        done = (g.n - m.deficit) // 2
        assert stats.trails_examined == done == len(paths)
        augmentations += done
        blossoms += stats.blossom_operations
        if g.m <= 24:
            assert (m.deficit == 0) == (brute_force_k_factor(g, 1) is not None)
            checked += 1
    assert blossoms > 0 and augmentations > 1000 and checked > 20


def test_solve_stats_and_trace_at_k1():
    g = Graph(28, HUBS_AND_TRIANGLES)
    events = []
    out = compute_k_factor(g, 1, trace=lambda *a: events.append(a))
    assert out.stats.trails_examined == out.stats.augmentations == 14
    assert {e[0] for e in events} == {"accepted"}
    assert len(events) == 14


def test_stops_at_the_first_failed_root():
    # a triangle and a 3-vertex path: 0-1 is taken, the search from 2 fails,
    # and the path 3-4-5 is left as it is
    g = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (4, 5)])
    out = compute_k_factor(g, 1)
    assert out.status == NO_FACTOR
    assert (out.stats.augmentations, out.stats.deficit) == (1, 4)


def test_finder_contracts_an_odd_cycle():
    # triangle 0-1-2 with 1-2 matched and a pendant 3 on 1: from 0 the tree
    # labels 1 odd and 2 even, the edge 0-2 closes the blossom, and 3 is
    # reached from 1 only once 1 is even, so the path goes round the cycle
    g = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3)])
    m = KLimitedSubgraph.from_edges(g, 1, [g.edge_id(1, 2)])
    stats = SolveStats()
    events = []
    assert edmonds_augmenting_path(g, m, lambda *a: events.append(a), stats) is None
    assert [e[0] for e in events] == ["accepted"]
    path = Trail(g, events[0][1:])
    assert path.vertices() == [0, 2, 1, 3]
    assert (stats.blossom_operations, stats.trails_examined) == (1, 1)
    assert m.deficit == 0


def test_search_gets_the_least_unfilled_vertex():
    """augment_from_cursor with a spy search, on random hosts and states: each
    call receives the least unfilled vertex, which has no blue dart to an
    unfilled vertex, and the cursor never moves down. The spy returns a random
    vertex-simple augmenting path, or now and then None, which ends the loop."""
    rng = random.Random(2525)
    calls = nones = 0
    for _ in range(300):
        n = rng.randint(1, 8)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5])
        k = rng.randint(1, 3)
        m = random_klimited(g, k, rng)
        cursors = []
        gave_up = []

        def search(cursor):
            unfilled = [v for v in range(g.n) if m.deg[v] < k]
            assert cursor == unfilled[0]
            blue = [d for d in g.adjacency[cursor] if (d >> 1) not in m.in_m]
            assert all(m.deg[g.dart_heads[d]] == k for d in blue)
            assert not cursors or cursors[-1] <= cursor
            cursors.append(cursor)
            paths = [darts for darts in augmenting_trails(g, m)
                     if len(set(Trail(g, darts).vertices())) == len(darts) + 1]
            if not paths or rng.random() < 0.1:
                gave_up.append(cursor)
                return None
            return rng.choice(paths)

        assert augment_from_cursor(g, m, search) is None
        m.check_consistency()
        assert (m.deficit == 0) != bool(gave_up)
        calls += len(cursors)
        nones += len(gave_up)
    assert calls > 300 and nones > 50


def test_refused_path_raises_assertion(monkeypatch):
    """A path the blossom engine takes is checked by augment_darts, and a
    refusal surfaces as AssertionError, not as the primitive's ValueError."""
    # the cursor takes 0 - 1, after which vertex 2 has no one-edge
    # augmentation and is searched
    g = Graph(4, [(0, 1), (0, 2), (1, 3)])
    roots = []

    def even_path(g, m, root, stats):
        roots.append(root)
        return [3, 0]  # 2 -> 0 -> 1: vertex-simple, but of even length

    monkeypatch.setattr(matching, "_blossom_path", even_path)
    with pytest.raises(AssertionError, match="not an augmenting trail: trail length must be odd"):
        compute_k_factor(g, 1)
    assert roots == [2]


def test_engine_refuses_a_non_simple_path(monkeypatch):
    # 2 -> 0 -> 1 -> 0 revisits vertex 0 (and edge 0)
    monkeypatch.setattr(matching, "_blossom_path", lambda g, m, root, stats: [3, 0, 1])
    g = Graph(4, [(0, 1), (0, 2), (1, 3)])
    with pytest.raises(AssertionError, match="non-simple path"):
        compute_k_factor(g, 1)


def test_refused_one_edge_augmentation_raises_assertion(monkeypatch):
    """A one-edge augmentation the cursor round takes is checked by
    augment_edge, and a refusal surfaces as AssertionError."""
    def refuse(self, e):
        raise ValueError(f"not an augmenting trail: edge {e} is red")

    monkeypatch.setattr(KLimitedSubgraph, "augment_edge", refuse)
    with pytest.raises(AssertionError, match="not an augmenting trail: edge 0 is red"):
        compute_k_factor(cycle_graph(6), 1)


def test_finder_refuses_k_above_1():
    g = cycle_graph(4)
    with pytest.raises(ValueError, match="k = 1"):
        edmonds_augmenting_path(g, KLimitedSubgraph(g, 2))


def test_layered_engine_still_runs_at_k_above_1():
    events = []
    compute_k_factor(cycle_graph(6), 2, trace=lambda *a: events.append(a))
    assert "layer-built" in {e[0] for e in events}
