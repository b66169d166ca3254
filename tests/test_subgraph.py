"""Degree-limited subgraphs, trail validation, and trail application."""

from __future__ import annotations

import random

import pytest

from bruteforce import augmenting_trails, cycle_graph, complete_graph, random_klimited
from kfactor import Graph, GraphFormatError, KLimitedSubgraph, Trail, dart_edge, parse_factor, serialize_factor


def square():
    return Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


# ---------------------------------------------------------------------------
# Trail


def test_trail_chaining_and_views():
    g = square()
    # 0 ->1 (dart 0), 1->2 (dart 2), 2->3 (dart 4)
    t = Trail(g, (0, 2, 4))
    assert len(t) == 3
    assert t.start == 0 and t.end == 3 and not t.is_closed
    assert t.vertices() == [0, 1, 2, 3]
    assert t.edge_ids() == [0, 1, 2]


def test_trail_closed():
    g = square()
    t = Trail(g, (0, 2, 4, 7))
    assert t.is_closed and t.start == 0


def test_trail_rejects_broken_chain():
    g = square()
    with pytest.raises(ValueError, match="do not chain"):
        Trail(g, (0, 4))


def test_trail_rejects_out_of_range_dart():
    g = square()
    with pytest.raises(ValueError, match="out of range"):
        Trail(g, (99,))


# ---------------------------------------------------------------------------
# KLimitedSubgraph basics


def test_empty_subgraph_state():
    g = square()
    m = KLimitedSubgraph(g, 2)
    assert m.deficit == 8
    assert m.member_edges() == []
    assert all(not m.is_filled(v) for v in range(4))


def test_k_must_be_positive():
    with pytest.raises(ValueError, match="positive"):
        KLimitedSubgraph(square(), 0)


def test_from_edges_and_queries():
    g = square()
    m = KLimitedSubgraph.from_edges(g, 2, [0, 2])
    assert m.deficit == 4
    assert 0 in m.in_m and 1 not in m.in_m
    assert dart_edge(1) in m.in_m and dart_edge(2) not in m.in_m
    assert m.deg == [1, 1, 1, 1]
    assert m.member_edges() == [0, 2]


@pytest.mark.parametrize(
    "edges, fragment",
    [
        ([9], "unknown edge id"),
        ([0, 0], "listed twice"),
        ([0, 1, 3], "past degree 1"),
    ],
)
def test_from_edges_rejections(edges, fragment):
    with pytest.raises(ValueError, match=fragment):
        KLimitedSubgraph.from_edges(square(), 1, edges)


def test_copy_is_independent():
    g = square()
    m = KLimitedSubgraph.from_edges(g, 2, [0])
    c = m.copy()
    c.in_m.add(2)
    c.deg[1] += 1
    c.deg[2] += 1
    assert m.member_edges() == [0]
    assert m.deg == [1, 1, 0, 0]


def test_check_consistency_catches_drift():
    m = KLimitedSubgraph.from_edges(square(), 2, [0])
    m.check_consistency()
    m.in_m.add(2)
    with pytest.raises(AssertionError):
        m.check_consistency()


def test_deficit_parity_matches_k_times_n():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 8)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        g = Graph(n, pairs)
        k = rng.randint(1, 3)
        m = random_klimited(g, k, rng)
        assert m.deficit % 2 == (k * n) % 2
        assert m.deficit == sum(k - m.deg[v] for v in range(n))


# ---------------------------------------------------------------------------
# validate_augmenting_trail, clause by clause


def test_validate_accepts_single_blue_dart():
    g = square()
    m = KLimitedSubgraph(g, 1)
    ok, why = m.validate_augmenting_trail(Trail(g, (0,)))
    assert ok and why == "ok"


def test_validate_rejects_even_length():
    g = square()
    m = KLimitedSubgraph(g, 1)
    ok, why = m.validate_augmenting_trail(Trail(g, (0, 2)))
    assert not ok and "odd" in why


def test_validate_rejects_repeated_edge():
    g = square()
    m = KLimitedSubgraph.from_edges(g, 2, [0])
    # 0->1, 1->2, 2->1 reuses edge (1, 2) via its opposite dart
    ok, why = m.validate_augmenting_trail(Trail(g, (0, 2, 3)))
    assert not ok and why == "edge (1, 2) is used twice"


def test_validate_rejects_wrong_alternation():
    g = square()
    m = KLimitedSubgraph.from_edges(g, 2, [1])
    # all three darts blue under M = {edge 1}? dart 2 lies on edge 1 (red)
    ok, why = m.validate_augmenting_trail(Trail(g, (2,)))
    assert not ok and why == "edge at position 0 must be blue"
    m2 = KLimitedSubgraph(g, 2)
    ok, why = m2.validate_augmenting_trail(Trail(g, (0, 2, 4)))
    assert not ok and why == "edge at position 1 must be red"


def test_validate_rejects_unfilled_inner_vertex():
    g = square()
    m = KLimitedSubgraph.from_edges(g, 2, [1])
    # 0->1 blue, 1->2 red, 2->3 blue; vertex 1 has degree 1 < 2
    ok, why = m.validate_augmenting_trail(Trail(g, (0, 2, 4)))
    assert not ok and why == "inner vertex 1 is unfilled"


def test_validate_rejects_filled_endpoint():
    g = square()
    m = KLimitedSubgraph.from_edges(g, 1, [1])
    # dart 0 ends at vertex 1, which edge 1 fills at k = 1
    ok, why = m.validate_augmenting_trail(Trail(g, (0,)))
    assert not ok and why == "endpoint 1 is filled"


def test_validate_closed_trail_guard():
    # edges: 0=(0,1) 1=(1,2) 2=(0,2) 3=(1,3) 4=(2,4) 5=(3,4) 6=(0,3)
    g = Graph(5, [(0, 1), (1, 2), (0, 2), (1, 3), (2, 4), (3, 4), (0, 3)])
    # closed walk at 0: 0->1 blue(e0), 1->2 red(e1), 2->0 blue(e2)
    walk = Trail(g, (0, 2, 5))
    m = KLimitedSubgraph.from_edges(g, 2, [1, 3, 4, 6])  # deg(0) = 1 = k - 1
    ok, why = m.validate_augmenting_trail(walk)
    assert not ok and why == "closed trail needs degree(start) < k - 1, got 1"
    # with degree(0) = 0 the same walk passes
    m2 = KLimitedSubgraph.from_edges(g, 2, [1, 3, 4])
    ok, why = m2.validate_augmenting_trail(walk)
    assert ok, why


def test_validate_foreign_graph_raises():
    g = square()
    m = KLimitedSubgraph(g, 1)
    other = square()
    with pytest.raises(ValueError, match="different graph"):
        m.validate_augmenting_trail(Trail(other, (0,)))


# ---------------------------------------------------------------------------
# apply_trail


def test_apply_trail_open():
    g = square()
    m = KLimitedSubgraph.from_edges(g, 2, [1])
    # need endpoints unfilled, inner filled: M={1}: deg = 0,1,1,0
    # use trail 1->0 blue? e0 blue: dart 1 is 1->0; single dart: endpoints 1,0 unfilled
    out = m.copy()
    assert out.apply_trail(Trail(g, (1,))) is None
    assert out.member_edges() == [0, 1]
    assert out.deficit == m.deficit - 2
    assert m.member_edges() == [1], "receiver must not change"
    out.check_consistency()


def test_apply_trail_toggles_membership():
    g = cycle_graph(4)
    m = KLimitedSubgraph.from_edges(g, 2, [1])
    # 0->1 blue(e0), 1->2 red(e1), 2->3 blue(e2): endpoints 0,3 deg 0; inner 1,2 deg 1
    # inner must be filled at k=2 -> invalid; use k=1 instead
    m1 = KLimitedSubgraph.from_edges(g, 1, [1])
    m1.apply_trail(Trail(g, (0, 2, 4)))
    assert m1.member_edges() == [0, 2]
    assert m1.deg == [1, 1, 1, 1]
    m1.check_consistency()


def test_apply_trail_rejects_invalid():
    g = square()
    m = KLimitedSubgraph(g, 2)
    with pytest.raises(ValueError, match="not an augmenting trail"):
        m.apply_trail(Trail(g, (0, 2)))


def test_refused_trail_leaves_receiver_unchanged():
    g = square()
    m = KLimitedSubgraph(g, 1)
    trail = Trail(g, (0,))
    m.apply_trail(trail)
    snapshot = (set(m.in_m), list(m.deg), m.deficit)
    # the same trail again now starts on a red edge
    with pytest.raises(ValueError, match="position 0 must be blue"):
        m.apply_trail(trail)
    assert (m.in_m, m.deg, m.deficit) == snapshot
    # 3 -> 0 -> 1 -> 3 passes every clause but the last: deg(3) = 1 = k - 1
    g = Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (3, 4)])
    m = KLimitedSubgraph.from_edges(g, 2, [0, 1, 2, 5])
    snapshot = (set(m.in_m), list(m.deg), m.deficit)
    with pytest.raises(ValueError, match="closed trail needs"):
        m.apply_trail(Trail(g, (7, 0, 8)))
    assert (m.in_m, m.deg, m.deficit) == snapshot


def test_apply_random_bruteforce_trails():
    """Every brute-force enumerated trail applies cleanly and drops the deficit by 2."""
    rng = random.Random(123)
    checked = 0
    for _ in range(400):
        n = rng.randint(2, 6)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6]
        g = Graph(n, pairs)
        k = rng.randint(1, 3)
        m = random_klimited(g, k, rng)
        if m.deficit == 0:
            continue
        for darts in augmenting_trails(g, m)[:8]:
            out = m.copy()
            out.apply_trail(Trail(g, darts))
            assert out.deficit == m.deficit - 2
            out.check_consistency()
            checked += 1
    assert checked > 200


# ---------------------------------------------------------------------------
# first_unfilled, the start cursor


def least_unfilled(m: KLimitedSubgraph) -> int:
    return min((v for v in range(m.graph.n) if m.deg[v] < m.k), default=m.graph.n)


def test_first_unfilled_tracks_augmentations():
    """Over random states and the trails applied to them, the cursor is the least
    unfilled vertex (n when none) and never moves down, however sparsely it is read."""
    rng = random.Random(414)
    steps = 0
    for _ in range(300):
        n = rng.randint(1, 7)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6]
        g = Graph(n, pairs)
        k = rng.randint(1, 3)
        m = random_klimited(g, k, rng)
        last = m.first_unfilled()
        assert last == least_unfilled(m)
        while True:
            trails = augmenting_trails(g, m)
            if not trails:
                break
            m.apply_trail(Trail(g, rng.choice(trails)))
            steps += 1
            if rng.random() < 0.5:
                continue
            now = m.first_unfilled()
            assert now == least_unfilled(m)
            assert now >= last
            last = now
        assert m.first_unfilled() == least_unfilled(m)
    assert steps > 300


def test_first_unfilled_copy_carries_the_cursor():
    g = cycle_graph(6)
    m = KLimitedSubgraph(g, 1)
    m.apply_trail(Trail(g, (0,)))  # 0 - 1
    assert m.first_unfilled() == 2
    c = m.copy()
    assert c.first_unfilled() == 2
    c.apply_trail(Trail(g, (4,)))  # 2 - 3
    assert c.first_unfilled() == 4
    assert m.first_unfilled() == 2
    assert m.deg == [1, 1, 0, 0, 0, 0]


def test_first_unfilled_from_edges():
    g = cycle_graph(6)
    assert KLimitedSubgraph.from_edges(g, 1, [0, 2]).first_unfilled() == 4
    assert KLimitedSubgraph.from_edges(g, 1, [1, 3]).first_unfilled() == 0
    assert KLimitedSubgraph.from_edges(g, 1, [0, 2, 4]).first_unfilled() == 6
    assert KLimitedSubgraph.from_edges(g, 2, [0, 1]).first_unfilled() == 0
    assert KLimitedSubgraph(Graph(0, []), 1).first_unfilled() == 0


# ---------------------------------------------------------------------------
# augment_edge, the one-edge augmentation


def state(m: KLimitedSubgraph):
    return set(m.in_m), list(m.deg), m.deficit, m._unfilled_from, list(m._changed)


@pytest.mark.parametrize(
    "member, e, fragment",
    [
        ([0], 0, "edge 0 is red"),  # 0 - 1 is already in M
        ([0], 1, "endpoint 1 is filled"),  # 1 - 2: its low end is filled
        ([0], 3, "endpoint 0 is filled"),  # 0 - 3: its low end is filled
        ([1], 0, "endpoint 1 is filled"),  # 0 - 1: its high end is filled
        ([0], 4, "unknown edge id 4"),
        ([0], -1, "unknown edge id -1"),
    ],
)
def test_augment_edge_refusal_changes_nothing(member, e, fragment):
    g = square()
    m = KLimitedSubgraph.from_edges(g, 1, member)
    m.first_unfilled()  # settle the lazy cursor, so the snapshot holds its value
    snapshot = state(m)
    with pytest.raises(ValueError, match=fragment):
        m.augment_edge(e)
    assert state(m) == snapshot
    m.check_consistency()


def test_augment_edge_matches_the_one_dart_trail():
    """Random accepted one-edge augmentations keep the state consistent, equal
    apply_trail on the one-dart trail, and keep the cursor on the least unfilled
    vertex; refused ones change nothing."""
    rng = random.Random(1515)
    accepted = refused = 0
    for _ in range(300):
        n = rng.randint(2, 8)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6]
        g = Graph(n, pairs)
        if g.m == 0:
            continue
        k = rng.randint(1, 3)
        m = random_klimited(g, k, rng) if rng.random() < 0.5 else KLimitedSubgraph(g, k)
        last = m.first_unfilled()
        for _ in range(3 * g.m):
            e = rng.randrange(g.m)
            u, v = g.endpoints[e]
            if e in m.in_m or m.deg[u] == k or m.deg[v] == k:
                snapshot = state(m)
                with pytest.raises(ValueError, match="not an augmenting trail"):
                    m.augment_edge(e)
                assert state(m) == snapshot
                refused += 1
                continue
            twin = m.copy()
            twin.apply_trail(Trail(g, (2 * e + rng.randint(0, 1),)))
            m.augment_edge(e)
            m.check_consistency()
            assert (m.in_m, m.deg, m.deficit, m._changed) == (twin.in_m, twin.deg, twin.deficit, twin._changed)
            now = m.first_unfilled()
            assert now == least_unfilled(m)
            assert now >= last
            last = now
            accepted += 1
    assert accepted > 300 and refused > 300


# ---------------------------------------------------------------------------
# the change clock and the dead-start memo


def touched_since(m: KLimitedSubgraph, deficit: int) -> set[int]:
    return {v for v in range(m.graph.n) if m._changed[v] < deficit}


def hold_memo(m: KLimitedSubgraph) -> None:
    """Give m a memo entry, made at its current deficit, so augmentations stamp."""
    m.dead_starts[m.graph.n] = (m.deficit, set())


def test_clock_starts_untouched():
    g = cycle_graph(6)
    for m in (KLimitedSubgraph(g, 2), KLimitedSubgraph.from_edges(g, 2, [0, 3])):
        assert m._changed == [12] * 6
        assert m.dead_starts == {}
        assert m.unchanged_since(m.deficit, range(6))


def test_apply_trail_stamps_every_vertex_of_an_open_trail():
    # 0 -> 1 blue, 1 -> 2 red, 2 -> 3 blue on the path 0 - 1 - 2 - 3 - 4 - 5
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    m = KLimitedSubgraph.from_edges(g, 1, [1])
    before = m.deficit
    m.dead_starts[4] = (before, {3, 4, 5})
    m.apply_trail(Trail(g, (0, 2, 4)))
    assert m.deficit == before - 2
    assert m._changed == [before - 2] * 4 + [6, 6]
    assert touched_since(m, before) == {0, 1, 2, 3}
    assert not m.unchanged_since(*m.dead_starts[4])
    assert m.unchanged_since(before, [4, 5])
    assert m.unchanged_since(m.deficit, range(6))
    m.check_consistency()


def test_apply_trail_stamps_every_vertex_of_a_closed_trail():
    # closed walk at 0: 0 -> 1 blue (e0), 1 -> 2 red (e1), 2 -> 0 blue (e2)
    g = Graph(5, [(0, 1), (1, 2), (0, 2), (1, 3), (2, 4), (3, 4), (0, 3)])
    m = KLimitedSubgraph.from_edges(g, 2, [1, 3, 4])
    before = m.deficit
    hold_memo(m)
    m.apply_trail(Trail(g, (0, 2, 5)))
    assert touched_since(m, before) == {0, 1, 2}
    assert m.unchanged_since(before, [3, 4])
    assert not m.unchanged_since(before, [4, 0])
    m.check_consistency()


def test_augment_edge_stamps_both_endpoints():
    g = cycle_graph(6)
    m = KLimitedSubgraph(g, 1)
    hold_memo(m)
    m.augment_edge(2)  # 2 - 3
    assert m._changed == [6, 6, 4, 4, 6, 6]
    m.augment_edge(4)  # 4 - 5
    assert m._changed == [6, 6, 4, 4, 2, 2]
    assert m.unchanged_since(4, [0, 1, 2, 3])
    assert not m.unchanged_since(4, [5])
    assert not m.unchanged_since(6, [3])
    m.check_consistency()


def test_no_stamps_without_a_memo_and_later_memos_stay_exact():
    # with the memo empty no entry can go stale, so nothing is stamped; an
    # entry made afterwards sees every augmentation from then on
    g = cycle_graph(6)
    m = KLimitedSubgraph(g, 1)
    m.augment_edge(0)  # 0 - 1
    m.apply_trail(Trail(g, (4,)))  # 2 - 3
    assert m._changed == [6] * 6
    m.dead_starts[4] = (m.deficit, {3, 4})
    assert m.unchanged_since(*m.dead_starts[4])
    m.augment_edge(4)  # 4 - 5
    assert not m.unchanged_since(*m.dead_starts[4])
    assert m._changed == [6, 6, 6, 6, 0, 0]
    m.check_consistency()


def test_refusals_stamp_nothing():
    g = cycle_graph(6)
    m = KLimitedSubgraph(g, 1)
    hold_memo(m)
    m.augment_edge(0)  # 0 - 1
    snapshot = state(m)
    with pytest.raises(ValueError, match="endpoint 1 is filled"):
        m.augment_edge(1)  # 1 - 2
    with pytest.raises(ValueError, match="position 0 must be blue"):
        m.apply_trail(Trail(g, (0,)))
    with pytest.raises(ValueError, match="endpoint 1 is filled"):
        m.apply_trail(Trail(g, (3,)))  # 2 -> 1
    assert state(m) == snapshot


def test_copy_carries_the_clock_and_starts_with_an_empty_memo():
    g = cycle_graph(6)
    m = KLimitedSubgraph(g, 1)
    m.dead_starts[0] = (m.deficit, {0, 1, 5})
    m.augment_edge(2)  # 2 - 3
    c = m.copy()
    assert c._changed == m._changed and c._changed is not m._changed
    assert c.dead_starts == {}
    hold_memo(c)
    c.augment_edge(0)  # 0 - 1
    assert m._changed == [6, 6, 4, 4, 6, 6]
    assert c._changed == [2, 2, 4, 4, 6, 6]
    assert m.dead_starts == {0: (6, {0, 1, 5})}


def test_check_consistency_catches_a_clock_ahead_of_the_deficit():
    m = KLimitedSubgraph(cycle_graph(4), 1)
    hold_memo(m)
    m.augment_edge(0)
    m.check_consistency()
    m._changed[2] = 0
    with pytest.raises(AssertionError, match="change clock"):
        m.check_consistency()


def test_unchanged_since_tracks_every_augmentation():
    """Over random solves by both kinds of augmentation, with a memo entry held,
    unchanged_since(d, S) holds exactly when no augmentation since deficit d
    touched a vertex of S."""
    rng = random.Random(1616)
    checks = 0
    for _ in range(200):
        n = rng.randint(2, 8)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6]
        g = Graph(n, pairs)
        k = rng.randint(1, 3)
        m = random_klimited(g, k, rng) if rng.random() < 0.5 else KLimitedSubgraph(g, k)
        hold_memo(m)
        touched = {m.deficit: set()}  # deficit -> vertices touched since
        while True:
            trails = augmenting_trails(g, m)
            if not trails:
                break
            darts = rng.choice(trails)
            if len(darts) == 1 and rng.random() < 0.5:
                m.augment_edge(darts[0] >> 1)
            else:
                m.apply_trail(Trail(g, darts))
            vertices = set(Trail(g, darts).vertices())
            for seen in touched.values():
                seen |= vertices
            touched[m.deficit] = set()
            for d, seen in touched.items():
                some = set(rng.sample(range(n), rng.randint(0, n)))
                assert m.unchanged_since(d, some) == (not some & seen)
                checks += 1
        m.check_consistency()
    assert checks > 500


# ---------------------------------------------------------------------------
# factor documents


def test_serialize_factor_sorted_pairs():
    g = Graph(4, [(2, 3), (0, 1)])
    assert serialize_factor(g, [0, 1]) == "0 1\n2 3\n"


def test_parse_factor_round_trip():
    g = complete_graph(4)
    text = serialize_factor(g, [5, 0])
    assert parse_factor(g, text) == [0, 5]


def test_parse_factor_accepts_comments():
    g = square()
    assert parse_factor(g, "# note\n\n0 1\n") == [0]


@pytest.mark.parametrize("ch", ["\x0c", "\x85", "\u2028"])
def test_parse_factor_ends_lines_at_newline_only(ch):
    g = Graph(4, [(0, 1), (2, 3), (1, 2)])
    assert parse_factor(g, f"# c{ch}1 2\r\n0 1\r\n2 3\n") == [0, 1]
    with pytest.raises(GraphFormatError) as info:
        parse_factor(g, f"0 1\n2 3{ch}1 2\n")
    assert info.value.line == 2 and "expected" in str(info.value)


@pytest.mark.parametrize(
    "text, line, fragment",
    [
        ("0 1 2\n", 1, "expected edge line"),
        ("0 x\n", 1, "must be integers"),
        ("0 9\n", 1, "out of range"),
        ("0 2\n", 1, "unknown edge"),
        ("0 1\n1 0\n", 2, "listed twice"),
    ],
)
def test_parse_factor_errors(text, line, fragment):
    g = square()
    with pytest.raises(GraphFormatError) as info:
        parse_factor(g, text)
    assert info.value.line == line and fragment in str(info.value)
