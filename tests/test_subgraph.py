"""Degree-limited subgraphs, trail validation, and trail application."""

from __future__ import annotations

import random

import pytest

from bruteforce import augmenting_trails, cycle_graph, complete_graph, planted_state, random_klimited
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


def test_replace_edges_sets_the_member_set_in_place():
    g = square()
    m = KLimitedSubgraph.from_edges(g, 2, [0, 1])
    in_m, deg = m.in_m, m.deg
    m.replace_edges([3, 2, 0])
    assert m.member_edges() == [0, 2, 3]
    assert m.deg == [2, 1, 1, 2] and m.deficit == 2
    assert m.in_m is in_m and m.deg is deg
    m.check_consistency()


@pytest.mark.parametrize(
    "edges, fragment",
    [
        ([9], "unknown edge id"),
        ([0, 0], "listed twice"),
        ([0, 1, 3], "past degree 1"),
    ],
)
def test_replace_edges_refusal_changes_nothing(edges, fragment):
    m = KLimitedSubgraph.from_edges(square(), 1, [1])
    before = (set(m.in_m), list(m.deg), m.deficit)
    with pytest.raises(ValueError, match=fragment):
        m.replace_edges(edges)
    assert (m.in_m, m.deg, m.deficit) == before


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
# augment_edge, the one-edge augmentation


def state(m: KLimitedSubgraph):
    return set(m.in_m), list(m.deg), m.deficit


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
    snapshot = state(m)
    with pytest.raises(ValueError, match=fragment):
        m.augment_edge(e)
    assert state(m) == snapshot
    m.check_consistency()


def test_augment_edge_matches_the_one_dart_trail():
    """Random accepted one-edge augmentations keep the state consistent and equal
    apply_trail on the one-dart trail; refused ones change nothing."""
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
            assert (m.in_m, m.deg, m.deficit) == (twin.in_m, twin.deg, twin.deficit)
            accepted += 1
    assert accepted > 300 and refused > 300


# ---------------------------------------------------------------------------
# augment_darts, the checked augmentation along a dart sequence

CLOSED = Graph(5, [(0, 1), (1, 2), (0, 2), (1, 3), (2, 4), (3, 4), (0, 3)])


@pytest.mark.parametrize(
    "g, k, member, darts",
    [
        (square(), 1, [], ()),  # empty: even length
        (square(), 1, [], (0, 2)),  # 0 -> 1 -> 2: even length
        (square(), 2, [0], (0, 2, 3)),  # edge (1, 2) twice
        (square(), 2, [1], (2,)),  # red at position 0
        (square(), 2, [], (0, 2, 4)),  # blue at position 1
        (square(), 2, [1], (0, 2, 4)),  # inner vertex 1 unfilled
        (square(), 1, [1], (0,)),  # endpoint 1 filled
        (CLOSED, 2, [1, 3, 4, 6], (0, 2, 5)),  # closed, deg(0) = k - 1
    ],
)
def test_augment_darts_refuses_each_clause_as_validate_does(g, k, member, darts):
    m = KLimitedSubgraph.from_edges(g, k, member)
    ok, why = m.validate_augmenting_trail(Trail(g, darts))
    assert not ok
    snapshot = state(m)
    with pytest.raises(ValueError) as info:
        m.augment_darts(darts)
    assert str(info.value) == f"not an augmenting trail: {why}"
    assert state(m) == snapshot
    # apply_trail refuses the same trail with the same message
    with pytest.raises(ValueError) as info:
        m.apply_trail(Trail(g, darts))
    assert str(info.value) == f"not an augmenting trail: {why}"
    assert state(m) == snapshot


@pytest.mark.parametrize("darts", [(8,), (-1,), (0, 9), (0, 4), (1, 0, 4)])
def test_augment_darts_makes_the_range_and_chain_checks_of_trail(darts):
    g = square()
    m = KLimitedSubgraph(g, 1)
    snapshot = state(m)
    with pytest.raises(ValueError) as expected:
        Trail(g, darts)
    with pytest.raises(ValueError) as info:
        m.augment_darts(darts)
    assert str(info.value) == str(expected.value)
    assert "out of range" in str(info.value) or "do not chain" in str(info.value)
    assert state(m) == snapshot


def test_apply_trail_refuses_a_foreign_trail_unchanged():
    g = square()
    m = KLimitedSubgraph(g, 1)
    snapshot = state(m)
    with pytest.raises(ValueError, match="different graph"):
        m.apply_trail(Trail(square(), (0,)))
    assert state(m) == snapshot


def test_augment_darts_equals_the_symmetric_difference():
    """On brute-force trails of random states, closed ones at k >= 3 included: the
    state after augment_darts is from_edges of M symmetric-difference the trail,
    and consistent."""
    rng = random.Random(2020)
    checked = closed = 0
    for _ in range(400):
        n = rng.randint(2, 7)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6]
        g = Graph(n, pairs)
        k = rng.randint(1, 4)
        if k >= 3 and rng.random() < 0.5:
            m = planted_state(g, k, rng.randrange(n), rng)
        else:
            m = random_klimited(g, k, rng)
        trails = augmenting_trails(g, m)
        closed_trails = [t for t in trails if g.dart_tails[t[0]] == g.dart_heads[t[-1]]]
        for darts in closed_trails[:5] + rng.sample(trails, min(10, len(trails))):
            out = m.copy()
            out.augment_darts(list(darts))
            want = KLimitedSubgraph.from_edges(g, k, m.in_m ^ {d >> 1 for d in darts})
            assert (out.in_m, out.deg, out.deficit) == (want.in_m, want.deg, want.deficit)
            assert out.deficit == m.deficit - 2
            out.check_consistency()
            checked += 1
            closed += k >= 3 and g.dart_tails[darts[0]] == g.dart_heads[darts[-1]]
    assert checked > 1000 and closed > 20


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
        ("0 1_0\n", 1, "must be integers"),
        ("0_0 1\n", 1, "must be integers"),
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


@pytest.mark.parametrize("text, bad", [("0 7\n", 7), ("7 0\n", 7), ("-1 2\n", -1), ("1 3\n", 3)])
def test_parse_factor_names_the_out_of_range_vertex(text, bad):
    g = Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(GraphFormatError) as info:
        parse_factor(g, text)
    assert str(info.value) == f"line 1: vertex index {bad} out of range for n = 3"
