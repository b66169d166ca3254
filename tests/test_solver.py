"""Tests for the solve loop, prechecks, verification, and the bipartite path."""

from __future__ import annotations

import random

import pytest

from kfactor import (
    FACTOR_FOUND,
    INFEASIBLE_PRECHECK,
    NO_FACTOR,
    Graph,
    KLimitedSubgraph,
    SolveOutcome,
    Trail,
    compute_bipartite_k_factor,
    compute_k_factor,
    feasibility_precheck,
    two_coloring,
    verify_factor,
)
from kfactor import find_augmenting_trail, solver
from kfactor.oracle import brute_force_k_factor, enumerate_graphs, random_gnp

from bruteforce import (
    augmenting_trails,
    bowtie_graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    has_factor,
    path_graph,
    petersen_graph,
    star_graph,
)


def random_bipartite(a: int, b: int, p: float, rng: random.Random) -> Graph:
    edges = [(i, a + j) for i in range(a) for j in range(b) if rng.random() < p]
    return Graph(a + b, edges)


# ---------------------------------------------------------------------------
# feasibility_precheck


@pytest.mark.parametrize("k", [0, -3])
def test_precheck_rejects_nonpositive_k(k):
    with pytest.raises(ValueError, match="k must be a positive integer"):
        feasibility_precheck(cycle_graph(4), k)


def test_precheck_passes():
    assert feasibility_precheck(cycle_graph(5), 2) is None
    assert feasibility_precheck(complete_graph(4), 3) is None
    assert feasibility_precheck(Graph(0, []), 5) is None


@pytest.mark.parametrize(
    "g,k,expected",
    [
        (star_graph(3), 2, "minimum degree 1 is below k = 2"),
        (cycle_graph(5), 3, "k*n = 15 is odd; minimum degree 2 is below k = 3"),
        (path_graph(2), 2, "k = 2 exceeds n - 1 = 1; minimum degree 1 is below k = 2"),
        (
            Graph(3, [(0, 1)]),
            3,
            "k*n = 9 is odd; k = 3 exceeds n - 1 = 2; minimum degree 0 is below k = 3",
        ),
    ],
)
def test_precheck_reports_all_failures(g, k, expected):
    assert feasibility_precheck(g, k) == expected


# ---------------------------------------------------------------------------
# compute_k_factor on named instances


def test_cycle_is_its_own_two_factor():
    g = cycle_graph(6)
    out = compute_k_factor(g, 2)
    assert out.status == FACTOR_FOUND
    assert out.factor == list(range(6))
    assert out.stats.augmentations == 6
    assert out.reason is None


def test_complete_four_three_factor_is_everything():
    out = compute_k_factor(complete_graph(4), 3)
    assert out.status == FACTOR_FOUND
    assert out.factor == list(range(6))


def test_petersen_has_perfect_matching_and_two_factor():
    g = petersen_graph()
    for k in (1, 2):
        out = compute_k_factor(g, k)
        assert out.status == FACTOR_FOUND
        assert len(out.factor) == k * 5
        ok, report = verify_factor(g, k, out.factor)
        assert ok and report == {}
        assert out.stats.augmentations == k * 5


def test_bowtie_has_no_two_factor():
    # both triangles would need to pass through the shared vertex
    out = compute_k_factor(bowtie_graph(), 2)
    assert out.status == NO_FACTOR
    assert out.factor is None
    assert out.reason == "trail search exhausted"


def test_star_fails_precheck():
    out = compute_k_factor(star_graph(3), 2)
    assert out.status == INFEASIBLE_PRECHECK
    assert out.factor is None
    assert out.reason == "minimum degree 1 is below k = 2"


def test_odd_cycle_three_factor_fails_precheck():
    out = compute_k_factor(cycle_graph(5), 3)
    assert out.status == INFEASIBLE_PRECHECK
    assert "odd" in out.reason and "minimum degree" in out.reason


def test_empty_graph_solves_vacuously():
    out = compute_k_factor(Graph(0, []), 3)
    assert out.status == FACTOR_FOUND
    assert out.factor == []
    assert out.stats.augmentations == 0


def test_stats_are_populated():
    out = compute_k_factor(petersen_graph(), 2)
    assert out.stats.augmentations == 10
    assert out.stats.trails_examined >= out.stats.augmentations
    assert out.stats.blossom_operations >= 0
    assert out.stats.elapsed_s > 0


def test_stats_report_the_deficit_left():
    assert compute_k_factor(cycle_graph(6), 2).stats.deficit == 0
    # the bowtie stops one augmentation short: deficit 10 - 2 * 4
    out = compute_k_factor(bowtie_graph(), 2)
    assert (out.status, out.stats.augmentations, out.stats.deficit) == (NO_FACTOR, 4, 2)
    out = compute_k_factor(star_graph(3), 2)
    assert (out.status, out.stats.deficit) == (INFEASIBLE_PRECHECK, 2 * 4)


def circulant_bipartite(half: int, d: int) -> Graph:
    """d-regular bipartite host: left i joined to right half + (i + j) % half, j < d."""
    return Graph(2 * half, [(i, half + (i + j) % half) for i in range(half) for j in range(d)])


@pytest.mark.parametrize("solve", [compute_k_factor, compute_bipartite_k_factor])
@pytest.mark.parametrize("g", [cycle_graph(6), circulant_bipartite(8, 4)], ids=["c6", "bip4"])
def test_solve_never_copies_the_state(solve, g, monkeypatch):
    def refuse(self):
        raise AssertionError("the solve loop copied its state")
    monkeypatch.setattr(KLimitedSubgraph, "copy", refuse)
    out = solve(g, 2)
    assert out.status == FACTOR_FOUND
    assert verify_factor(g, 2, out.factor) == (True, {})
    assert out.stats.augmentations == g.n


def test_outcomes_do_not_share_stats():
    a = SolveOutcome("x", None)
    b = SolveOutcome("y", None)
    a.stats.augmentations = 7
    assert b.stats.augmentations == 0


def test_trace_accepted_once_per_augmentation():
    events = []
    out = compute_k_factor(cycle_graph(8), 2, trace=lambda *a: events.append(a))
    accepted = [e for e in events if e[0] == "accepted"]
    assert len(accepted) == out.stats.augmentations == 8


def test_solver_agrees_with_bruteforce_randomized():
    rng = random.Random(501)
    solved = 0
    for _ in range(200):
        n = rng.randint(2, 7)
        g = random_gnp(n, rng.uniform(0.2, 0.9), rng)
        k = rng.randint(1, 3)
        out = compute_k_factor(g, k)
        if out.status == FACTOR_FOUND:
            ok, report = verify_factor(g, k, out.factor)
            assert ok, report
            assert has_factor(g, k)
        else:
            assert not has_factor(g, k)
        solved += 1
    assert solved == 200


def test_layered_engine_agrees_with_bruteforce_at_k1_on_all_5_and_6_vertex_graphs():
    # compute_k_factor runs the blossom search at k = 1, so the layered
    # engine is driven through the solve loop here. Every 5-vertex host
    # fails the precheck (k*n is odd); the 6-vertex hosts reach the search.
    counts = {FACTOR_FOUND: 0, NO_FACTOR: 0, INFEASIBLE_PRECHECK: 0}
    for n in (5, 6):
        for g in enumerate_graphs(n):
            out = solver._solve(g, 1, find_augmenting_trail, None)
            counts[out.status] += 1
            assert (out.status == FACTOR_FOUND) == (brute_force_k_factor(g, 1) is not None)
            if out.factor is not None:
                assert verify_factor(g, 1, out.factor) == (True, {})
    assert min(counts.values()) > 0


# ---------------------------------------------------------------------------
# verify_factor


def test_verify_factor_accepts_exact():
    g = cycle_graph(6)
    assert verify_factor(g, 2, range(6)) == (True, {})


def test_verify_factor_reports_offending_degrees():
    g = cycle_graph(6)
    ok, report = verify_factor(g, 2, [0, 1])
    assert not ok
    # vertex 1 has both its edges and is silent; everyone else is listed
    assert report == {0: 1, 2: 1, 3: 0, 4: 0, 5: 0}


def test_verify_factor_empty_set():
    g = path_graph(3)
    ok, report = verify_factor(g, 1, [])
    assert not ok and report == {0: 0, 1: 0, 2: 0}


@pytest.mark.parametrize("bad", [9, -1])
def test_verify_factor_unknown_edge(bad):
    with pytest.raises(ValueError, match=f"unknown edge id {bad}"):
        verify_factor(cycle_graph(4), 2, [0, bad])


def test_verify_factor_duplicate_edge():
    with pytest.raises(ValueError, match="edge id 0 listed twice"):
        verify_factor(cycle_graph(4), 2, [0, 0])


# ---------------------------------------------------------------------------
# two_coloring


def test_two_coloring_even_cycle():
    assert two_coloring(cycle_graph(4)) == [0, 1, 0, 1]


def test_two_coloring_odd_cycle_fails():
    assert two_coloring(cycle_graph(5)) is None
    assert two_coloring(bowtie_graph()) is None


def test_two_coloring_covers_components_and_isolates():
    g = Graph(5, [(0, 1), (2, 3)])
    colors = two_coloring(g)
    assert len(colors) == 5 and set(colors) <= {0, 1}
    for u, v in g.endpoints:
        assert colors[u] != colors[v]


def test_two_coloring_complete_bipartite_sides():
    colors = two_coloring(complete_bipartite(3, 4))
    assert len(set(colors[:3])) == 1 and len(set(colors[3:])) == 1
    assert colors[0] != colors[3]


# ---------------------------------------------------------------------------
# compute_bipartite_k_factor


def test_bipartite_refuses_odd_cycle():
    with pytest.raises(ValueError, match="graph is not bipartite"):
        compute_bipartite_k_factor(cycle_graph(5), 2)


def test_bipartite_solves_complete_bipartite_all_k():
    g = complete_bipartite(3, 3)
    for k in (1, 2, 3):
        out = compute_bipartite_k_factor(g, k)
        assert out.status == FACTOR_FOUND
        ok, report = verify_factor(g, k, out.factor)
        assert ok, report
    assert compute_bipartite_k_factor(g, 3).factor == list(range(9))


def test_bipartite_path_matching():
    out = compute_bipartite_k_factor(path_graph(4), 1)
    assert out.status == FACTOR_FOUND
    assert out.factor == [0, 2]


def test_bipartite_star_has_no_perfect_matching():
    out = compute_bipartite_k_factor(star_graph(3), 1)
    assert out.status == NO_FACTOR
    assert out.reason == "trail search exhausted"


def test_bipartite_precheck_still_runs():
    out = compute_bipartite_k_factor(star_graph(3), 2)
    assert out.status == INFEASIBLE_PRECHECK
    assert out.reason == "minimum degree 1 is below k = 2"


def test_bipartite_empty_graph():
    out = compute_bipartite_k_factor(Graph(0, []), 2)
    assert out.status == FACTOR_FOUND and out.factor == []


def test_bipartite_paths_are_vertex_simple():
    g = complete_bipartite(4, 4)
    events = []
    out = compute_bipartite_k_factor(g, 3, trace=lambda *a: events.append(a))
    assert out.status == FACTOR_FOUND
    accepted = [e for e in events if e[0] == "accepted"]
    assert len(accepted) == out.stats.augmentations == 12
    assert out.stats.trails_examined == out.stats.augmentations
    assert out.stats.blossom_operations == 0
    for e in accepted:
        darts = e[1:]
        vs = [g.dart_tails[darts[0]]] + [g.dart_heads[d] for d in darts]
        assert len(set(vs)) == len(vs)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_bipartite_starts_from_least_unfilled_vertex_with_a_trail(k):
    """Replay every 3+3 bipartite host: each accepted path starts at the least
    unfilled vertex from which the brute-force enumeration finds a trail."""
    full = complete_bipartite(3, 3)
    replayed = 0
    for bits in range(1 << full.m):
        g = Graph(6, [full.endpoints[e] for e in range(full.m) if bits >> e & 1])
        events = []
        compute_bipartite_k_factor(g, k, trace=lambda *a: events.append(a))
        m = KLimitedSubgraph(g, k)
        for event, *darts in events:
            assert event == "accepted"
            starts = {g.dart_tails[t[0]] for t in augmenting_trails(g, m)}
            assert g.dart_tails[darts[0]] == min(starts)
            m.apply_trail(Trail(g, tuple(darts)))
            replayed += 1
    assert replayed >= 3 * k  # K(3,3) alone takes 3k augmentations


def first_shortest_trail(g: Graph, m: KLimitedSubgraph) -> tuple[int, ...] | None:
    """The path the bipartite engine must take next, from brute force: of the
    trails from the least start that has one, a shortest, and of those the
    least dart sequence. None when no augmenting trail exists."""
    trails = augmenting_trails(g, m)
    if not trails:
        return None
    start = min(g.dart_tails[t[0]] for t in trails)
    return min((t for t in trails if g.dart_tails[t[0]] == start), key=lambda t: (len(t), t))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_bipartite_takes_the_first_shortest_trail_on_shuffled_4_4_hosts(k):
    """Sampled 4+4 hosts with shuffled vertex labels and edge ids, so that dart
    id order differs from head vertex order: every accepted path, in place or
    returned, is exactly first_shortest_trail, and the solve stops only when no
    augmenting trail is left."""
    rng = random.Random(1500 + k)
    full = complete_bipartite(4, 4)
    replayed = longer = no_factor = 0
    for _ in range(40):
        label = list(range(8))
        rng.shuffle(label)
        pairs = [(label[u], label[v]) for u, v in full.endpoints if rng.random() < 0.75]
        rng.shuffle(pairs)
        g = Graph(8, pairs)
        events = []
        out = compute_bipartite_k_factor(g, k, trace=lambda *a: events.append(a))
        if out.status == INFEASIBLE_PRECHECK:
            continue
        m = KLimitedSubgraph(g, k)
        for event, *darts in events:
            assert event == "accepted"
            assert tuple(darts) == first_shortest_trail(g, m)
            m.apply_trail(Trail(g, tuple(darts)))
            replayed += 1
            longer += len(darts) > 1
        if out.status == NO_FACTOR:
            assert first_shortest_trail(g, m) is None
            no_factor += 1
        else:
            assert m.deficit == 0
    assert replayed >= 40 and longer > 0
    # at k = 3 a host that passes the precheck misses at most a matching of
    # K(4,4), which extends to a perfect matching, so a 3-factor always exists
    assert no_factor > 0 or k == 3


def test_augmentation_counts_agree_on_both_engines():
    """On random hosts, factor or not: 2 * augmentations + deficit = k * n, one
    accepted event per augmentation, and the bipartite engine extracts exactly
    the trails it augments along."""
    rng = random.Random(1515)
    statuses = set()
    for i in range(300):
        k = rng.randint(1, 3)
        if i % 2:
            g = random_bipartite(rng.randint(1, 6), rng.randint(1, 6), rng.uniform(0.4, 1.0), rng)
            engines = [compute_k_factor, compute_bipartite_k_factor]
        else:
            g = random_gnp(rng.randint(1, 8), rng.uniform(0.3, 0.9), rng)
            engines = [compute_k_factor]
        for solve in engines:
            events = []
            out = solve(g, k, trace=lambda *a: events.append(a))
            stats = out.stats
            assert 2 * stats.augmentations + stats.deficit == k * g.n
            assert sum(e[0] == "accepted" for e in events) == stats.augmentations
            if solve is compute_bipartite_k_factor:
                assert stats.trails_examined == stats.augmentations
            statuses.add(out.status)
    assert statuses == {FACTOR_FOUND, NO_FACTOR, INFEASIBLE_PRECHECK}


@pytest.mark.parametrize("solve", [compute_k_factor, compute_bipartite_k_factor])
def test_solve_loop_refuses_a_bad_trail(solve, monkeypatch):
    # darts 0 and 2 chain 0 -> 1 -> 2 on C4: an even trail, never augmenting
    bad = lambda g, m, *rest: Trail(g, (0, 2))  # noqa: E731
    monkeypatch.setattr(solver, "find_augmenting_trail", bad)
    monkeypatch.setattr(solver, "_bfs_augmenting_path", bad)
    with pytest.raises(AssertionError, match="trail length must be odd"):
        solve(cycle_graph(4), 2)


def test_bipartite_agrees_with_general_solver_randomized():
    rng = random.Random(502)
    for _ in range(150):
        a = rng.randint(1, 4)
        b = rng.randint(1, 4)
        g = random_bipartite(a, b, rng.uniform(0.3, 1.0), rng)
        k = rng.randint(1, 3)
        fast = compute_bipartite_k_factor(g, k)
        slow = compute_k_factor(g, k)
        assert fast.status == slow.status
        if fast.status == FACTOR_FOUND:
            ok, report = verify_factor(g, k, fast.factor)
            assert ok, report
            assert has_factor(g, k)
        elif fast.status == NO_FACTOR:
            assert not has_factor(g, k)
