"""Tests for the solve loop, prechecks, verification, and the bipartite path."""

from __future__ import annotations

import random
from collections import deque

import pytest

from kfactor import (
    FACTOR_FOUND,
    INFEASIBLE_PRECHECK,
    NO_FACTOR,
    Graph,
    KLimitedSubgraph,
    SolveOutcome,
    SolveStats,
    Trail,
    compute_bipartite_k_factor,
    compute_k_factor,
    edmonds_augmenting_path,
    feasibility_precheck,
    two_coloring,
    verify_factor,
)
from kfactor import search, solver
from kfactor.oracle import brute_force_k_factor, enumerate_graphs, random_gnp, random_regular

from bruteforce import (
    augmenting_trails,
    bowtie_graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    has_factor,
    path_graph,
    petersen_graph,
    random_klimited,
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
    # engine is passed to _solve here. Every 5-vertex host
    # fails the precheck (k*n is odd); the 6-vertex hosts reach the search.
    counts = {FACTOR_FOUND: 0, NO_FACTOR: 0, INFEASIBLE_PRECHECK: 0}
    for n in (5, 6):
        for g in enumerate_graphs(n):
            out = solver._solve(g, 1, solver._layered_augment, None)
            counts[out.status] += 1
            assert (out.status == FACTOR_FOUND) == (brute_force_k_factor(g, 1) is not None)
            if out.factor is not None:
                assert verify_factor(g, 1, out.factor) == (True, {})
    assert min(counts.values()) > 0


# ---------------------------------------------------------------------------
# the hand-off to Tutte's gadget


def test_layered_solve_finds_the_factor_the_layered_search_misses():
    g = random_regular(80, 4, random.Random(25))
    out = compute_k_factor(g, 2)
    assert out.status == FACTOR_FOUND
    assert verify_factor(g, 2, out.factor) == (True, {})


def test_friendship_host_fails_one_layered_search(monkeypatch):
    # a hub joined to 300 triangles through it, beside a 4-regular host: the
    # hub's degree 600 rules out a 2-factor. The layered search stops at its
    # first failed start and the gadget proves the answer, so the solve
    # builds no more failed layers than that one
    edges = [(0, a) for i in range(300) for a in (2 * i + 1, 2 * i + 2)]
    edges += [(2 * i + 1, 2 * i + 2) for i in range(300)]
    edges += [(u + 601, v + 601) for u, v in random_regular(1000, 4, random.Random(1)).endpoints]
    g = Graph(1601, edges)
    built = search.build_layers
    failed = []

    def spy(*args):
        out = built(*args)
        failed.append(out is None)
        return out

    monkeypatch.setattr(search, "build_layers", spy)
    assert compute_k_factor(g, 2).status == NO_FACTOR
    assert sum(failed) == 1


def test_gadget_completes_any_state_exactly():
    """From random k-limited states of small hosts, the gadget makes a k-factor
    exactly when one exists, and otherwise leaves the state as it was."""
    rng = random.Random(2701)
    found = 0
    for _ in range(300):
        n = rng.randint(2, 7)
        g = random_gnp(n, rng.uniform(0.3, 0.9), rng)
        k = rng.randint(1, 3)
        m = random_klimited(g, k, rng)
        before = (set(m.in_m), list(m.deg), m.deficit)
        solver._gadget_augment(g, m, SolveStats())
        m.check_consistency()
        if brute_force_k_factor(g, k) is not None:
            assert verify_factor(g, k, m.member_edges()) == (True, {})
            found += 1
        else:
            assert (m.in_m, m.deg, m.deficit) == before
    assert found > 50


def test_gadget_refusal_raises_assertion(monkeypatch):
    replace = KLimitedSubgraph.replace_edges

    def refuse_on_the_host(self, edges):
        if self.k == 2:
            raise ValueError("refused")
        replace(self, edges)

    monkeypatch.setattr(KLimitedSubgraph, "replace_edges", refuse_on_the_host)
    g = Graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (2, 3), (3, 4)])
    with pytest.raises(AssertionError, match="refused"):
        compute_k_factor(g, 2)


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


def reference_two_coloring(g: Graph) -> list[int] | None:
    """The first-in first-out queue form of two_coloring."""
    color = [-1] * g.n
    for root in range(g.n):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for d in g.adjacency[v]:
                w = g.dart_heads[d]
                if color[w] == -1:
                    color[w] = color[v] ^ 1
                    queue.append(w)
                elif color[w] == color[v]:
                    return None
    return color


def test_two_coloring_matches_the_queue_form():
    rng = random.Random(2021)
    bipartite = 0
    for _ in range(400):
        if rng.random() < 0.5:
            g = random_bipartite(rng.randint(0, 7), rng.randint(0, 7), rng.uniform(0.1, 0.8), rng)
            label = list(range(g.n))
            rng.shuffle(label)
            g = Graph(g.n, [(label[u], label[v]) for u, v in g.endpoints])
        else:
            g = random_gnp(rng.randint(0, 10), rng.uniform(0.05, 0.5), rng)
        want = reference_two_coloring(g)
        assert two_coloring(g) == want
        bipartite += want is not None
    assert 100 < bipartite < 400


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


def first_shortest_trail(g: Graph, m: KLimitedSubgraph) -> tuple[int, ...] | None:
    """The path the bipartite engine must take next, from brute force: of the
    trails from the least start that has one, a shortest, and of those the
    least dart sequence. None when no augmenting trail exists."""
    trails = augmenting_trails(g, m)
    if not trails:
        return None
    start = min(g.dart_tails[t[0]] for t in trails)
    return min((t for t in trails if g.dart_tails[t[0]] == start), key=lambda t: (len(t), t))


def is_maximal(g: Graph, m: KLimitedSubgraph) -> bool:
    """No one-edge augmenting trail: every blue edge has a filled endpoint."""
    k = m.k
    return all(e in m.in_m or m.deg[u] == k or m.deg[v] == k for e, (u, v) in enumerate(g.endpoints))


def replay_bipartite_solve(g: Graph, k: int, out: SolveOutcome, events) -> tuple[int, int]:
    """Replay a bipartite solve's accepted events on a fresh state, checking
    each at its moment: a one-dart event (the fill) is a valid one-edge trail,
    and all of them come first; when they end no one-edge augmenting trail is
    left; every longer path is exactly first_shortest_trail; the answer is
    the replayed state, and no_factor leaves no augmenting trail.
    Returns (events replayed, longer paths among them)."""
    m = KLimitedSubgraph(g, k)
    longer = 0
    for event, *darts in events:
        assert event == "accepted"
        trail = Trail(g, tuple(darts))
        if len(darts) == 1:
            assert longer == 0
            assert m.validate_augmenting_trail(trail) == (True, "ok")
        else:
            assert is_maximal(g, m)
            assert trail.darts == first_shortest_trail(g, m)
            longer += 1
        m.apply_trail(trail)
    if out.status == INFEASIBLE_PRECHECK:
        assert not events
        return 0, 0
    assert is_maximal(g, m)
    if out.status == NO_FACTOR:
        assert m.deficit > 0 and first_shortest_trail(g, m) is None
    else:
        assert m.deficit == 0 and out.factor == m.member_edges()
    return len(events), longer


def replay_search_without_fill(g: Graph, k: int, monkeypatch) -> tuple[str, int, int]:
    """Solve g with the fill patched out, so that the search takes every path
    from the empty state, and replay: every accepted path, in place or
    returned, is exactly first_shortest_trail, and no_factor leaves no
    augmenting trail. Returns (status, events replayed, longer paths)."""
    events = []
    with monkeypatch.context() as patch:
        patch.setattr(solver, "_karp_sipser_fill", lambda *args: None)
        out = compute_bipartite_k_factor(g, k, trace=lambda *a: events.append(a))
    m = KLimitedSubgraph(g, k)
    longer = 0
    for event, *darts in events:
        assert event == "accepted"
        assert tuple(darts) == first_shortest_trail(g, m)
        m.apply_trail(Trail(g, tuple(darts)))
        longer += len(darts) > 1
    if out.status == NO_FACTOR:
        assert first_shortest_trail(g, m) is None
    elif out.status == FACTOR_FOUND:
        assert m.deficit == 0
    return out.status, len(events), longer


@pytest.mark.parametrize("k", [1, 2, 3])
def test_bipartite_starts_from_least_unfilled_vertex_with_a_trail(k, monkeypatch):
    """Replay every 3+3 bipartite host as solved (replay_bipartite_solve) and
    with the fill patched out (replay_search_without_fill), where each
    accepted path starts at the least unfilled vertex from which the
    brute-force enumeration finds a trail."""
    full = complete_bipartite(3, 3)
    replayed = longer = 0
    for bits in range(1 << full.m):
        g = Graph(6, [full.endpoints[e] for e in range(full.m) if bits >> e & 1])
        events = []
        out = compute_bipartite_k_factor(g, k, trace=lambda *a: events.append(a))
        replayed += replay_bipartite_solve(g, k, out, events)[0]
        status, done, paths = replay_search_without_fill(g, k, monkeypatch)
        assert status == out.status
        assert done == len(events)
        longer += paths
    assert replayed >= 3 * k  # K(3,3) alone takes 3k augmentations
    # at k = 3 only K(3,3) itself passes the precheck, one edge at a time
    assert longer > 0 or k == 3


@pytest.mark.parametrize("k", [1, 2, 3])
def test_bipartite_takes_the_first_shortest_trail_on_shuffled_4_4_hosts(k, monkeypatch):
    """Sampled 4+4 hosts with shuffled vertex labels and edge ids, so that dart
    id order differs from head vertex order, replayed as solved and with the
    fill patched out: every accepted path is checked as replay_bipartite_solve
    and replay_search_without_fill say, and the solve stops only when no
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
        replay_bipartite_solve(g, k, out, events)
        if out.status == INFEASIBLE_PRECHECK:
            continue
        status, done, paths = replay_search_without_fill(g, k, monkeypatch)
        assert status == out.status
        replayed += done
        longer += paths
        no_factor += out.status == NO_FACTOR
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


def test_solve_loop_refuses_a_bad_trail(monkeypatch):
    # darts 0 and 2 chain 0 -> 1 -> 2 on C4: an even trail, never augmenting
    monkeypatch.setattr(solver, "find_augmenting_trail", lambda g, m, *rest: Trail(g, (0, 2)))
    with pytest.raises(AssertionError, match="trail length must be odd"):
        compute_k_factor(cycle_graph(4), 2)


def test_every_engine_augments_in_place_and_returns_none():
    """Called directly on a fresh state, each engine returns None, leaves a
    consistent state and traces one accepted event per augmentation; the
    two cursor engines extract exactly the paths they augment along."""
    rng = random.Random(2201)
    engines = {"edmonds": 0, "layered": 0, "bfs": 0}
    for i in range(240):
        name = list(engines)[i % 3]
        k = 1 if name == "edmonds" else rng.randint(1, 3)
        if name == "bfs":
            g = random_bipartite(rng.randint(1, 7), rng.randint(1, 7), rng.uniform(0.3, 1.0), rng)
            engine = solver._bfs_augmenting_path
        else:
            g = random_gnp(rng.randint(1, 9), rng.uniform(0.2, 0.9), rng)
            engine = edmonds_augmenting_path if name == "edmonds" else solver._layered_augment
        m = KLimitedSubgraph(g, k)
        stats = SolveStats()
        events = []
        assert engine(g, m, lambda *a: events.append(a), stats) is None
        m.check_consistency()
        done = (k * g.n - m.deficit) // 2
        assert sum(e[0] == "accepted" for e in events) == done
        if name != "layered":
            assert stats.trails_examined == done
        engines[name] += done
    assert min(engines.values()) > 100


def reference_alternating_path(g: Graph, m: KLimitedSubgraph, start: int) -> list[int] | None:
    """The first-in first-out queue form of solver._alternating_path."""
    parent = {start: -1}
    queue = deque([(start, True)])
    while queue:
        v, want_blue = queue.popleft()
        for d in g.adjacency[v]:
            if ((d >> 1) in m.in_m) == want_blue:
                continue
            w = g.dart_heads[d]
            if want_blue:
                if m.deg[w] < m.k:
                    darts = [d]
                    while v != start:
                        darts.append(parent[v])
                        v = g.dart_tails[parent[v]]
                    return darts[::-1]
                if w not in parent:
                    parent[w] = d
                    queue.append((w, False))
            elif m.deg[w] == m.k and w not in parent:
                parent[w] = d
                queue.append((w, True))
    return None


def test_alternating_path_matches_the_queue_form():
    """On random states of shuffled bipartite hosts, from every unfilled start,
    the search returns what the queue form returns."""
    rng = random.Random(2022)
    lengths = {}
    for _ in range(600):
        g = random_bipartite(rng.randint(4, 20), rng.randint(4, 20), rng.uniform(0.1, 0.4), rng)
        label = list(range(g.n))
        rng.shuffle(label)
        pairs = [(label[u], label[v]) for u, v in g.endpoints]
        rng.shuffle(pairs)
        g = Graph(g.n, pairs)
        k = rng.randint(1, 3)
        m = random_klimited(g, k, rng)
        if rng.random() < 0.5:  # fill it up to a maximal state, where paths are longer
            for e in rng.sample(range(g.m), g.m):
                u, v = g.endpoints[e]
                if e not in m.in_m and m.deg[u] < k and m.deg[v] < k:
                    m.augment_edge(e)
        for start in range(g.n):
            if m.deg[start] < k:
                path = solver._alternating_path(g, m, start)
                assert path == reference_alternating_path(g, m, start)
                size = len(path) if path else 0
                lengths[size] = lengths.get(size, 0) + 1
    # 0 stands for None
    assert lengths[0] > 1000 and lengths[1] > 500 and lengths[3] > 500 and lengths[5] > 80 and lengths[7] > 10


# A host on which a search still runs at k = 1 (no subgraph of K(3,3) needs
# one, at any k): the fill takes 0 - 5, which forces 2, 3, 6 and 7; 3 takes
# 3 - 4 and 7 takes 7 - 1, after which 2 and 6 have no one-edge augmentation
# left, and the search from 2 finds 2 - 5 - 0 - 6.
SEARCHED_HOST = [(0, 5), (0, 6), (0, 7), (1, 5), (1, 6), (1, 7), (2, 4), (2, 5), (3, 4), (3, 5)]


def test_bipartite_fill_leaves_one_path_on_the_searched_host():
    g = Graph(8, SEARCHED_HOST)
    events = []
    out = compute_bipartite_k_factor(g, 1, trace=lambda *a: events.append(a))
    assert [tuple(darts) for _, *darts in events] == [(0,), (16,), (11,), (14, 1, 2)]
    assert replay_bipartite_solve(g, 1, out, events) == (4, 1)


def test_bipartite_refused_path_raises_assertion(monkeypatch):
    """A path the bipartite engine takes is checked by augment_darts, and a
    refusal surfaces as AssertionError, not as the primitive's ValueError."""
    g = Graph(8, SEARCHED_HOST)
    starts = []

    def even_path(g, m, start):
        starts.append(start)
        return [14, 1]  # 2 -> 5 -> 0: vertex-simple, but of even length

    monkeypatch.setattr(solver, "_alternating_path", even_path)
    with pytest.raises(AssertionError, match="not an augmenting trail: trail length must be odd"):
        compute_bipartite_k_factor(g, 1)
    assert starts == [2]


def test_bipartite_engine_refuses_a_non_simple_path(monkeypatch):
    # 2 -> 5 -> 0 -> 5 revisits vertex 5 (and edge 0)
    monkeypatch.setattr(solver, "_alternating_path", lambda g, m, start: [14, 1, 0])
    with pytest.raises(AssertionError, match="non-simple path"):
        compute_bipartite_k_factor(Graph(8, SEARCHED_HOST), 1)


@pytest.mark.parametrize("solve", [compute_k_factor, compute_bipartite_k_factor])
def test_one_edge_refusal_raises_assertion(solve, monkeypatch):
    """A one-edge augmentation an engine takes is checked by augment_edge, and
    a refusal surfaces as AssertionError, not as the primitive's ValueError."""
    def refuse(self, e):
        raise ValueError(f"not an augmenting trail: edge {e} is red")

    monkeypatch.setattr(KLimitedSubgraph, "augment_edge", refuse)
    with pytest.raises(AssertionError, match="not an augmenting trail: edge 0 is red"):
        solve(cycle_graph(6), 1)


def test_fill_takes_forced_vertices_first():
    """_karp_sipser_fill on random bipartite hosts, replayed on a second state. avail[v] lists the blue darts from an
    unfilled v to unfilled vertices, and v is forced when 0 < len(avail[v])
    <= k - deg[v]. While some vertex is forced, each edge is a forced
    vertex's lowest avail dart, and that vertex goes on until its avail is
    empty; otherwise the least vertex with avail takes its lowest dart. The
    fill ends maximal and counts one extraction per edge."""
    rng = random.Random(2323)
    forced_edges = cursor_edges = 0
    for _ in range(300):
        g = random_bipartite(rng.randint(1, 8), rng.randint(1, 8), rng.uniform(0.2, 0.9), rng)
        k = rng.randint(1, 3)
        m = KLimitedSubgraph(g, k)
        replay = KLimitedSubgraph(g, k)
        stats = SolveStats()
        events = []
        assert solver._karp_sipser_fill(g, m, lambda *a: events.append(a), stats) is None
        taking = None  # the forced vertex whose edges are being taken
        for event, d in events:
            assert event == "accepted"
            avail = {
                v: [b for b in g.adjacency[v]
                    if (b >> 1) not in replay.in_m and replay.deg[g.dart_heads[b]] < k]
                for v in range(g.n) if replay.deg[v] < k
            }
            forced = {v for v, darts in avail.items() if 0 < len(darts) <= k - replay.deg[v]}
            v = g.dart_tails[d]
            if taking in forced:
                assert v == taking
            elif forced:
                assert v in forced
            else:
                assert v == min(u for u, darts in avail.items() if darts)
                cursor_edges += 1
            forced_edges += v in forced
            taking = v if v in forced else None
            assert d == avail[v][0]
            replay.augment_edge(d >> 1)
        assert replay.in_m == m.in_m
        assert is_maximal(g, m)
        assert stats.trails_examined == len(events)
        m.check_consistency()
    assert forced_edges > 800 and cursor_edges > 100


def test_fill_refuses_a_non_empty_state():
    g = cycle_graph(4)
    m = KLimitedSubgraph(g, 1)
    m.augment_edge(0)
    with pytest.raises(ValueError, match="empty subgraph"):
        solver._karp_sipser_fill(g, m)
    assert m.member_edges() == [0]


@pytest.mark.parametrize("sides", [(3, 3), (3, 4)], ids=["K33", "K34"])
def test_bipartite_agrees_with_brute_force_on_every_spanning_subgraph(sides):
    """Every spanning subgraph of K(a, b) at k = 1, 2, 3: the status agrees
    with brute_force_k_factor, and every factor found passes verify_factor.
    The sides of K(3,4) differ in size, so none of its subgraphs has a
    factor and every answer there is a proof of none; K(3,3) adds hosts
    that have one."""
    full = complete_bipartite(*sides)
    statuses = set()
    for bits in range(1 << full.m):
        g = Graph(full.n, [full.endpoints[e] for e in range(full.m) if bits >> e & 1])
        for k in (1, 2, 3):
            out = compute_bipartite_k_factor(g, k)
            assert (out.status == FACTOR_FOUND) == (brute_force_k_factor(g, k) is not None)
            if out.status == FACTOR_FOUND:
                assert verify_factor(g, k, out.factor) == (True, {})
            statuses.add(out.status)
    expected = {INFEASIBLE_PRECHECK, NO_FACTOR}
    assert statuses == (expected | {FACTOR_FOUND} if sides[0] == sides[1] else expected)


def test_bipartite_fill_leaves_few_path_searches():
    """A union of 4 random perfect matchings between two sides of 200
    vertices, solved at k = 2: the fill takes so much of the factor that at
    most 5% of the accepted augmentations are longer paths."""
    rng = random.Random(2300)
    half = 200
    edges: set[tuple[int, int]] = set()
    while len(edges) < 4 * half:
        right = rng.sample(range(half, 2 * half), half)
        matching = set(zip(range(half), right))
        if not matching & edges:
            edges |= matching
    g = Graph(2 * half, sorted(edges))
    events = []
    out = compute_bipartite_k_factor(g, 2, trace=lambda *a: events.append(a))
    assert out.status == FACTOR_FOUND
    assert len(events) == out.stats.augmentations == 2 * half
    longer = sum(len(darts) > 1 for _, *darts in events)
    assert longer <= 0.05 * len(events)


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
