"""Tests for the solve loop, prechecks, verification, and the bipartite path."""

from __future__ import annotations

import random

import pytest

from kfactor import (
    FACTOR_FOUND,
    INFEASIBLE_PRECHECK,
    NO_FACTOR,
    Graph,
    SolveOutcome,
    Trail,
    compute_bipartite_k_factor,
    compute_k_factor,
    feasibility_precheck,
    two_coloring,
    verify_factor,
)
from kfactor import solver
from kfactor.oracle import random_gnp

from bruteforce import (
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


def test_bipartite_rejects_bad_supplied_partition():
    g = cycle_graph(4)
    with pytest.raises(ValueError, match=r"edge \(0, 1\) lies inside one part"):
        compute_bipartite_k_factor(g, 2, bipartition=[0, 0, 1, 1])
    with pytest.raises(ValueError, match="must assign 0 or 1 to every vertex"):
        compute_bipartite_k_factor(g, 2, bipartition=[0, 1])
    with pytest.raises(ValueError, match="must assign 0 or 1 to every vertex"):
        compute_bipartite_k_factor(g, 2, bipartition=[0, 1, 2, 1])


def test_bipartite_solves_complete_bipartite_all_k():
    g = complete_bipartite(3, 3)
    for k in (1, 2, 3):
        out = compute_bipartite_k_factor(g, k)
        assert out.status == FACTOR_FOUND
        ok, report = verify_factor(g, k, out.factor)
        assert ok, report
    assert compute_bipartite_k_factor(g, 3).factor == list(range(9))


def test_bipartite_accepts_valid_supplied_partition():
    out = compute_bipartite_k_factor(cycle_graph(4), 2, bipartition=[0, 1, 0, 1])
    assert out.status == FACTOR_FOUND
    assert out.factor == list(range(4))


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
