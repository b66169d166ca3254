"""Tests for the brute-force oracle and the instance generators.

The oracle itself is checked against an even dumber reference: the full
2^m subset scan in bruteforce.py. If those two disagree, nothing else in
the differential harness can be trusted.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from kfactor import Graph
from kfactor.oracle import (
    DEFAULT_EDGE_CAP,
    brute_force_k_factor,
    enumerate_graphs,
    is_valid_factor,
    random_gnp,
    random_regular,
    vertex_pairs,
)

from bruteforce import all_factors, complete_graph, cycle_graph, path_graph, star_graph


# ---------------------------------------------------------------------------
# is_valid_factor


def test_is_valid_factor_accepts_and_rejects():
    g = cycle_graph(4)
    assert is_valid_factor(g, 2, [0, 1, 2, 3])
    assert is_valid_factor(g, 1, [0, 2])
    assert not is_valid_factor(g, 1, [0, 1])
    assert not is_valid_factor(g, 2, [0, 1, 2])
    assert not is_valid_factor(g, 1, [0, 0])
    assert not is_valid_factor(g, 1, [0, 9])
    assert not is_valid_factor(g, 1, [0, -1])
    assert is_valid_factor(Graph(0, []), 3, [])


# ---------------------------------------------------------------------------
# brute_force_k_factor


def test_oracle_rejects_nonpositive_k():
    with pytest.raises(ValueError, match="k must be a positive integer"):
        brute_force_k_factor(cycle_graph(4), 0)


def test_oracle_refuses_oversized_instances():
    g = complete_graph(8)  # 28 edges
    with pytest.raises(ValueError, match="instance has 28 edges, oracle cap is 24"):
        brute_force_k_factor(g, 1)
    # a higher cap lets it through
    assert brute_force_k_factor(g, 1, edge_cap=28) is not None


def test_oracle_named_answers():
    assert brute_force_k_factor(cycle_graph(6), 2) == [0, 1, 2, 3, 4, 5]
    assert brute_force_k_factor(complete_graph(4), 2) == [0, 1, 4, 5]
    assert brute_force_k_factor(complete_graph(4), 3) == [0, 1, 2, 3, 4, 5]
    assert brute_force_k_factor(star_graph(3), 2) is None
    assert brute_force_k_factor(path_graph(4), 1) == [0, 2]
    assert brute_force_k_factor(Graph(0, []), 2) == []


def test_oracle_returns_lexicographically_least():
    rng = random.Random(601)
    for _ in range(150):
        n = rng.randint(2, 6)
        g = random_gnp(n, rng.uniform(0.3, 1.0), rng)
        k = rng.randint(1, 3)
        got = brute_force_k_factor(g, k)
        everything = all_factors(g, k)
        if everything:
            assert got == list(everything[0])
        else:
            assert got is None


def test_oracle_exhaustive_small():
    for n in range(5):
        for g in enumerate_graphs(n):
            for k in (1, 2, 3):
                got = brute_force_k_factor(g, k)
                hits = all_factors(g, k)
                assert (got is None) == (not hits)
                if got is not None:
                    assert got == list(hits[0])


# The 18 graphs on 6 vertices that have a 2-factor the layered trail search
# misses (`kfactor difftest --exhaustive 6 --k 2` reports solver_missed=18).
# Each entry lists the edges as digit pairs, in edge-id order. Only the
# oracle is asserted here; the solver is not yet exact on them.
MISSED_2_FACTORS_N6 = [
    "01 02 03 04 05 13 14 15 23 34",
    "01 02 03 04 05 13 23 24 25 34",
    "01 02 04 05 13 14 15 23 25",
    "01 02 04 05 13 14 15 23 34",
    "01 02 04 05 13 23 24 25 34",
    "01 02 13 14 15 23 24 34 35",
    "01 03 04 05 12 13 14 15 23 35",
    "01 03 04 05 12 14 15 23 24",
    "01 03 04 05 12 14 15 23 35",
    "01 03 04 05 12 23 24 34 35",
    "01 03 12 13 14 15 23 24 25 34",
    "01 03 12 14 15 23 24 25 34",
    "02 03 04 05 12 13 14 24 25",
    "02 03 04 05 12 13 14 34 35",
    "02 03 04 05 12 13 23 24 25 35",
    "02 03 04 05 12 13 24 25 35",
    "02 03 12 13 14 15 23 24 25 35",
    "02 03 12 13 14 15 24 25 35",
]


@pytest.mark.parametrize("edges", MISSED_2_FACTORS_N6)
def test_oracle_finds_the_missed_2_factors_on_6_vertices(edges):
    g = Graph(6, [(int(p[0]), int(p[1])) for p in edges.split()])
    got = brute_force_k_factor(g, 2)
    assert got is not None and is_valid_factor(g, 2, got)
    assert got == list(all_factors(g, 2)[0])


# ---------------------------------------------------------------------------
# enumeration


def test_vertex_pairs_is_lexicographic():
    assert vertex_pairs(4) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert vertex_pairs(1) == []
    assert vertex_pairs(0) == []


@pytest.mark.parametrize("n,count", [(0, 1), (1, 1), (2, 2), (3, 8), (4, 64)])
def test_enumerate_graphs_counts(n, count):
    graphs = list(enumerate_graphs(n))
    assert len(graphs) == count
    assert graphs[0].m == 0
    assert graphs[-1].m == n * (n - 1) // 2
    # no duplicates: the edge sets are pairwise distinct
    seen = {tuple(g.endpoints) for g in graphs}
    assert len(seen) == count


def test_enumerate_graphs_caps():
    with pytest.raises(ValueError, match="capped at n = 6"):
        next(enumerate_graphs(7))
    with pytest.raises(ValueError, match="must be non-negative"):
        next(enumerate_graphs(-1))


# ---------------------------------------------------------------------------
# random models


def test_random_gnp_extremes():
    rng = random.Random(0)
    assert random_gnp(5, 0.0, rng).m == 0
    full = random_gnp(5, 1.0, rng)
    assert full.m == 10
    with pytest.raises(ValueError, match=r"p must lie in \[0, 1\]"):
        random_gnp(5, 1.5, rng)


def test_random_gnp_is_seed_deterministic():
    a = random_gnp(8, 0.4, random.Random(7))
    b = random_gnp(8, 0.4, random.Random(7))
    assert a.endpoints == b.endpoints


def test_random_regular_is_regular():
    rng = random.Random(602)
    for n, d in [(6, 3), (10, 4), (50, 6), (7, 2)]:
        g = random_regular(n, d, rng)
        assert g.n == n
        assert all(g.degree(v) == d for v in range(n))
        # simple graph: no duplicate edges (Graph would raise), sane count
        assert g.m == n * d // 2


def test_random_regular_zero_degree():
    g = random_regular(4, 0, random.Random(0))
    assert g.n == 4 and g.m == 0


@pytest.mark.parametrize(
    "n,d,msg",
    [
        (4, 4, "degree d = 4 must satisfy 0 <= d < n = 4"),
        (4, -1, "degree d = -1 must satisfy"),
        (5, 3, r"n \* d must be even"),
    ],
)
def test_random_regular_rejects_bad_parameters(n, d, msg):
    with pytest.raises(ValueError, match=msg):
        random_regular(n, d, random.Random(0))


def test_random_regular_varies_with_seed():
    graphs = {random_regular(12, 3, random.Random(s)).endpoints for s in range(6)}
    assert len(graphs) > 1


def test_default_edge_cap_value():
    # the difftest harness and CLI both lean on this constant
    assert DEFAULT_EDGE_CAP == 24
    assert complete_graph(7).m == 21 <= DEFAULT_EDGE_CAP
