"""Tests of the benchmark itself: generators, barrier certificate, answer checker, tracer.

Run from the repository root:

    python3 -m pytest -q perfbench/tests

None of these tests depends on what the solver answers today: answers
fed to the checker are written here, and factors are built here.
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import corpus
import layers
import run
from kfactor import cli, graph, oracle, search, solver, subgraph

PERFBENCH = Path(__file__).resolve().parent.parent

# the 28-vertex k = 1 host from the benchmark's motivation: hubs 0-6, seven
# triangles, hub i joined to one vertex of triangle i plus random triangles
HUBS_AND_TRIANGLES = (
    (0, 7), (0, 15), (0, 20), (0, 27), (1, 8), (1, 10), (1, 18), (1, 19), (2, 11),
    (2, 13), (2, 17), (2, 18), (3, 13), (3, 14), (3, 16), (3, 20), (4, 19), (4, 20),
    (4, 24), (4, 25), (5, 12), (5, 14), (5, 15), (5, 22), (6, 12), (6, 15), (6, 18),
    (6, 25), (7, 8), (7, 9), (8, 9), (10, 11), (10, 12), (11, 12), (13, 14), (13, 15),
    (14, 15), (16, 17), (16, 18), (17, 18), (19, 20), (19, 21), (20, 21), (22, 23),
    (22, 24), (23, 24), (25, 26), (25, 27), (26, 27),
)
HUBS_AND_TRIANGLES_MATCHING = (
    (0, 7), (8, 9), (1, 10), (11, 12), (2, 13), (14, 15), (3, 16), (17, 18),
    (4, 19), (20, 21), (5, 22), (23, 24), (6, 25), (26, 27),
)


def answer(status: str, factor=None) -> str:
    return json.dumps({"status": status, "factor": None if factor is None else [list(p) for p in factor]})


def degrees(n: int, edges) -> list[int]:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def assert_simple(edges) -> None:
    assert all(u < v for u, v in edges)
    assert len(set(edges)) == len(edges)


def euler_two_factor(n: int, edges) -> list[tuple[int, int]]:
    """A 2-factor of a 4-regular graph: Euler orientation, then a perfect matching of the split graph.

    Orienting each component along an Euler circuit gives every vertex out-
    and in-degree 2; a perfect matching between out-copies and in-copies
    then picks one arc out of and one arc into every vertex.
    """
    adjacency = [[] for _ in range(n)]
    for e, (u, v) in enumerate(edges):
        adjacency[u].append((v, e))
        adjacency[v].append((u, e))
    used = [False] * len(edges)
    arcs_out = [[] for _ in range(n)]
    for root in range(n):
        stack = [root]
        while stack:
            v = stack[-1]
            while adjacency[v] and used[adjacency[v][-1][1]]:
                adjacency[v].pop()
            if adjacency[v]:
                w, e = adjacency[v].pop()
                used[e] = True
                arcs_out[v].append(w)
                stack.append(w)
            else:
                stack.pop()
    mate_of_in: dict[int, int] = {}

    def augment(u: int, seen: set[int]) -> bool:
        for w in arcs_out[u]:
            if w not in seen:
                seen.add(w)
                if w not in mate_of_in or augment(mate_of_in[w], seen):
                    mate_of_in[w] = u
                    return True
        return False

    for u in range(n):
        assert augment(u, set())
    return [(min(u, w), max(u, w)) for w, u in mate_of_in.items()]


# --- generators -------------------------------------------------------------

def test_regular_host_is_simple_and_regular():
    edges = corpus.regular_host(40, 6, random.Random(3))
    assert_simple(edges)
    assert degrees(40, edges) == [6] * 40
    assert edges == corpus.regular_host(40, 6, random.Random(3))
    assert edges != corpus.regular_host(40, 6, random.Random(4))


def test_bipartite_host_is_simple_regular_and_crosses_sides():
    edges = corpus.bipartite_host(20, 4, random.Random(5))
    assert_simple(edges)
    assert degrees(40, edges) == [4] * 40
    assert all(u < 20 <= v for u, v in edges)


def test_barrier_host_shape_and_certificate():
    hubs, cliques, size = 5, 7, 3
    edges = corpus.barrier_host(hubs, cliques, size, 2, random.Random(1))
    assert_simple(edges)
    n = hubs + cliques * size
    clique_of = {hubs + c * size + a: c for c in range(cliques) for a in range(size)}
    hub_edges = [(u, v) for u, v in edges if u < hubs]
    assert all(v >= hubs for _, v in hub_edges), "hubs are joined only to cliques"
    assert Counter(u for u, _ in hub_edges) == {h: 2 for h in range(hubs)}
    assert {clique_of[v] for _, v in hub_edges} == set(range(cliques))
    inner = [(u, v) for u, v in edges if u >= hubs]
    assert all(clique_of[u] == clique_of[v] for u, v in inner)
    assert len(inner) == cliques * size * (size - 1) // 2
    assert corpus.odd_components_minus(n, edges, range(hubs)) == cliques
    assert corpus.tutte_barrier_certified(n, edges, range(hubs))


def test_barrier_host_needs_an_edge_per_clique():
    with pytest.raises(ValueError):
        corpus.barrier_host(2, 5, 5, 2, random.Random(0))


def test_odd_cliques_planted_matching_is_perfect():
    edges, planted = corpus.odd_cliques_host(10, 5, 2, random.Random(2))
    assert_simple(edges)
    inst = corpus.Instance(60, 1, tuple(edges), has_factor=True)
    assert corpus.check_answer(inst, 0, answer("factor_found", planted))[1] is None
    assert degrees(60, edges)[:10] == [3] * 10


@pytest.mark.parametrize("name, n, k, has_factor", [
    ("regular", 1000, 2, True),
    ("barrier", 310, 1, False),
    ("odd_cliques", 600, 1, True),
    ("bipartite", 1000, 2, True),
    ("bipartite_general", 1000, 2, True),
])
def test_workload_instances(name, n, k, has_factor):
    make, family, _ = corpus.WORKLOADS[name]
    inst = make(random.Random(f"{family}:7:0"))
    assert (inst.n, inst.k, inst.has_factor) == (n, k, has_factor)
    assert_simple(inst.edges)
    assert inst == make(random.Random(f"{family}:7:0"))
    parsed = graph.parse_graph(inst.edge_list_text())
    assert (parsed.n, parsed.endpoints) == (inst.n, inst.edges)


def test_every_corpus_puts_ten_instances_beyond_p90():
    assert all(count >= 100 for _, _, count in corpus.WORKLOADS.values())


def test_corpus_is_seeded_and_engines_share_hosts(monkeypatch):
    monkeypatch.setitem(corpus.WORKLOADS, "bipartite", (*corpus.WORKLOADS["bipartite"][:2], 3))
    monkeypatch.setitem(corpus.WORKLOADS, "bipartite_general", (*corpus.WORKLOADS["bipartite_general"][:2], 3))
    first = corpus.build_corpus("bipartite", 11)
    assert first == corpus.build_corpus("bipartite", 11)
    assert first != corpus.build_corpus("bipartite", 12)
    general = corpus.build_corpus("bipartite_general", 11)
    assert [i.edges for i in general] == [i.edges for i in first]
    assert all(i.bipartite for i in first) and not any(i.bipartite for i in general)


# --- barrier certificate ------------------------------------------------------

def test_certificate_on_known_graphs():
    star = [(0, 1), (0, 2), (0, 3)]
    assert corpus.odd_components_minus(4, star, [0]) == 3
    assert corpus.tutte_barrier_certified(4, star, [0])
    path = [(0, 1), (1, 2), (2, 3)]
    assert corpus.odd_components_minus(4, path, [1]) == 1
    assert not corpus.tutte_barrier_certified(4, path, [1])
    assert corpus.odd_components_minus(3, [(0, 1), (1, 2), (0, 2)], []) == 1


def test_no_set_certifies_a_graph_with_a_perfect_matching():
    cycle = [(i, i + 1) for i in range(5)] + [(0, 5)]
    for r in range(7):
        for s in itertools.combinations(range(6), r):
            assert not corpus.tutte_barrier_certified(6, cycle, s)


# --- answer checker -------------------------------------------------------------

def motivation_regular() -> corpus.Instance:
    g = oracle.random_regular(80, 4, random.Random(25))
    return corpus.Instance(g.n, 2, g.endpoints, has_factor=True)


def test_checker_rejects_no_factor_on_the_4_regular_host():
    inst = motivation_regular()
    doc, why = corpus.check_answer(inst, 1, answer("no_factor"))
    assert doc["status"] == "no_factor"
    assert why is not None and "factor exists" in why


def test_checker_accepts_a_2_factor_of_the_4_regular_host():
    inst = motivation_regular()
    factor = euler_two_factor(inst.n, inst.edges)
    assert corpus.check_answer(inst, 0, answer("factor_found", factor))[1] is None


def test_checker_rejects_no_factor_on_the_hubs_and_triangles_host():
    inst = corpus.Instance(28, 1, HUBS_AND_TRIANGLES, has_factor=True)
    assert corpus.check_answer(inst, 1, answer("no_factor"))[1] is not None
    assert corpus.check_answer(inst, 1, answer("infeasible_precheck"))[1] is not None


def test_checker_accepts_the_perfect_matching_of_the_hubs_and_triangles_host():
    inst = corpus.Instance(28, 1, HUBS_AND_TRIANGLES, has_factor=True)
    reversed_pairs = [(v, u) for u, v in HUBS_AND_TRIANGLES_MATCHING]
    assert corpus.check_answer(inst, 0, answer("factor_found", reversed_pairs))[1] is None


def test_checker_accepts_no_factor_only_where_the_construction_proves_it():
    make, family, _ = corpus.WORKLOADS["barrier"]
    inst = make(random.Random(f"{family}:1:0"))
    assert corpus.check_answer(inst, 1, answer("no_factor"))[1] is None
    assert corpus.check_answer(inst, 0, answer("no_factor"))[1] is not None


@pytest.mark.parametrize("exit_code, stdout", [
    (0, answer("factor_found", HUBS_AND_TRIANGLES_MATCHING[:-1])),                       # vertices left at degree 0
    (0, answer("factor_found", HUBS_AND_TRIANGLES_MATCHING[:-1] + ((26, 0),))),          # not a host edge
    (0, answer("factor_found", HUBS_AND_TRIANGLES_MATCHING + ((0, 7),))),                # repeated edge
    (0, answer("factor_found", HUBS_AND_TRIANGLES_MATCHING[:-1] + ((26, 27, 1),))),      # malformed pair
    (0, answer("factor_found", HUBS_AND_TRIANGLES_MATCHING[:-1] + ((26, 28),))),         # vertex out of range
    (1, answer("factor_found", HUBS_AND_TRIANGLES_MATCHING)),                            # exit code disagrees
    (0, json.dumps({"status": "factor_found"})),                                         # no factor list
    (0, json.dumps({"status": "solved", "factor": None})),                               # unknown status
    (2, ""),                                                                             # usage error, no output
    (0, "[]"),                                                                           # not an object
])
def test_checker_rejects_bad_answers(exit_code, stdout):
    inst = corpus.Instance(28, 1, HUBS_AND_TRIANGLES, has_factor=True)
    assert corpus.check_answer(inst, exit_code, stdout)[1] is not None


# --- tracer -------------------------------------------------------------------

def test_tracer_restores_originals_and_repeats_counts(tmp_path):
    inst = corpus.Instance(28, 1, HUBS_AND_TRIANGLES, has_factor=True)
    path = tmp_path / "g.txt"
    path.write_text(inst.edge_list_text())
    modules = {"cli": cli, "search": search, "solver": solver, "subgraph": subgraph}
    before = {(m.__name__, a): getattr(m, a) for m in (search, solver, cli) for a in dir(m)}
    before_methods = {a: subgraph.KLimitedSubgraph.__dict__[a] for a in layers.SUBGRAPH_METHODS}
    tracers = []
    for _ in range(2):
        tracer = layers.Tracer()
        tally = run.Tally()
        run.one_pass(modules, [(inst, str(path))], tally, tracer)
        tracers.append(tracer)
    assert before == {(m.__name__, a): getattr(m, a) for m in (search, solver, cli) for a in dir(m)}
    assert before_methods == {a: subgraph.KLimitedSubgraph.__dict__[a] for a in layers.SUBGRAPH_METHODS}
    first = tracers[0]
    assert first.counts() == tracers[1].counts()
    assert first.calls["main"] == 1 and first.calls["parse_graph"] == 1
    finds = first.calls["find_augmenting_trail"]
    assert finds == sum(first.tally[k] for k in ("probe_hits", "layered_hits", "failed_finds"))
    for name, total in first.total.items():
        assert 0 <= first.self_time[name] <= total + 1e-9
    # copy and validate_augmenting_trail run only inside apply_trail here
    children = first.total["copy"] + first.total["validate_augmenting_trail"]
    assert first.self_time["apply_trail"] == pytest.approx(first.total["apply_trail"] - children, abs=1e-9)
    metrics = layers.layer_metrics(tracers, 14, 2.0, 1.0)
    assert list(metrics) == list(layers.LAYER_METRICS)
    assert metrics["trace.overhead_ratio"] == pytest.approx(1.0)
    assert metrics["search.find_calls"] == finds


# --- the command ----------------------------------------------------------------

def test_run_prints_every_end_to_end_metric(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", "barrier", "--seed", "3",
         "--seconds", "0.2", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert result["attempted"] >= 1 and result["correct"] is True
    assert not (PERFBENCH.parent / ".perfbench-work").exists()


def test_run_fails_without_kfactor_sources(tmp_path):
    shutil.copytree(PERFBENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "barrier", "--seed", "1", "--seconds", "1"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
