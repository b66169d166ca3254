"""Seeded workload generators, their ground truth, and the answer checker.

Nothing here imports kfactor. The generators build every host from its
own construction, so the truth about each instance (a factor exists, or a
Tutte barrier proves that none does) is known without asking the solver,
and the checker counts degrees itself instead of calling verify_factor.

Workloads (sizes are per instance):

- regular: union of 6 random perfect matchings on 1000 vertices, k = 2.
  Every even-regular graph has a 2-factor (Petersen), so a factor exists.
- barrier: k = 1. A hub set S of 50 vertices and 52 disjoint K5 cliques,
  each clique joined only to S, every hub joined to 2 clique vertices.
  The 52 cliques are odd components of G - S, more than |S|, so Tutte's
  theorem rules out a perfect matching; the generator checks that count.
- odd_cliques: k = 1. 100 hubs and 100 K5 cliques; hub i is joined to one
  vertex of clique i (the planted perfect matching) and to 2 random
  clique vertices. A factor exists, but reaching it needs odd cycles.
- bipartite: union of 4 random perfect matchings between two sides of 500
  vertices, k = 2, solved with --bipartite. A factor exists (Konig).
- bipartite_general: the same hosts as bipartite, solved by the general
  layered engine (no --bipartite).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace

# ceiling on rejected draws of one matching: at the sizes used here a draw
# repeats an existing edge at most about 92% of the time, so a few dozen
# draws suffice and the ceiling is never reached
MAX_DRAWS = 10_000


@dataclass(frozen=True)
class Instance:
    """One host graph, the k to solve for, and what the answer must be."""

    n: int
    k: int
    edges: tuple[tuple[int, int], ...]
    has_factor: bool
    bipartite: bool = False

    def edge_list_text(self) -> str:
        """The edge-list document `kfactor solve --input` reads."""
        lines = [f"{self.n} {len(self.edges)}"]
        lines.extend(f"{u} {v}" for u, v in self.edges)
        return "\n".join(lines) + "\n"


def _pair(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _add_matching(edges: set, draw, rng: random.Random) -> None:
    """Add one matching from draw(rng), redrawing it while it repeats an edge."""
    for _ in range(MAX_DRAWS):
        matching = draw(rng)
        if not any(p in edges for p in matching):
            edges.update(matching)
            return
    raise RuntimeError("could not draw a matching that avoids the existing edges")


def regular_host(n: int, d: int, rng: random.Random) -> list[tuple[int, int]]:
    """Simple d-regular graph on n vertices (n even) as d edge-disjoint perfect matchings."""
    if n % 2 or not 0 < d < n:
        raise ValueError("need an even n and 0 < d < n")
    order = list(range(n))

    def draw(r: random.Random) -> list[tuple[int, int]]:
        r.shuffle(order)
        return [_pair(order[i], order[i + 1]) for i in range(0, n, 2)]

    edges: set[tuple[int, int]] = set()
    for _ in range(d):
        _add_matching(edges, draw, rng)
    return sorted(edges)


def bipartite_host(half: int, d: int, rng: random.Random) -> list[tuple[int, int]]:
    """Simple d-regular bipartite graph, sides 0..half-1 and half..2*half-1."""
    if not 0 < d <= half:
        raise ValueError("need 0 < d <= half")
    right = list(range(half, 2 * half))

    def draw(r: random.Random) -> list[tuple[int, int]]:
        r.shuffle(right)
        return list(zip(range(half), right))

    edges: set[tuple[int, int]] = set()
    for _ in range(d):
        _add_matching(edges, draw, rng)
    return sorted(edges)


def _clique_edges(first: int, size: int) -> list[tuple[int, int]]:
    return [(first + a, first + b) for a in range(size) for b in range(a + 1, size)]


def _join_hub(edges: set, hub: int, first: int, size: int, rng: random.Random) -> None:
    """Join a hub to a random clique vertex it is not yet adjacent to."""
    free = [first + a for a in range(size) if (hub, first + a) not in edges]
    edges.add((hub, rng.choice(free)))


def barrier_host(hubs: int, cliques: int, size: int, hub_degree: int,
                 rng: random.Random) -> list[tuple[int, int]]:
    """Hubs 0..hubs-1, then disjoint K_size cliques joined only to the hubs.

    Every clique gets at least one hub edge and every hub exactly
    hub_degree of them, so G - hubs falls into the cliques.
    """
    slots = [h for h in range(hubs) for _ in range(hub_degree)]
    if len(slots) < cliques:
        raise ValueError("too few hub edges to reach every clique")
    rng.shuffle(slots)
    targets = list(range(cliques)) + [rng.randrange(cliques) for _ in range(len(slots) - cliques)]
    edges: set[tuple[int, int]] = set()
    for c in range(cliques):
        edges.update(_clique_edges(hubs + c * size, size))
    for hub, c in zip(slots, targets):
        _join_hub(edges, hub, hubs + c * size, size, rng)
    return sorted(edges)


def odd_cliques_host(hubs: int, size: int, extra: int,
                     rng: random.Random) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Hubs 0..hubs-1 and one K_size clique per hub (size odd), with a planted perfect matching.

    Hub i is joined to a random vertex of clique i, which pairs it off and
    leaves an even clique remainder; each hub then gets extra edges to
    random clique vertices. Returns (edges, planted matching).
    """
    if size % 2 == 0:
        raise ValueError("clique size must be odd")
    edges: set[tuple[int, int]] = set()
    planted: list[tuple[int, int]] = []
    for hub in range(hubs):
        first = hubs + hub * size
        edges.update(_clique_edges(first, size))
        mate = first + rng.randrange(size)
        edges.add((hub, mate))
        planted.append((hub, mate))
        rest = [v for v in range(first, first + size) if v != mate]
        planted.extend(zip(rest[0::2], rest[1::2]))
    for hub in range(hubs):
        for _ in range(extra):
            _join_hub(edges, hub, hubs + rng.randrange(hubs) * size, size, rng)
    return sorted(edges), sorted(planted)


def odd_components_minus(n: int, edges, removed) -> int:
    """Number of odd-sized connected components of G - removed."""
    removed = set(removed)
    parent = list(range(n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in edges:
        if u not in removed and v not in removed:
            parent[find(u)] = find(v)
    sizes: dict[int, int] = {}
    for v in range(n):
        if v not in removed:
            root = find(v)
            sizes[root] = sizes.get(root, 0) + 1
    return sum(1 for s in sizes.values() if s % 2)


def tutte_barrier_certified(n: int, edges, barrier) -> bool:
    """True when o(G - S) > |S|, which proves G has no perfect matching."""
    return odd_components_minus(n, edges, barrier) > len(set(barrier))


def _regular(rng: random.Random) -> Instance:
    return Instance(1000, 2, tuple(regular_host(1000, 6, rng)), has_factor=True)


def _barrier(rng: random.Random) -> Instance:
    hubs = 50
    edges = barrier_host(hubs, 52, 5, 2, rng)
    n = hubs + 52 * 5
    if not tutte_barrier_certified(n, edges, range(hubs)):
        raise RuntimeError("barrier host lost its Tutte certificate")
    return Instance(n, 1, tuple(edges), has_factor=False)


def _odd_cliques(rng: random.Random) -> Instance:
    edges, _ = odd_cliques_host(100, 5, 2, rng)
    return Instance(600, 1, tuple(edges), has_factor=True)


def _bipartite(rng: random.Random) -> Instance:
    return Instance(1000, 2, tuple(bipartite_host(500, 4, rng)), has_factor=True, bipartite=True)


def _bipartite_general(rng: random.Random) -> Instance:
    return replace(_bipartite(rng), bipartite=False)


# name -> (instance maker, host family that seeds it, distinct instances).
# bipartite_general shares its hosts with bipartite, so the two engines are
# timed on the same graphs. Every corpus has at least 100 instances, so that
# at least 10 lie beyond solve_s.p90; barrier has more because its solve
# times spread widely from instance to instance.
WORKLOADS = {
    "regular": (_regular, "regular", 100),
    "barrier": (_barrier, "barrier", 200),
    "odd_cliques": (_odd_cliques, "odd_cliques", 100),
    "bipartite": (_bipartite, "bipartite", 100),
    "bipartite_general": (_bipartite_general, "bipartite", 100),
}


def build_corpus(workload: str, seed: int) -> list[Instance]:
    """The workload's instances; instance i depends only on (host family, seed, i)."""
    make, family, count = WORKLOADS[workload]
    return [make(random.Random(f"{family}:{seed}:{i}")) for i in range(count)]


def check_answer(inst: Instance, exit_code, stdout: str) -> tuple[dict | None, str | None]:
    """Parse and judge one `kfactor solve --json` answer.

    Returns (document, None) for a right answer and (document or None,
    reason) for a wrong one. A factor passes only when every listed pair
    is a distinct host edge and every vertex ends at degree k; a negative
    answer passes only when the construction proves there is no factor.
    """
    try:
        doc = json.loads(stdout)
    except ValueError:
        return None, f"exit code {exit_code}, output is not JSON"
    if not isinstance(doc, dict):
        return None, "output is not a JSON object"
    status = doc.get("status")
    if status == "factor_found":
        if exit_code != 0:
            return doc, f"factor_found with exit code {exit_code}"
        return doc, _factor_problem(inst, doc.get("factor"))
    if status in ("no_factor", "infeasible_precheck"):
        if exit_code != 1:
            return doc, f"{status} with exit code {exit_code}"
        if inst.has_factor:
            return doc, f"{status}, but a {inst.k}-factor exists"
        return doc, None
    return doc, f"unexpected status {status!r} (exit code {exit_code})"


def _factor_problem(inst: Instance, factor) -> str | None:
    if not isinstance(factor, list):
        return "factor_found without a factor list"
    host = set(inst.edges)
    seen: set[tuple[int, int]] = set()
    degree = [0] * inst.n
    for item in factor:
        if not (isinstance(item, list) and len(item) == 2
                and all(isinstance(x, int) and 0 <= x < inst.n for x in item)):
            return f"malformed factor entry {item!r}"
        pair = _pair(*item)
        if pair not in host:
            return f"factor edge {pair} is not a host edge"
        if pair in seen:
            return f"factor edge {pair} listed twice"
        seen.add(pair)
        degree[pair[0]] += 1
        degree[pair[1]] += 1
    for v, d in enumerate(degree):
        if d != inst.k:
            return f"vertex {v} has factor degree {d}, expected {inst.k}"
    if not inst.has_factor:
        return "a valid factor contradicts the barrier certificate"
    return None
