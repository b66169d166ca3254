"""Acceptance gate: the binding guarantees, one test and one verdict line each.

Each test prints exactly one line, "ACCEPTANCE <criterion>: PASS" or
"... FAIL [detail]", then asserts. Failures are collected rather than
raised mid-loop so the verdict line always appears, with the first few
offenders in the detail. Run with -s to see the lines; the test names
mirror them.

The seven criteria:
  1. soundness at scale: at least 10,000 solves, every claimed factor
     re-verified k-regular spanning, under 2 minutes
  2. every augmentation drops the deficit by exactly 2 and keeps the
     subgraph degree-capped, replayed step by step outside the engine
  3. exhaustive differential sweep of all 32,768 labeled 6-vertex graphs,
     k in {1, 2, 3}: no missed factors, no false factors, under 1 minute
  4. bipartite engine matches the oracle exactly on exhaustive 3+3 and
     sampled 4+4 hosts, and every accepted path is vertex-simple
  5. named instances answer exactly as known
  6. scaling probe on a 6-regular ladder stays inside the quadratic band
  7. structural properties of the layered machinery, 1,000+ randomized
     instances per property, zero violations
"""

from __future__ import annotations

import math
import random
import time

from kfactor import Graph, KLimitedSubgraph
from kfactor.difftest import DiffConfig, run_difftest
from kfactor.oracle import (
    brute_force_k_factor,
    enumerate_graphs,
    random_gnp,
    random_regular,
)
from kfactor.search import (
    blossom_operation,
    build_layers,
    extract_trail,
    find_augmenting_trail,
    find_blossom_violation,
    prune,
    restrict_to_target,
)
from kfactor.solver import (
    FACTOR_FOUND,
    INFEASIBLE_PRECHECK,
    NO_FACTOR,
    compute_bipartite_k_factor,
    compute_k_factor,
    verify_factor,
)

from bruteforce import (
    complete_graph,
    cycle_graph,
    distinct_layer_walks,
    petersen_graph,
    planted_state,
    star_graph,
)


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line, flush=True)
    assert ok, line


def test_criterion_1_soundness_at_scale():
    t0 = time.perf_counter()
    bad: list[str] = []
    solves = 0
    factors = 0

    def run(g: Graph, k: int) -> None:
        nonlocal solves, factors
        out = compute_k_factor(g, k)
        solves += 1
        if out.status == FACTOR_FOUND:
            factors += 1
            ok, rep = verify_factor(g, k, out.factor)
            if not ok:
                bad.append(f"n={g.n} k={k} degrees {rep}")

    for n in range(6):
        for g in enumerate_graphs(n):
            for k in (1, 2, 3):
                run(g, k)
    rng = random.Random(20260819)
    while solves < 10500:
        n = rng.randint(6, 12)
        g = random_gnp(n, rng.uniform(0.1, 0.9), rng)
        run(g, rng.randint(1, 4))

    elapsed = time.perf_counter() - t0
    ok = not bad and solves >= 10000 and elapsed < 120.0
    _report(
        "1 soundness-at-scale",
        ok,
        f"{solves} solves, {factors} factors verified, {elapsed:.1f}s"
        + (f", first failures: {bad[:3]}" if bad else ""),
    )


def test_criterion_2_deficit_drops_by_two():
    rng = random.Random(20260820)
    bad: list[str] = []
    steps = 0
    for _ in range(500):
        n = rng.randint(2, 10)
        g = random_gnp(n, rng.uniform(0.2, 0.9), rng)
        k = rng.randint(1, 3)
        m = KLimitedSubgraph(g, k)
        while m.deficit > 0:
            trail = find_augmenting_trail(g, m)
            if trail is None:
                break
            before = m.deficit
            m.apply_trail(trail)
            steps += 1
            # recompute the deficit from raw degrees, not the cached value
            raw = k * g.n - sum(m.deg)
            if before - m.deficit != 2:
                bad.append(f"n={n} k={k}: deficit {before} -> {m.deficit}")
            if m.deficit != raw:
                bad.append(f"n={n} k={k}: cached deficit {m.deficit}, raw {raw}")
            if any(d > k for d in m.deg):
                bad.append(f"n={n} k={k}: degree cap broken {m.deg}")
    ok = not bad and steps >= 1000
    _report(
        "2 deficit-step",
        ok,
        f"{steps} augmentations replayed" + (f", failures: {bad[:3]}" if bad else ""),
    )


def test_criterion_3_exhaustive_differential(tmp_path):
    t0 = time.perf_counter()
    cfg = DiffConfig(
        mode="exhaustive", n=6, k_values=(1, 2, 3), out_dir=str(tmp_path)
    )
    report = run_difftest(cfg)
    elapsed = time.perf_counter() - t0
    missed = report.total("solver_missed")
    false = report.total("solver_false")
    ok = (
        missed == 0
        and false == 0
        and report.total("instances") == 32768 * 3
        and elapsed < 60.0
    )
    _report(
        "3 exhaustive-differential",
        ok,
        f"98304 instances, missed={missed} false={false}, {elapsed:.1f}s"
        + (f", counterexamples in {tmp_path}" if report.counterexamples else ""),
    )


def test_criterion_4_bipartite_exactness():
    t0 = time.perf_counter()
    bad: list[str] = []
    checks = 0

    def check(g: Graph, k: int) -> None:
        nonlocal checks
        events: list[tuple] = []
        out = compute_bipartite_k_factor(g, k, trace=lambda *a: events.append(a))
        oracle_yes = brute_force_k_factor(g, k) is not None
        if (out.status == FACTOR_FOUND) != oracle_yes:
            bad.append(f"n={g.n} m={g.m} k={k}: engine {out.status}, oracle {oracle_yes}")
        if out.status == FACTOR_FOUND:
            ok, rep = verify_factor(g, k, out.factor)
            if not ok:
                bad.append(f"n={g.n} k={k}: invalid factor {rep}")
        for e in events:
            if e[0] != "accepted":
                continue
            darts = e[1:]
            vs = [g.dart_tails[darts[0]]] + [g.dart_heads[d] for d in darts]
            if len(set(vs)) != len(vs):
                bad.append(f"n={g.n} k={k}: non-simple path {darts}")
        checks += 1

    pairs = [(i, 3 + j) for i in range(3) for j in range(3)]
    for mask in range(1 << 9):
        g = Graph(6, [pairs[i] for i in range(9) if mask >> i & 1])
        for k in (1, 2, 3):
            check(g, k)
    rng = random.Random(20260821)
    for _ in range(100):
        p = rng.uniform(0.2, 1.0)
        edges = [(i, 4 + j) for i in range(4) for j in range(4) if rng.random() < p]
        g = Graph(8, edges)
        for k in (1, 2, 3):
            check(g, k)

    elapsed = time.perf_counter() - t0
    ok = not bad and checks == 512 * 3 + 300 and elapsed < 60.0
    _report(
        "4 bipartite-exactness",
        ok,
        f"{checks} solves compared, {elapsed:.1f}s"
        + (f", failures: {bad[:3]}" if bad else ""),
    )


def test_criterion_5_named_instances():
    bad: list[str] = []

    def expect_factor(g: Graph, k: int, label: str, exact=None) -> None:
        out = compute_k_factor(g, k)
        if out.status != FACTOR_FOUND:
            bad.append(f"{label}: {out.status}")
            return
        ok, rep = verify_factor(g, k, out.factor)
        if not ok:
            bad.append(f"{label}: invalid factor {rep}")
        if exact is not None and out.factor != exact:
            bad.append(f"{label}: factor {out.factor}, wanted {exact}")
        if brute_force_k_factor(g, k) is None:
            bad.append(f"{label}: oracle disagrees")

    expect_factor(petersen_graph(), 1, "petersen k=1")
    expect_factor(petersen_graph(), 2, "petersen k=2")
    for n in (3, 5, 8):
        expect_factor(cycle_graph(n), 2, f"C{n} k=2", exact=list(range(n)))
    expect_factor(complete_graph(4), 3, "K4 k=3", exact=[0, 1, 2, 3, 4, 5])

    out = compute_k_factor(star_graph(3), 2)
    if out.status not in (NO_FACTOR, INFEASIBLE_PRECHECK) or out.factor is not None:
        bad.append(f"K13 k=2: {out.status}")
    if brute_force_k_factor(star_graph(3), 2) is not None:
        bad.append("K13 k=2: oracle claims a factor")
    out = compute_k_factor(cycle_graph(5), 3)
    if out.status != INFEASIBLE_PRECHECK:
        bad.append(f"C5 k=3: {out.status}, wanted precheck rejection")

    _report("5 named-instances", not bad, ", ".join(bad[:4]) if bad else "8 instances exact")


def test_criterion_6_scaling_band():
    d, k, seed, repeats = 6, 2, 3, 5
    sizes = [500, 1000, 2000]
    bad: list[str] = []
    graphs = [random_regular(n, d, random.Random(seed)) for n in sizes]
    best = [math.inf] * len(sizes)
    outs = [None] * len(sizes)
    # each round solves every size in turn, so a slow stretch of a shared
    # machine slows all sizes alike instead of skewing one doubling ratio
    for _ in range(repeats):
        for i, g in enumerate(graphs):
            t0 = time.perf_counter()
            outs[i] = compute_k_factor(g, k)
            best[i] = min(best[i], time.perf_counter() - t0)
    for n, g, out, t_min in zip(sizes, graphs, outs, best):
        if out.status != FACTOR_FOUND:
            bad.append(f"n={n}: {out.status}")
        else:
            ok, rep = verify_factor(g, k, out.factor)
            if not ok:
                bad.append(f"n={n}: invalid factor {rep}")
        if t_min >= 30.0:
            bad.append(f"n={n}: {t_min:.1f}s exceeds 30s")
    ratios = [best[i + 1] / best[i] for i in range(len(best) - 1)]
    for a, b, r in zip(sizes, sizes[1:], ratios):
        if not 2.5 <= r <= 8.0:
            bad.append(f"{a}->{b}: ratio {r:.2f} outside [2.5, 8]")
    times = "/".join(f"{t * 1000:.0f}ms" for t in best)
    rr = "/".join(f"{r:.2f}" for r in ratios)
    _report(
        "6 scaling-band",
        not bad,
        f"times {times}, ratios {rr}" + (f", failures: {bad[:3]}" if bad else ""),
    )


def test_criterion_7_structural_properties():
    bad: list[str] = []
    rng = random.Random(20260822)

    # harvest layered graphs: parity and idempotence on the way
    parity_checked = 0
    prune_checked = 0
    extract_checked = 0
    lexmin_checked = 0
    restricted_pool = []
    while parity_checked < 1000:
        n = rng.randint(4, 9)
        g = random_gnp(n, rng.uniform(0.3, 0.8), rng)
        k = rng.randint(1, 3)
        picked = []
        deg = [0] * n
        for e in range(g.m):
            u, v = g.endpoints[e]
            if deg[u] < k and deg[v] < k and rng.random() < 0.5:
                deg[u] += 1
                deg[v] += 1
                picked.append(e)
        m = KLimitedSubgraph.from_edges(g, k, picked)
        for start in range(n):
            if m.deg[start] == k:
                continue
            built = build_layers(g, m, start)
            if built is None:
                continue
            parity_checked += 1
            for i, layer in enumerate(built.layers):
                for dd in layer:
                    if ((dd >> 1) in m.in_m) != (i % 2 == 1):
                        bad.append(f"parity: dart {dd} at depth {i}")
            once = prune(built)
            twice = prune(once)
            if [sorted(s) for s in once.layers] != [sorted(s) for s in twice.layers]:
                bad.append(f"prune not idempotent at n={n} k={k} start={start}")
            prune_checked += 1
            for v in sorted(built.terminal_heads()):
                restricted_pool.append(restrict_to_target(built, v))
            if parity_checked >= 1000:
                break

    for gv in restricted_pool:
        once = prune(gv)
        twice = prune(once)
        if [sorted(s) for s in once.layers] != [sorted(s) for s in twice.layers]:
            bad.append("prune not idempotent on a restricted graph")
        prune_checked += 1
        a = extract_trail(gv)
        b = extract_trail(gv)
        if (a is None) != (b is None) or (a is not None and a.darts != b.darts):
            bad.append("extraction not deterministic")
        extract_checked += 1
        if math.prod(len(s) for s in gv.layers) <= 4096:
            walks = distinct_layer_walks(gv)
            want = min(walks) if walks else None
            got = None if a is None else a.darts
            if got != want:
                bad.append(f"extraction not lexicographic: {got} vs {want}")
            lexmin_checked += 1

    # blossom operations: planted starved-vertex states fold often enough
    ops = 0
    tries = 0
    while ops < 1000 and tries < 400000:
        tries += 1
        n = rng.randint(6, 10)
        g = random_gnp(n, rng.uniform(0.4, 0.7), rng)
        k = 3 if rng.random() < 0.7 else 2
        if k >= n:
            continue
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
                if gv.dart_count() >= before:
                    bad.append(f"blossom kept {gv.dart_count()} of {before} darts")
                ops += 1

    counts_ok = (
        parity_checked >= 1000
        and prune_checked >= 1000
        and extract_checked >= 1000
        and ops >= 1000
    )
    _report(
        "7 structural-properties",
        not bad and counts_ok,
        f"parity x{parity_checked}, prune x{prune_checked}, extract x{extract_checked}"
        f" (lex-min x{lexmin_checked}), blossom x{ops}"
        + (f", failures: {bad[:3]}" if bad else ""),
    )
