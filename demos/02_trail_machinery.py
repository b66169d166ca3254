"""Inside one augmentation: layers, pruning, extraction, blossom repair.

Walks the search machinery by hand on an instance where the first
extracted walk uses both darts of one edge and has to be repaired. Every
intermediate object is printed, so this is the one to read next to the
library source.
"""

from __future__ import annotations

from kfactor import (
    Graph,
    KLimitedSubgraph,
    build_layers,
    extract_trail,
    find_blossom_violation,
    is_cut_dart,
    restrict_to_target,
    blossom_operation,
)


def dart_name(g: Graph, d: int) -> str:
    return f"{d}:{g.dart_tails[d]}->{g.dart_heads[d]}"


def show_layers(g: Graph, layered) -> None:
    for i, layer in enumerate(layered.layers):
        color = "blue" if i % 2 == 0 else "red"
        darts = ", ".join(dart_name(g, d) for d in sorted(layer))
        print(f"  depth {i} ({color}): {darts}")


def main() -> None:
    # vertices 0..3 form a dense block, vertex 4 hangs on 0 and 1. The
    # subgraph below fills 0..3 and leaves 4 bare, so any augmenting trail
    # starts and ends at 4.
    g = Graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3)])
    m = KLimitedSubgraph.from_edges(g, 2, [0, 1, 3, 4])
    print(f"graph: n={g.n}, m={g.m}; member edges {sorted(m.in_m)}, k={m.k}")
    print(f"degrees {list(m.deg)}, deficit {m.deficit}")
    print()

    print("1. grow dart layers from the unfilled vertex 4")
    built = build_layers(g, m, 4)
    show_layers(g, built)
    print(f"   terminal heads: {sorted(built.terminal_heads())}")
    print()

    print("2. restrict to walks that end at vertex 4 (a closed trail)")
    gv = restrict_to_target(built, 4)
    print(f"   {gv.dart_count()} darts survive pruning")
    print()

    print("3. extract the lexicographically least dart-distinct walk")
    first = extract_trail(gv)
    print(f"   walk: {' '.join(dart_name(g, d) for d in first.darts)}")
    bv = find_blossom_violation(first)
    print(
        f"   darts {bv.in_dart} and {bv.out_dart} are the two sides of edge"
        f" ({g.dart_tails[bv.in_dart]}, {g.dart_heads[bv.in_dart]}):"
        " the walk folds through an odd cycle"
    )
    print()

    print("4. blossom repair: delete one dart of the violating pair")
    print(f"   is the in-dart a cut dart? {is_cut_dart(gv, bv.in_dart, bv.in_index)}")
    gv2 = blossom_operation(gv, bv)
    print(f"   dart count {gv.dart_count()} -> {gv2.dart_count()}")
    second = extract_trail(gv2)
    print(f"   next walk: {' '.join(dart_name(g, d) for d in second.darts)}")
    print(f"   violation now: {find_blossom_violation(second)}")
    print()

    print("5. apply the trail: memberships along it flip, deficit drops by 2")
    before = m.deficit
    m.apply_trail(second)
    print(f"   member edges {sorted(m.in_m)}, degrees {list(m.deg)}")
    print(f"   deficit {before} -> {m.deficit}: this is a 2-factor")


if __name__ == "__main__":
    main()
