"""The public surface of the kfactor package.

Every name in kfactor.__all__ resolves and is listed once. Names and
settings that were deleted because no caller reached them stay deleted:
a second constructor name for the empty subgraph, a second random-graph
dispatch, the layered-graph copy and its unread or test-only members, the
test-only membership and k-factor queries of KLimitedSubgraph, the
supplied-bipartition parameter whose colouring was never used, a
difftest edge cap that nothing could set, and the search's own tally
record and start cursor, which the solve's stats and the cursor loop
replaced, and the layered search's dead-start memo with its change
clock, which Tutte's gadget made unneeded.
"""

from __future__ import annotations

import dataclasses
import inspect

import kfactor
from kfactor import matching, oracle, search, solver, subgraph


def test_all_names_resolve_once():
    assert len(set(kfactor.__all__)) == len(kfactor.__all__)
    for name in kfactor.__all__:
        assert getattr(kfactor, name, None) is not None, name


def test_removed_names_stay_gone():
    for name in ("empty_subgraph", "random_graph", "SearchCounters"):
        assert name not in kfactor.__all__
        assert not hasattr(kfactor, name)
    assert not hasattr(subgraph, "empty_subgraph")
    assert not hasattr(oracle, "random_graph")
    assert not hasattr(solver, "_check_bipartition")
    assert not hasattr(search, "SearchCounters")
    assert not hasattr(matching, "augment_at_cursor")
    for attr in ("copy", "target", "head_set", "tail_set", "layer_indices"):
        assert not hasattr(kfactor.LayeredDartGraph, attr), attr
    for attr in ("is_member", "dart_is_member", "is_k_factor", "first_unfilled",
                 "unchanged_since", "dead_starts", "_changed"):
        assert not hasattr(kfactor.KLimitedSubgraph, attr), attr
    assert not hasattr(search, "_vertices_read")
    assert "reach" not in inspect.signature(search.build_layers).parameters
    assert "bipartition" not in inspect.signature(kfactor.compute_bipartite_k_factor).parameters
    assert "oracle_edge_cap" not in {f.name for f in dataclasses.fields(kfactor.DiffConfig)}
