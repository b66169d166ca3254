"""Outside-in layer tracing for `kfactor solve`.

The tracer replaces public functions with timing wrappers in the module
namespace where their callers look them up, and puts the originals back
afterwards; no kfactor source file is touched. `solver` and `cli` bind
their callees with `from ... import`, so each name is patched where it is
called from, not where it is defined.

Every wrapper opens a span on a stack. When the span closes its length is
added to the name's total and to the enclosing span's child time; the
name's self time is its total minus the child time of its own spans.
Nesting that matters here: `prune` runs inside `restrict_to_target`,
`blossom_operation` and `is_cut_dart`, and `copy` and
`validate_augmenting_trail` run inside `apply_trail`.

Counts come from return values, not from SolveStats: a one-dart trail
from find_augmenting_trail is a probe hit, a longer one a layered hit,
None a failed find; build_layers results give the layer and dart peaks.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

SEARCH_NAMES = ("build_layers", "prune", "restrict_to_target", "extract_trail",
                "find_blossom_violation", "blossom_operation", "is_cut_dart")
SOLVER_NAMES = ("find_augmenting_trail", "feasibility_precheck", "verify_factor", "two_coloring")
CLI_NAMES = ("main", "parse_graph", "compute_k_factor", "compute_bipartite_k_factor")
SUBGRAPH_METHODS = ("apply_trail", "copy", "validate_augmenting_trail")

# metric name -> unit, in the order they are reported
LAYER_METRICS = {
    "search.find_self_s": "s",
    "search.find_calls": "count",
    "search.failed_finds": "count",
    "search.probe_hits": "count",
    "search.layered_searches": "count",
    "search.layered_hit_ratio": "ratio",
    "search.build_s": "s",
    "search.max_layers": "count",
    "search.peak_darts": "count",
    "search.prune_s": "s",
    "search.prune_calls": "count",
    "search.restrict_self_s": "s",
    "search.blossom_self_s": "s",
    "search.blossom_calls": "count",
    "search.cut_check_self_s": "s",
    "search.extract_s": "s",
    "search.extractions": "count",
    "search.extract_useful_ratio": "ratio",
    "search.violation_s": "s",
    "subgraph.apply_self_s": "s",
    "subgraph.copy_s": "s",
    "subgraph.validate_s": "s",
    "subgraph.apply_calls": "count",
    "solver.augmentations": "count",
    "solver.loop_self_s": "s",
    "solver.two_coloring_s": "s",
    "solver.precheck_s": "s",
    "solver.verify_s": "s",
    "graph.parse_s": "s",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    """Span totals, self times, call counts and return-value tallies of one traced pass."""

    def __init__(self):
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.tally: dict[str, int] = defaultdict(int)
        # child time of each open span; the bottom entry belongs to no span
        self._child = [0.0]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, on_return=None):
        total, self_time, calls, child = self.total, self.self_time, self.calls, self._child
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - t0
                inner = child.pop()
                child[-1] += span
                total[name] += span
                self_time[name] += span - inner
                calls[name] += 1
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def _on_find(self, trail) -> None:
        if trail is None:
            self.tally["failed_finds"] += 1
        elif len(trail.darts) == 1:
            self.tally["probe_hits"] += 1
        else:
            self.tally["layered_hits"] += 1

    def _on_build(self, layered) -> None:
        if layered is not None:
            self.tally["max_layers"] = max(self.tally["max_layers"], layered.layer_count())
            self.tally["peak_darts"] = max(self.tally["peak_darts"], layered.dart_count())

    def _patch(self, owner, attr: str, on_return=None) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(attr, original, on_return))

    def install(self, kfactor_modules) -> None:
        """Wrap the traced names; kfactor_modules maps 'search', 'solver', 'cli', 'subgraph' to modules."""
        search, solver = kfactor_modules["search"], kfactor_modules["solver"]
        cli, subgraph = kfactor_modules["cli"], kfactor_modules["subgraph"]
        try:
            for attr in SEARCH_NAMES:
                self._patch(search, attr, self._on_build if attr == "build_layers" else None)
            for attr in SOLVER_NAMES:
                self._patch(solver, attr, self._on_find if attr == "find_augmenting_trail" else None)
            for attr in CLI_NAMES:
                self._patch(cli, attr)
            for attr in SUBGRAPH_METHODS:
                self._patch(subgraph.KLimitedSubgraph, attr)
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        """Put every original back, last patched first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def counts(self) -> dict[str, int]:
        """Every count this tracer holds; passes over the same corpus must repeat them."""
        out = {f"calls.{name}": c for name, c in self.calls.items() if c}
        out.update((name, c) for name, c in self.tally.items() if c)
        return dict(sorted(out.items()))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracers: list[Tracer], augmentations: int,
                  traced_wall: float, plain_wall: float) -> dict[str, float]:
    """Per-pass layer figures from one tracer per traced pass over the same corpus.

    Times are averaged over the passes. Counts are those of the first pass;
    the caller has checked that every pass repeats them. augmentations is
    the per-pass sum of the answers' own counter.
    """
    passes = len(tracers)
    tot: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for t in tracers:
        for name, v in t.total.items():
            tot[name] += v / passes
        for name, v in t.self_time.items():
            own[name] += v / passes
    calls, tally = tracers[0].calls, tracers[0].tally
    hits = tally["layered_hits"]
    values = {
        "search.find_self_s": own["find_augmenting_trail"],
        "search.find_calls": calls["find_augmenting_trail"],
        "search.failed_finds": tally["failed_finds"],
        "search.probe_hits": tally["probe_hits"],
        "search.layered_searches": calls["build_layers"],
        "search.layered_hit_ratio": _ratio(hits, calls["build_layers"]),
        "search.build_s": tot["build_layers"],
        "search.max_layers": tally["max_layers"],
        "search.peak_darts": tally["peak_darts"],
        "search.prune_s": tot["prune"],
        "search.prune_calls": calls["prune"],
        "search.restrict_self_s": own["restrict_to_target"],
        "search.blossom_self_s": own["blossom_operation"],
        "search.blossom_calls": calls["blossom_operation"],
        "search.cut_check_self_s": own["is_cut_dart"],
        "search.extract_s": tot["extract_trail"],
        "search.extractions": calls["extract_trail"],
        "search.extract_useful_ratio": _ratio(hits, calls["extract_trail"]),
        "search.violation_s": tot["find_blossom_violation"],
        "subgraph.apply_self_s": own["apply_trail"],
        "subgraph.copy_s": tot["copy"],
        "subgraph.validate_s": tot["validate_augmenting_trail"],
        "subgraph.apply_calls": calls["apply_trail"],
        "solver.augmentations": augmentations,
        "solver.loop_self_s": own["compute_k_factor"] + own["compute_bipartite_k_factor"],
        "solver.two_coloring_s": tot["two_coloring"],
        "solver.precheck_s": tot["feasibility_precheck"],
        "solver.verify_s": tot["verify_factor"],
        "graph.parse_s": tot["parse_graph"],
        "cli.self_s": own["main"],
        "trace.overhead_ratio": traced_wall / plain_wall - 1.0,
    }
    return {name: values[name] for name in LAYER_METRICS}
