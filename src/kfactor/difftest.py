"""Differential testing of the solver against the brute-force oracle.

Every instance is solved, any returned factor is independently verified,
and the yes/no answer is compared with the oracle's. Four buckets exist
per (n, k): agree_yes, agree_no, solver_missed (oracle found a factor,
solver reported none: a completeness gap) and solver_false (the solver
returned an invalid factor or crashed: a soundness failure, tolerated at
exactly zero). Instances whose edge count exceeds the oracle cap skip the
comparison but still get their factor verified; they are tallied as
oracle_skipped so the bucket sums stay exact over the compared instances.

Disagreements are persisted as edge-list files that round-trip through
parse_graph, each carrying a reproduction command line in comments.
Reports are deterministic for a fixed config, timing line aside.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

from .graph import Graph, serialize_graph
from .oracle import (
    DEFAULT_EDGE_CAP,
    brute_force_k_factor,
    enumerate_graphs,
    is_valid_factor,
    random_gnp,
    random_regular,
)
from .solver import FACTOR_FOUND, compute_k_factor, verify_factor


@dataclass(frozen=True)
class DiffConfig:
    """One differential run: instance source, k values, output directory.

    mode is "exhaustive" (all labeled graphs on exactly n vertices) or
    "random" (count instances of the given model drawn from one seeded
    stream); the oracle always runs with its DEFAULT_EDGE_CAP.
    """

    mode: str
    n: int
    k_values: tuple[int, ...]
    out_dir: str
    count: int = 0
    model: str = "gnp"
    p: float = 0.5
    d: int = 0
    seed: int = 0


@dataclass
class DiffRow:
    n: int
    k: int
    instances: int = 0
    agree_yes: int = 0
    agree_no: int = 0
    solver_missed: int = 0
    solver_false: int = 0
    oracle_skipped: int = 0


# a row's counted fields, instances then the buckets, in report order
_COUNTS = tuple(f.name for f in fields(DiffRow) if f.name not in ("n", "k"))


@dataclass
class DiffReport:
    config: DiffConfig
    rows: list[DiffRow] = field(default_factory=list)
    counterexamples: list[tuple[str, str]] = field(default_factory=list)
    wall_time_s: float = 0.0

    def total(self, name: str) -> int:
        return sum(getattr(row, name) for row in self.rows)

    def exit_code(self) -> int:
        """0 clean, 1 completeness gaps only, 2 any soundness failure."""
        if self.total("solver_false"):
            return 2
        if self.total("solver_missed"):
            return 1
        return 0

    def _config_line(self) -> str:
        c = self.config
        if c.mode == "exhaustive":
            src = f"mode=exhaustive n={c.n}"
        else:
            src = f"mode=random count={c.count} n={c.n} model={c.model}"
            src += f" p={c.p}" if c.model == "gnp" else f" d={c.d}"
            src += f" seed={c.seed}"
        ks = ",".join(str(k) for k in c.k_values)
        return f"config: {src} k={ks} oracle_edge_cap={DEFAULT_EDGE_CAP} out={c.out_dir}"

    def render(self, include_timing: bool = True) -> str:
        lines = ["k-factor differential test report", self._config_line()]
        for row in sorted(self.rows, key=lambda r: (r.n, r.k)):
            counts = " ".join(f"{name}={getattr(row, name)}" for name in _COUNTS)
            lines.append(f"n={row.n} k={row.k}: {counts}")
        lines.append("totals: " + " ".join(f"{name}={self.total(name)}" for name in _COUNTS))
        if self.counterexamples:
            lines.append(f"counterexamples ({len(self.counterexamples)}):")
            lines.extend(f"  {kind}  {name}" for name, kind in self.counterexamples)
        else:
            lines.append("counterexamples (0): none")
        if include_timing:
            lines.append(f"wall_time_s={self.wall_time_s:.3f}")
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {
            "config": self._config_line(),
            "rows": [vars(row) for row in sorted(self.rows, key=lambda r: (r.n, r.k))],
            "totals": {name: self.total(name) for name in _COUNTS},
            "counterexamples": [
                {"file": name, "kind": kind} for name, kind in self.counterexamples
            ],
            "wall_time_s": self.wall_time_s,
        }


def _instances(config: DiffConfig):
    if config.mode == "exhaustive":
        yield from enumerate_graphs(config.n)
    elif config.mode == "random":
        rng = random.Random(config.seed)
        for _ in range(config.count):
            if config.model == "gnp":
                yield random_gnp(config.n, config.p, rng)
            elif config.model == "d_regular":
                yield random_regular(config.n, config.d, rng)
            else:
                raise ValueError(f"unknown model {config.model!r}")
    else:
        raise ValueError(f"unknown mode {config.mode!r}")


def _persist_counterexample(out_dir: Path, g: Graph, k: int, kind: str, note: str) -> str:
    doc = serialize_graph(g)
    digest = hashlib.sha256(f"{doc}k={k}".encode()).hexdigest()[:12]
    name = f"cex_{digest}_k{k}.txt"
    body = (
        "# k-factor difftest counterexample\n"
        f"# kind: {kind}\n"
        f"# {note}\n"
        f"# reproduce: kfactor solve --input {name} --k {k} --oracle-check\n"
    ) + doc
    (out_dir / name).write_text(body)
    return name


def run_difftest(config: DiffConfig, solve_fn=compute_k_factor) -> DiffReport:
    """Run one differential sweep and return the report.

    solve_fn exists for harness tests (a deliberately broken solver must
    produce counterexample files); production callers leave the default.
    Raises RuntimeError if the solver returns a factor that verifies while
    the oracle claims none exists, since that would mean the oracle itself
    is broken.
    """
    t0 = time.perf_counter()
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows: dict[tuple[int, int], DiffRow] = {}
    report = DiffReport(config)
    for g in _instances(config):
        for k in config.k_values:
            row = rows.setdefault((g.n, k), DiffRow(g.n, k))
            row.instances += 1
            error: str | None = None
            solver_yes = False
            factor = None
            try:
                outcome = solve_fn(g, k)
                solver_yes = outcome.status == FACTOR_FOUND
                factor = outcome.factor
            except Exception as exc:  # a crash is a soundness failure
                error = f"solver raised: {exc!r}"
            if error is None and solver_yes:
                try:
                    ok, bad = verify_factor(g, k, factor)
                    if not ok or not is_valid_factor(g, k, factor):
                        error = f"solver returned an invalid factor: degree report {bad}"
                except ValueError as exc:
                    # unknown or repeated edge ids in the claimed factor
                    error = f"solver returned an invalid factor: {exc}"
            if error is not None:
                row.solver_false += 1
                name = _persist_counterexample(out_dir, g, k, "solver_false", error)
                report.counterexamples.append((name, "solver_false"))
                continue
            if g.m > DEFAULT_EDGE_CAP:
                row.oracle_skipped += 1
                continue
            oracle_yes = brute_force_k_factor(g, k) is not None
            if oracle_yes and solver_yes:
                row.agree_yes += 1
            elif not oracle_yes and not solver_yes:
                row.agree_no += 1
            elif oracle_yes and not solver_yes:
                row.solver_missed += 1
                name = _persist_counterexample(
                    out_dir, g, k, "solver_missed",
                    "oracle: factor exists; solver: none found",
                )
                report.counterexamples.append((name, "solver_missed"))
            else:
                raise RuntimeError(
                    "solver returned a verified factor where the oracle found none; "
                    "the oracle is broken"
                )
    report.rows = list(rows.values())
    report.wall_time_s = time.perf_counter() - t0
    return report
