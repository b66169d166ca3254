"""Seeded end-to-end benchmark of `kfactor solve`, with an outside-in traced mode.

Run from the repository root:

    python3 perfbench/run.py --workload bipartite --seed 1 --seconds 20 --trace 0

The workload's corpus is generated from --seed (see corpus.py), written as
edge-list files under .perfbench-work/, and fed to kfactor.cli.main one
instance at a time in a closed loop, in this single process and thread:
each call is `solve --input FILE --k K --json` (plus --bipartite where the
workload says so) with stdout captured. Every answer is checked against the
truth the construction provides.

--trace 0 cycles through the corpus for --seconds (and at least once) and
reports the end-to-end metrics. Each instance is solved several times, at
moments spread over the run, and its time is the fastest of those solves.
--trace 1 alternates untraced and traced passes over the whole corpus while
another pair of passes fits in --seconds (at least one pair) and reports the
per-layer metrics of layers.py, per pass; every count must repeat exactly
from pass to pass.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. Exit code 0 means the run completed, whatever its
answers; 2 means the checkout holds no kfactor sources to measure.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import corpus
import layers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

# set-up is repeated and its median reported, so one slow repetition (the
# first import compiles bytecode) does not move setup_s
SETUP_REPEATS = 3

END_TO_END = {
    "solve_s.p50": "s",
    "solve_s.p90": "s",
    "instances_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

KFACTOR_LAYERS = ("cli", "search", "solver", "subgraph")


def import_kfactor() -> dict:
    """Import kfactor afresh from the checkout's src/ and return the modules the tracer patches."""
    for name in [m for m in sys.modules if m == "kfactor" or m.startswith("kfactor.")]:
        del sys.modules[name]
    importlib.import_module("kfactor.cli")
    origin = Path(sys.modules["kfactor"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise RuntimeError(f"kfactor was imported from {origin}, not from {SRC}")
    return {name: sys.modules[f"kfactor.{name}"] for name in KFACTOR_LAYERS}


def solve(cli, inst: corpus.Instance, path: str) -> tuple[float, dict | None, str | None]:
    """One timed `kfactor solve` call: (seconds, answer document, problem or None)."""
    argv = ["solve", "--input", path, "--k", str(inst.k), "--json"]
    if inst.bipartite:
        argv.append("--bipartite")
    out, err = io.StringIO(), io.StringIO()
    failure = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash is a wrong answer, not the end of the run
            failure = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
    if failure is not None:
        return elapsed, None, failure
    doc, problem = corpus.check_answer(inst, code, out.getvalue())
    if problem is not None and err.getvalue():
        problem += f" (stderr: {err.getvalue().strip()[:200]})"
    return elapsed, doc, problem


def set_up(workload: str, seed: int, workdir: Path):
    """Import, generate the corpus, write its files, solve once untimed; return the parts and the time."""
    t0 = time.perf_counter()
    modules = import_kfactor()
    items = []
    for i, inst in enumerate(corpus.build_corpus(workload, seed)):
        path = workdir / f"{i:04d}.txt"
        path.write_text(inst.edge_list_text(), encoding="utf-8")
        items.append((inst, str(path)))
    solve(modules["cli"], *items[0])
    return modules, items, time.perf_counter() - t0


class Tally:
    """Answers attempted and the wrong ones, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.wrong = 0
        self.examples: list[str] = []

    def add(self, index: int, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.flag(f"instance {index}: {problem}")

    def flag(self, problem: str) -> None:
        self.wrong += 1
        if len(self.examples) < 5:
            self.examples.append(problem)


def measure_end_to_end(cli, items, seconds: float, tally: Tally) -> list[list[float]]:
    """Cycle through the corpus for `seconds`, and at least once; the solve times of each instance."""
    times: list[list[float]] = [[] for _ in items]
    deadline = time.perf_counter() + seconds
    i = 0
    while i < len(items) or time.perf_counter() < deadline:
        index = i % len(items)
        elapsed, _, problem = solve(cli, *items[index])
        times[index].append(elapsed)
        tally.add(index, problem)
        i += 1
    return times


def one_pass(modules, items, tally: Tally, tracer: layers.Tracer | None) -> tuple[float, int]:
    """Solve every instance once; (summed solve seconds, summed augmentations)."""
    if tracer is not None:
        tracer.install(modules)
    wall = 0.0
    augmentations = 0
    try:
        for index, (inst, path) in enumerate(items):
            elapsed, doc, problem = solve(modules["cli"], inst, path)
            wall += elapsed
            tally.add(index, problem)
            if doc is not None:
                augmentations += doc.get("stats", {}).get("augmentations", 0)
    finally:
        if tracer is not None:
            tracer.restore()
    return wall, augmentations


def measure_layers(modules, items, seconds: float, tally: Tally) -> tuple[dict[str, float], int]:
    """Pairs of an untraced and a traced pass while another pair fits in `seconds`, and at least one.

    Returns the per-pass layer metrics and the number of traced passes.
    """
    tracers: list[layers.Tracer] = []
    plain_wall = traced_wall = 0.0
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        plain_wall += one_pass(modules, items, tally, None)[0]
        tracer = layers.Tracer()
        wall, augmentations = one_pass(modules, items, tally, tracer)
        traced_wall += wall
        tracers.append(tracer)
        now = time.perf_counter()
        if now + (now - start) / len(tracers) > deadline:
            break
    first = tracers[0].counts()
    for n, tracer in enumerate(tracers[1:], start=2):
        if tracer.counts() != first:
            tally.flag(f"traced pass {n} counted differently from pass 1")
    return layers.layer_metrics(tracers, augmentations, traced_wall, plain_wall), len(tracers)


def report(workload: str, items, tally: Tally, metrics: dict, units: dict, notes: list[str]) -> None:
    inst = items[0][0]
    print(f"workload {workload}: {len(items)} distinct instances, n = {inst.n}, "
          f"m = {len(inst.edges)}, k = {inst.k}" + (", --bipartite" if inst.bipartite else ""))
    for note in notes:
        print(note)
    for name, value in metrics.items():
        print(f"  {name:<30} {value:<24.6g} {units[name]}")
    rate = tally.wrong / tally.attempted
    print(f"  {'error_rate':<30} {rate:<24.6g} ratio ({tally.wrong} wrong of {tally.attempted})")
    for example in tally.examples:
        print(f"  wrong: {example}")
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.wrong,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kfactor" / "cli.py").is_file():
        print(f"error: no kfactor sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            modules, items, spent = set_up(args.workload, args.seed, workdir)
            setup_times.append(spent)
        gc.collect()
        tally = Tally()
        notes = []
        if args.trace:
            metrics, passes = measure_layers(modules, items, args.seconds, tally)
            units = layers.LAYER_METRICS
            notes.append(f"{passes} untraced and {passes} traced passes over the corpus; "
                         "times and counts are per pass")
        else:
            times = measure_end_to_end(modules["cli"], items, args.seconds, tally)
            # an instance's time is its fastest solve: other load on the
            # machine only ever adds time, and its repeats are spread over the run
            best = [min(t) for t in times]
            metrics = {
                "solve_s.p50": statistics.median(best),
                "solve_s.p90": statistics.quantiles(best, n=10)[-1],
                "instances_per_s": len(best) / sum(best),
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END
            calls = sum(map(len, times))
            notes.append(f"closed loop, 1 client: {calls} solve calls in {args.seconds:g} s, "
                         f"{min(map(len, times))} to {max(map(len, times))} per instance; "
                         f"solve_s and instances_per_s rest on the fastest call of each of the "
                         f"{len(best)} instances; setup_s is the median of {SETUP_REPEATS} set-ups")
        report(args.workload, items, tally, metrics, units, notes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
