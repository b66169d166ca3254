"""Command line: solve, verify and difftest.

Exit codes:
    solve:    0 factor printed, 1 no factor, 2 bad input or usage.
    verify:   0 factor valid, 1 degree violations, 2 bad input or usage.
    difftest: 0 clean, 1 completeness gaps only, 2 soundness failures or errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

from .difftest import DiffConfig, run_difftest
from .graph import Graph, GraphFormatError, parse_graph
from .oracle import DEFAULT_EDGE_CAP, brute_force_k_factor
from .solver import FACTOR_FOUND, compute_bipartite_k_factor, compute_k_factor, verify_factor
from .subgraph import parse_factor, serialize_factor


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process; parse_args does not change it."""
    parser = argparse.ArgumentParser(prog="kfactor", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="compute a k-factor of an edge-list graph")
    solve.add_argument("--input", default="-", help="edge-list path, or - for stdin")
    solve.add_argument("--k", type=_positive_int, required=True)
    solve.add_argument("--json", action="store_true", help="structured result document")
    solve.add_argument("--trace", action="store_true", help="search events on stderr")
    solve.add_argument("--oracle-check", action="store_true",
                       help="also run the brute-force oracle when within its cap")
    solve.add_argument("--bipartite", action="store_true",
                       help="use the bipartite path engine (refuses odd cycles)")
    solve.set_defaults(func=_cmd_solve)

    verify = sub.add_parser("verify", help="check a factor file against a graph")
    verify.add_argument("factor", help="factor file, one 'u v' line per edge")
    verify.add_argument("--input", default="-", help="edge-list path, or - for stdin")
    verify.add_argument("--k", type=_positive_int, required=True)
    verify.set_defaults(func=_cmd_verify)

    diff = sub.add_parser("difftest", help="differential-test the solver against the oracle")
    source = diff.add_mutually_exclusive_group(required=True)
    source.add_argument("--exhaustive", type=int, metavar="N",
                        help="all labeled graphs on exactly N vertices")
    source.add_argument("--random", type=_positive_int, metavar="COUNT",
                        help="COUNT seeded random instances")
    diff.add_argument("--n", type=_positive_int, help="vertex count for random mode")
    diff.add_argument("--p", type=float, help="gnp edge probability")
    diff.add_argument("--d", type=int, help="regular model degree")
    diff.add_argument("--k", type=_positive_int, action="append", required=True,
                      help="k value to test, repeatable")
    diff.add_argument("--seed", type=int, default=0)
    diff.add_argument("--out", default="difftest-out", help="counterexample directory")
    diff.add_argument("--json", action="store_true")
    diff.set_defaults(func=_cmd_difftest)

    return parser


class _NotText(Exception):
    """An input that does not decode as UTF-8; the message names the input."""


def _read_text(path: str) -> str:
    """Read stdin ("-") or a file as bytes and decode strictly, whatever the locale."""
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        name = "<stdin>" if path == "-" else path
        raise _NotText(f"{name}: not UTF-8 text ({exc})") from None


def _load_graph(path: str) -> Graph:
    return parse_graph(_read_text(path))


def _print_trace(event: str, *fields) -> None:
    print("\t".join([event, *map(str, fields)]), file=sys.stderr)


def _cmd_solve(args) -> int:
    try:
        g = _load_graph(args.input)
    except (OSError, GraphFormatError, _NotText) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    trace = _print_trace if args.trace else None
    try:
        if args.bipartite:
            outcome = compute_bipartite_k_factor(g, args.k, trace=trace)
        else:
            outcome = compute_k_factor(g, args.k, trace=trace)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    oracle_doc = None
    oracle_note = None
    if args.oracle_check:
        if g.m <= DEFAULT_EDGE_CAP:
            oracle_factor = brute_force_k_factor(g, args.k)
            oracle_yes = oracle_factor is not None
            solver_yes = outcome.status == FACTOR_FOUND
            oracle_doc = {"ran": True, "has_factor": oracle_yes, "agrees": oracle_yes == solver_yes}
            oracle_note = (
                f"oracle: {'agrees' if oracle_doc['agrees'] else 'DISAGREES'}"
                f" (oracle says {'factor' if oracle_yes else 'no factor'})"
            )
        else:
            oracle_doc = {"ran": False, "has_factor": None, "agrees": None}
            oracle_note = f"oracle: skipped ({g.m} edges exceeds cap {DEFAULT_EDGE_CAP})"

    if args.json:
        doc = {
            "status": outcome.status,
            "k": args.k,
            "n": g.n,
            "m": g.m,
            "factor": None if outcome.factor is None
            else [g.endpoints[e] for e in outcome.factor],
            "reason": outcome.reason,
            "stats": dataclasses.asdict(outcome.stats),
        }
        if oracle_doc is not None:
            doc["oracle"] = oracle_doc
        print(json.dumps(doc))
    else:
        if outcome.status == FACTOR_FOUND:
            sys.stdout.write(serialize_factor(g, outcome.factor))
        else:
            print(f"no {args.k}-factor: {outcome.reason}")
        if oracle_note:
            print(oracle_note)
    return 0 if outcome.status == FACTOR_FOUND else 1


def _cmd_verify(args) -> int:
    if args.factor == "-" and args.input == "-":
        print("error: the factor and --input cannot both be read from stdin", file=sys.stderr)
        return 2
    try:
        g = _load_graph(args.input)
        factor_text = _read_text(args.factor)
        edges = parse_factor(g, factor_text)
    except (OSError, GraphFormatError, _NotText) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ok, report = verify_factor(g, args.k, edges)
    if ok:
        print(f"factor valid: every vertex has degree {args.k}")
        return 0
    for v in sorted(report):
        print(f"vertex {v}: degree {report[v]}, expected {args.k}")
    return 1


def _cmd_difftest(args) -> int:
    if args.exhaustive is not None:
        config = DiffConfig(
            mode="exhaustive",
            n=args.exhaustive,
            k_values=tuple(args.k),
            out_dir=args.out,
        )
    else:
        if args.n is None:
            print("error: --random needs --n", file=sys.stderr)
            return 2
        if (args.p is None) == (args.d is None):
            print("error: --random needs exactly one of --p or --d", file=sys.stderr)
            return 2
        model = "gnp" if args.p is not None else "d_regular"
        config = DiffConfig(
            mode="random",
            n=args.n,
            k_values=tuple(args.k),
            out_dir=args.out,
            count=args.random,
            model=model,
            p=args.p if args.p is not None else 0.0,
            d=args.d if args.d is not None else 0,
            seed=args.seed,
        )
    try:
        report = run_difftest(config)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        sys.stdout.write(report.render())
    return report.exit_code()


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
