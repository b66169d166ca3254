"""Command-line tests, run in-process through main(argv).

Three subprocess tests at the end check the `kfactor` console script.
test_console_script_is_installed reads the entry point that pyproject.toml
declares and runs it through the launcher an installer would write, in a
fresh interpreter that imports the package under test, so it runs in every
checkout: `--help` exits 0, and a solve's exit code (0 for a factor, 1 for
none) reaches the process. test_console_script_refuses_non_utf8_stdin runs
the same launcher under the C locale and feeds it Latin-1 bytes on stdin,
which must be refused as they are from a file.
test_installed_executable_matches_declaration runs only where the `kfactor`
distribution is installed: its console-script entry point must equal the
declaration, and the `kfactor` executable must answer `--help`. Everything
else uses capsys so the suite stays fast.
"""

from __future__ import annotations

import importlib.metadata
import io
import json
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

import kfactor
from kfactor import cli
from kfactor.cli import main

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

C6 = "6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n"
BOWTIE = "5 6\n0 1\n0 2\n1 2\n2 3\n2 4\n3 4\n"
STAR3 = "4 3\n0 1\n0 2\n0 3\n"


@pytest.fixture
def c6_file(tmp_path):
    path = tmp_path / "c6.txt"
    path.write_text(C6)
    return str(path)


# ---------------------------------------------------------------------------
# solve


def test_solve_prints_factor_and_exits_0(c6_file, capsys):
    code = main(["solve", "--input", c6_file, "--k", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "0 1\n0 5\n1 2\n2 3\n3 4\n4 5\n"


def test_solve_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(C6.encode())))
    code = main(["solve", "--k", "2"])
    assert code == 0
    assert "0 1" in capsys.readouterr().out


def test_solve_no_factor_exits_1(tmp_path, capsys):
    path = tmp_path / "bowtie.txt"
    path.write_text(BOWTIE)
    code = main(["solve", "--input", str(path), "--k", "2"])
    out = capsys.readouterr().out
    assert code == 1
    assert out == "no 2-factor: trail search exhausted\n"


def test_solve_infeasible_also_exits_1(tmp_path, capsys):
    path = tmp_path / "star.txt"
    path.write_text(STAR3)
    code = main(["solve", "--input", str(path), "--k", "2"])
    out = capsys.readouterr().out
    assert code == 1
    assert out == "no 2-factor: minimum degree 1 is below k = 2\n"


def test_solve_bad_graph_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("2 1\n0 0\n")
    code = main(["solve", "--input", str(path), "--k", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: line 2: loop edge at vertex 0\n"


@pytest.mark.parametrize("argv", [["solve", "--k", "1"], ["verify", "FACTOR", "--k", "1"]],
                         ids=["solve", "verify"])
def test_huge_vertex_count_exits_2(argv, tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text("1000000000 0\n")
    factor = tmp_path / "factor.txt"
    factor.write_text("")
    argv = [str(factor) if a == "FACTOR" else a for a in argv]
    code = main(argv + ["--input", str(path)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == "error: line 1: vertex count 1000000000 exceeds the limit of 1000000\n"


@pytest.mark.parametrize("flags", [[], ["--bipartite"]], ids=["edmonds", "bipartite"])
def test_solve_internal_refusal_is_not_reported_as_bad_input(flags, c6_file, monkeypatch, capsys):
    """An engine's refused one-edge augmentation is an internal fault: it
    raises AssertionError instead of exiting 2 with an input error."""
    def refuse(self, e):
        raise ValueError(f"not an augmenting trail: edge {e} is red")

    monkeypatch.setattr(kfactor.KLimitedSubgraph, "augment_edge", refuse)
    with pytest.raises(AssertionError, match="not an augmenting trail: edge 0 is red"):
        main(["solve", "--input", c6_file, "--k", "1", *flags])
    assert capsys.readouterr().err == ""


def test_solve_missing_file_exits_2(tmp_path, capsys):
    code = main(["solve", "--input", str(tmp_path / "nope.txt"), "--k", "1"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_solve_json_document(c6_file, capsys):
    code = main(["solve", "--input", c6_file, "--k", "2", "--json"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.endswith("\n") and out.count("\n") == 1, "the document is one line"
    doc = json.loads(out)
    assert doc["stats"].pop("elapsed_s") > 0
    # json keeps edge-id order, the text form sorts by endpoint pair; no
    # "oracle" key without --oracle-check
    assert doc == {
        "status": "factor_found",
        "k": 2,
        "n": 6,
        "m": 6,
        "factor": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [0, 5]],
        "reason": None,
        "stats": {"augmentations": 6, "trails_examined": 6, "blossom_operations": 0, "deficit": 0},
    }


def test_solve_json_no_factor(tmp_path, capsys):
    path = tmp_path / "bowtie.txt"
    path.write_text(BOWTIE)
    code = main(["solve", "--input", str(path), "--k", "2", "--json"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "no_factor"
    assert doc["factor"] is None
    assert doc["reason"] == "trail search exhausted"
    assert doc["stats"]["deficit"] == 2


@pytest.mark.parametrize("graph, code", [(C6, 0), (BOWTIE, 1)], ids=["factor_found", "no_factor"])
def test_solve_json_bytes(graph, code, tmp_path, capsys):
    # key order and separators are json.dumps's defaults, one line per document
    path = tmp_path / "g.txt"
    path.write_text(graph)
    assert main(["solve", "--input", str(path), "--k", "2", "--json"]) == code
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["status"] == ("factor_found" if code == 0 else "no_factor")
    rebuilt = {
        "status": doc["status"],
        "k": 2,
        "n": doc["n"],
        "m": doc["m"],
        "factor": doc["factor"],
        "reason": doc["reason"],
        "stats": {
            "augmentations": doc["stats"]["augmentations"],
            "trails_examined": doc["stats"]["trails_examined"],
            "blossom_operations": doc["stats"]["blossom_operations"],
            "elapsed_s": doc["stats"]["elapsed_s"],
            "deficit": doc["stats"]["deficit"],
        },
    }
    assert out == json.dumps(rebuilt) + "\n"


def test_solve_trace_goes_to_stderr(c6_file, capsys):
    code = main(["solve", "--input", c6_file, "--k", "2", "--trace"])
    captured = capsys.readouterr()
    assert code == 0
    lines = [l for l in captured.err.splitlines() if l]
    assert lines, "trace produced no events"
    assert all("\t" in l for l in lines)
    events = {l.split("\t")[0] for l in lines}
    assert "accepted" in events and events <= {
        "layer-built", "restricted", "pruned", "extracted", "blossom", "accepted",
    }
    # stdout still carries only the factor
    assert captured.out == "0 1\n0 5\n1 2\n2 3\n3 4\n4 5\n"


def test_solve_oracle_check_agrees(c6_file, capsys):
    code = main(["solve", "--input", c6_file, "--k", "2", "--oracle-check"])
    out = capsys.readouterr().out
    assert code == 0
    assert "oracle: agrees (oracle says factor)" in out


def test_solve_oracle_check_agrees_on_no(tmp_path, capsys):
    path = tmp_path / "bowtie.txt"
    path.write_text(BOWTIE)
    code = main(["solve", "--input", str(path), "--k", "2", "--oracle-check"])
    out = capsys.readouterr().out
    assert code == 1
    assert "oracle: agrees (oracle says no factor)" in out


def test_solve_oracle_check_skips_large(tmp_path, capsys):
    # complete graph on 8 vertices: 28 edges, over the cap of 24
    from itertools import combinations

    pairs = list(combinations(range(8), 2))
    doc = "8 28\n" + "".join(f"{u} {v}\n" for u, v in pairs)
    path = tmp_path / "k8.txt"
    path.write_text(doc)
    code = main(["solve", "--input", str(path), "--k", "7", "--oracle-check"])
    out = capsys.readouterr().out
    assert code == 0
    assert "oracle: skipped (28 edges exceeds cap 24)" in out


def test_solve_oracle_check_in_json(c6_file, capsys):
    code = main(["solve", "--input", c6_file, "--k", "2", "--json", "--oracle-check"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["oracle"] == {"ran": True, "has_factor": True, "agrees": True}


def test_solve_bipartite_flag(c6_file, capsys):
    code = main(["solve", "--input", c6_file, "--k", "2", "--bipartite"])
    assert code == 0
    assert capsys.readouterr().out == "0 1\n0 5\n1 2\n2 3\n3 4\n4 5\n"


def test_solve_bipartite_refuses_odd_cycle(tmp_path, capsys):
    path = tmp_path / "c5.txt"
    path.write_text("5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n")
    code = main(["solve", "--input", str(path), "--k", "2", "--bipartite"])
    assert code == 2
    assert capsys.readouterr().err == "error: graph is not bipartite\n"


@pytest.mark.parametrize("bad_k", ["0", "-2", "x"])
def test_solve_rejects_bad_k(c6_file, bad_k, capsys):
    code = main(["solve", "--input", c6_file, "--k", bad_k])
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--input", "GRAPH", "--k", "1_0"],
        ["verify", "FACTOR", "--input", "GRAPH", "--k", "1_0"],
        ["difftest", "--random", "1_0", "--n", "4", "--p", "0.5", "--k", "1", "--out", "OUT"],
        ["difftest", "--exhaustive", "0_3", "--k", "1", "--out", "OUT"],
        ["difftest", "--random", "1", "--n", "4", "--d", "0_2", "--k", "1", "--out", "OUT"],
        ["difftest", "--random", "1", "--n", "4", "--p", "0.5", "--seed", "1_0", "--k", "1", "--out", "OUT"],
    ],
    ids=["solve", "verify", "difftest", "exhaustive", "d", "seed"],
)
def test_positive_int_options_refuse_digit_separators(argv, c6_file, tmp_path, capsys):
    # int("1_0") is 10; like the graph reader, every integer option takes plain decimals
    factor = tmp_path / "factor.txt"
    factor.write_text("0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n")
    paths = {"GRAPH": c6_file, "FACTOR": str(factor), "OUT": str(tmp_path / "cex")}
    code = main([paths.get(a, a) for a in argv])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    bad = next(a for a in argv if "_" in a)
    assert f"'{bad}' is not an integer" in err


def test_difftest_p_refuses_digit_separators(tmp_path, capsys):
    # float("0_0") is 0.0; --p takes plain decimals, like the integer options
    code = main(["difftest", "--random", "1", "--n", "4", "--p", "0_0", "--k", "1",
                 "--out", str(tmp_path / "cex")])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "'0_0' is not a number" in err


# ---------------------------------------------------------------------------
# verify


def test_verify_valid_factor(c6_file, tmp_path, capsys):
    factor = tmp_path / "factor.txt"
    factor.write_text("0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n")
    code = main(["verify", str(factor), "--input", c6_file, "--k", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "factor valid: every vertex has degree 2\n"


def test_verify_reports_degree_violations(c6_file, tmp_path, capsys):
    factor = tmp_path / "factor.txt"
    factor.write_text("0 1\n2 3\n")
    code = main(["verify", str(factor), "--input", c6_file, "--k", "2"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.splitlines() == [
        "vertex 0: degree 1, expected 2",
        "vertex 1: degree 1, expected 2",
        "vertex 2: degree 1, expected 2",
        "vertex 3: degree 1, expected 2",
        "vertex 4: degree 0, expected 2",
        "vertex 5: degree 0, expected 2",
    ]


def test_verify_accepts_comments_in_factor(c6_file, tmp_path, capsys):
    factor = tmp_path / "factor.txt"
    factor.write_text("# a matching\n0 1\n\n2 3\n4 5\n")
    code = main(["verify", str(factor), "--input", c6_file, "--k", "1"])
    assert code == 0


def test_verify_unknown_edge_exits_2(c6_file, tmp_path, capsys):
    factor = tmp_path / "factor.txt"
    factor.write_text("0 3\n")
    code = main(["verify", str(factor), "--input", c6_file, "--k", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: line 1: unknown edge (0, 3)\n"


@pytest.mark.parametrize("argv", [["verify", "-", "--k", "2"], ["verify", "-", "--input", "-", "--k", "2"]],
                         ids=["default-input", "explicit-input"])
def test_verify_refuses_factor_and_graph_both_on_stdin(argv, monkeypatch, capsys):
    # stdin holds one document; reading it twice would verify an empty factor
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"3 3\n0 1\n1 2\n0 2\n")))
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == "error: the factor and --input cannot both be read from stdin\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--input", "BAD", "--k", "1"],
        ["verify", "GOOD", "--input", "BAD", "--k", "2"],
        ["verify", "BAD", "--input", "GOOD", "--k", "2"],
    ],
    ids=["solve-input", "verify-input", "verify-factor"],
)
def test_non_utf8_file_exits_2(argv, c6_file, tmp_path, capsys):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"3 1\n0 1\n\xff\xfe\n")
    files = {"BAD": str(bad), "GOOD": c6_file}
    code = main([files.get(a, a) for a in argv])
    out, err = capsys.readouterr()
    assert code == 2
    assert err.startswith(f"error: {bad}: not UTF-8 text (")
    assert out == ""


# ---------------------------------------------------------------------------
# difftest


def test_difftest_exhaustive_clean(tmp_path, capsys):
    code = main([
        "difftest", "--exhaustive", "3", "--k", "1", "--k", "2",
        "--out", str(tmp_path / "cex"),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "k-factor differential test report" in out
    assert "n=3 k=1: instances=8" in out
    assert "solver_missed=0 solver_false=0" in out
    assert "wall_time_s=" in out


def test_difftest_random_gnp(tmp_path, capsys):
    code = main([
        "difftest", "--random", "10", "--n", "6", "--p", "0.5",
        "--k", "2", "--seed", "3", "--out", str(tmp_path / "cex"),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "mode=random count=10 n=6 model=gnp p=0.5 seed=3" in out


def test_difftest_random_regular(tmp_path, capsys):
    code = main([
        "difftest", "--random", "5", "--n", "8", "--d", "3",
        "--k", "1", "--out", str(tmp_path / "cex"),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "model=d_regular d=3" in out


def test_difftest_json_output(tmp_path, capsys):
    code = main([
        "difftest", "--exhaustive", "3", "--k", "2", "--json",
        "--out", str(tmp_path / "cex"),
    ])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["totals"]["instances"] == 8
    assert doc["totals"]["solver_false"] == 0


def test_difftest_random_needs_n(tmp_path, capsys):
    code = main(["difftest", "--random", "5", "--p", "0.5", "--k", "1",
                 "--out", str(tmp_path / "cex")])
    assert code == 2
    assert capsys.readouterr().err == "error: --random needs --n\n"


def test_difftest_random_needs_exactly_one_model(tmp_path, capsys):
    base = ["difftest", "--random", "5", "--n", "6", "--k", "1",
            "--out", str(tmp_path / "cex")]
    code = main(base)
    assert code == 2
    assert "exactly one of --p or --d" in capsys.readouterr().err
    code = main(base + ["--p", "0.5", "--d", "3"])
    assert code == 2


def test_difftest_oversized_exhaustive_exits_2(tmp_path, capsys):
    code = main(["difftest", "--exhaustive", "9", "--k", "1",
                 "--out", str(tmp_path / "cex")])
    assert code == 2
    assert "capped at n = 6" in capsys.readouterr().err


def test_difftest_exclusive_sources(tmp_path, capsys):
    code = main(["difftest", "--exhaustive", "3", "--random", "5", "--k", "1",
                 "--out", str(tmp_path / "cex")])
    assert code == 2


# ---------------------------------------------------------------------------
# parser plumbing


def test_no_command_exits_2(capsys):
    assert main([]) == 2


@pytest.mark.parametrize(
    "argv",
    [["frobnicate"], ["bench", "--n", "4,8", "--d", "3", "--k", "1"]],
    ids=["frobnicate", "bench"],
)
def test_unknown_command_exits_2(argv, capsys):
    # bench is not a subcommand: perfbench/run.py is the timing harness
    assert main(argv) == 2


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "solve" in capsys.readouterr().out


def test_parser_is_built_once_and_survives_a_usage_error(c6_file, capsys):
    cli._build_parser.cache_clear()
    assert main(["solve", "--k", "0"]) == 2
    assert main(["solve", "--input", c6_file, "--k", "2"]) == 0
    assert capsys.readouterr().out == "0 1\n0 5\n1 2\n2 3\n3 4\n4 5\n"
    assert cli._build_parser.cache_info().misses == 1


def _declared_entry_point() -> str:
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["kfactor"]


def _run_launcher(args, cwd, stdin=None, env=None):
    """Run the declared entry point as an installer's launcher script would.

    A bytes stdin is passed through raw, and the output comes back as bytes.
    """
    module, attr = _declared_entry_point().split(":")
    launcher = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    return _run_python(["-c", launcher, *args], cwd, stdin, env)


def _run_python(python_args, cwd, stdin=None, env=None):
    """Run this interpreter with the kfactor package importable and nothing installed."""
    package_root = Path(kfactor.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, *python_args],
        input=stdin, capture_output=True, text=not isinstance(stdin, bytes), timeout=60,
        cwd=cwd, env={**os.environ, "PYTHONPATH": str(package_root), **(env or {})},
    )


def test_console_script_is_installed(tmp_path):
    proc = _run_launcher(["--help"], tmp_path)
    assert proc.returncode == 0
    assert "differential" in proc.stdout
    assert _run_launcher(["solve", "--k", "2"], tmp_path, stdin=C6).returncode == 0
    assert _run_launcher(["solve", "--k", "2"], tmp_path, stdin=BOWTIE).returncode == 1


def test_python_dash_m_kfactor_runs_the_cli(tmp_path):
    proc = _run_python(["-m", "kfactor", "--help"], tmp_path)
    assert proc.returncode == 0
    assert "differential" in proc.stdout
    assert _run_python(["-m", "kfactor", "solve", "--k", "2"], tmp_path, stdin=C6).returncode == 0


def test_console_script_refuses_non_utf8_stdin(tmp_path):
    # the C locale gives sys.stdin a surrogateescape decoder; stdin must
    # still refuse bytes that are not UTF-8, exactly as --input does
    latin1 = b"3 1\n0 1\n# caf\xe9\n"
    proc = _run_launcher(["solve", "--k", "1"], tmp_path, stdin=latin1, env={"LC_ALL": "C"})
    assert proc.returncode == 2
    assert proc.stderr.startswith(b"error: <stdin>: not UTF-8 text (")
    assert proc.stdout == b""


def _kfactor_distribution_missing() -> bool:
    try:
        importlib.metadata.distribution("kfactor")
    except importlib.metadata.PackageNotFoundError:
        return True
    return False


@pytest.mark.skipif(
    _kfactor_distribution_missing(),
    reason="the kfactor distribution is not installed (pip install -e .)",
)
def test_installed_executable_matches_declaration(tmp_path):
    entry_points = importlib.metadata.distribution("kfactor").entry_points
    (entry,) = entry_points.select(group="console_scripts", name="kfactor")
    assert entry.value == _declared_entry_point()
    search = os.pathsep.join([sysconfig.get_path("scripts"), os.environ.get("PATH", "")])
    exe = shutil.which("kfactor", path=search)
    assert exe is not None, f"no kfactor executable on {search}"
    proc = subprocess.run(
        [exe, "--help"], capture_output=True, text=True, timeout=60, cwd=tmp_path
    )
    assert proc.returncode == 0
    assert "differential" in proc.stdout
