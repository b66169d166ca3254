"""Tests for the differential-test harness.

The interesting paths are the failure ones, which never fire with the real
solver, so they are driven with deliberately broken solve functions
injected through solve_fn.
"""

from __future__ import annotations

import json

import pytest

from kfactor import Graph, parse_graph
from kfactor.difftest import DiffConfig, DiffReport, DiffRow, _instances, run_difftest
from kfactor.solver import FACTOR_FOUND, NO_FACTOR, SolveOutcome, compute_k_factor

from bruteforce import has_factor


def exhaustive_config(tmp_path, n=3, k_values=(1, 2)):
    return DiffConfig(mode="exhaustive", n=n, k_values=k_values, out_dir=str(tmp_path))


# broken solvers for harness testing


def blind_solver(g, k):
    return SolveOutcome(NO_FACTOR, None, reason="pretending nothing exists")


def lying_solver(g, k):
    return SolveOutcome(FACTOR_FOUND, [0] if g.m else [])


def crashing_solver(g, k):
    raise RuntimeError("boom")


# ---------------------------------------------------------------------------
# instance streams


def test_exhaustive_stream_counts():
    graphs = list(_instances(DiffConfig("exhaustive", 3, (1,), "unused")))
    assert len(graphs) == 8
    assert sorted(g.m for g in graphs) == [0, 1, 1, 1, 2, 2, 2, 3]


def test_random_stream_is_seeded():
    cfg = DiffConfig("random", 6, (1,), "unused", count=5, model="gnp", p=0.5, seed=9)
    a = [g.endpoints for g in _instances(cfg)]
    b = [g.endpoints for g in _instances(cfg)]
    assert a == b and len(a) == 5


def test_regular_stream_has_constant_degree():
    cfg = DiffConfig("random", 8, (1,), "unused", count=3, model="d_regular", d=3, seed=1)
    for g in _instances(cfg):
        assert all(g.degree(v) == 3 for v in range(8))


def test_unknown_mode_and_model_raise():
    with pytest.raises(ValueError, match="unknown mode 'fuzz'"):
        list(_instances(DiffConfig("fuzz", 3, (1,), "unused")))
    bad = DiffConfig("random", 3, (1,), "unused", count=1, model="scale_free")
    with pytest.raises(ValueError, match="unknown model 'scale_free'"):
        list(_instances(bad))


# ---------------------------------------------------------------------------
# clean runs


def test_exhaustive_run_is_clean(tmp_path):
    report = run_difftest(exhaustive_config(tmp_path, n=4, k_values=(1, 2, 3)))
    assert report.exit_code() == 0
    assert report.total("solver_missed") == 0
    assert report.total("solver_false") == 0
    assert report.total("instances") == 64 * 3
    assert report.total("agree_yes") + report.total("agree_no") == 64 * 3
    assert report.counterexamples == []
    assert list(tmp_path.iterdir()) == []
    # spot-check one bucket against the reference
    row = next(r for r in report.rows if r.k == 1)
    yes = sum(1 for g in _instances(exhaustive_config(tmp_path, n=4)) if has_factor(g, 1))
    assert row.agree_yes == yes


def test_random_run_is_clean(tmp_path):
    cfg = DiffConfig(
        "random", 7, (1, 2), str(tmp_path), count=40, model="gnp", p=0.6, seed=11
    )
    report = run_difftest(cfg)
    assert report.exit_code() == 0
    assert report.total("instances") == 80
    assert report.total("oracle_skipped") == 0  # 21 edges max, under the cap


# ---------------------------------------------------------------------------
# failure paths, via injected solvers


def test_blind_solver_yields_missed_and_exit_1(tmp_path):
    report = run_difftest(exhaustive_config(tmp_path, n=3), solve_fn=blind_solver)
    assert report.exit_code() == 1
    assert report.total("solver_missed") > 0
    assert report.total("solver_false") == 0
    assert all(kind == "solver_missed" for _, kind in report.counterexamples)
    assert len(report.counterexamples) == report.total("solver_missed")


def test_lying_solver_yields_false_and_exit_2(tmp_path):
    report = run_difftest(exhaustive_config(tmp_path, n=3), solve_fn=lying_solver)
    assert report.exit_code() == 2
    assert report.total("solver_false") > 0


def test_crashing_solver_is_soundness_failure(tmp_path):
    report = run_difftest(exhaustive_config(tmp_path, n=3), solve_fn=crashing_solver)
    assert report.exit_code() == 2
    assert report.total("solver_false") == report.total("instances")
    name, kind = report.counterexamples[0]
    body = (tmp_path / name).read_text()
    assert "solver raised: RuntimeError('boom')" in body


def test_exit_code_prefers_soundness_over_completeness(tmp_path):
    def half_broken(g, k):
        if g.m == 0:
            return SolveOutcome(FACTOR_FOUND, [0])  # invalid: no edge 0
        return SolveOutcome(NO_FACTOR, None)

    report = run_difftest(exhaustive_config(tmp_path, n=3), solve_fn=half_broken)
    assert report.total("solver_false") > 0
    assert report.total("solver_missed") > 0
    assert report.exit_code() == 2


def test_counterexample_files_round_trip(tmp_path):
    report = run_difftest(exhaustive_config(tmp_path, n=3), solve_fn=blind_solver)
    assert report.counterexamples
    for name, kind in report.counterexamples:
        assert name.startswith("cex_") and name.endswith(".txt")
        stem = name[len("cex_") : -len(".txt")]
        digest, knum = stem.rsplit("_k", 1)
        assert len(digest) == 12 and int(knum) in (1, 2)
        body = (tmp_path / name).read_text()
        assert f"# reproduce: kfactor solve --input {name} --k {knum} --oracle-check" in body
        g = parse_graph(body)
        assert g.n == 3


def test_broken_oracle_is_reported_loudly(tmp_path, monkeypatch):
    # a solver-yes with a verified factor where the oracle says no cannot be
    # blamed on the solver; the harness must refuse to continue
    import kfactor.difftest as dt

    monkeypatch.setattr(dt, "brute_force_k_factor", lambda g, k: None)
    cfg = exhaustive_config(tmp_path, n=3, k_values=(2,))  # the triangle says yes
    with pytest.raises(RuntimeError, match="the oracle is broken"):
        run_difftest(cfg, solve_fn=compute_k_factor)


def test_oracle_skipped_bucket(tmp_path):
    # n = 12 at p = 1.0 has 66 edges, far over the default cap of 24
    cfg = DiffConfig(
        "random", 12, (2,), str(tmp_path), count=3, model="gnp", p=1.0, seed=5
    )
    report = run_difftest(cfg)
    assert report.total("oracle_skipped") == 3
    assert report.total("agree_yes") == 0 and report.total("agree_no") == 0
    assert report.exit_code() == 0


# ---------------------------------------------------------------------------
# report rendering


def test_render_is_deterministic_without_timing(tmp_path):
    cfg = exhaustive_config(tmp_path, n=3)
    a = run_difftest(cfg).render(include_timing=False)
    b = run_difftest(cfg).render(include_timing=False)
    assert a == b
    assert a.startswith("k-factor differential test report\n")
    assert "config: mode=exhaustive n=3 k=1,2 oracle_edge_cap=24" in a
    assert "counterexamples (0): none" in a
    assert "wall_time_s" not in a


def test_render_includes_timing_by_default(tmp_path):
    report = run_difftest(exhaustive_config(tmp_path, n=3))
    assert "wall_time_s=" in report.render()


def test_render_lists_counterexamples(tmp_path):
    report = run_difftest(exhaustive_config(tmp_path, n=3), solve_fn=blind_solver)
    text = report.render(include_timing=False)
    assert f"counterexamples ({len(report.counterexamples)}):" in text
    assert "solver_missed  cex_" in text


def test_random_config_line_mentions_model(tmp_path):
    cfg = DiffConfig(
        "random", 8, (2,), str(tmp_path), count=2, model="d_regular", d=3, seed=4
    )
    text = run_difftest(cfg).render(include_timing=False)
    assert "mode=random count=2 n=8 model=d_regular d=3 seed=4" in text


def test_to_dict_is_json_ready(tmp_path):
    report = run_difftest(exhaustive_config(tmp_path, n=3))
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["totals"]["instances"] == 16
    assert payload["totals"]["solver_false"] == 0
    assert payload["counterexamples"] == []
    assert [row["k"] for row in payload["rows"]] == [1, 2]


def test_rows_sorted_in_output(tmp_path):
    cfg = exhaustive_config(tmp_path, n=3, k_values=(3, 1, 2))
    report = run_difftest(cfg)
    text = report.render(include_timing=False)
    i1, i2, i3 = (text.index(f"n=3 k={k}:") for k in (1, 2, 3))
    assert i1 < i2 < i3


def test_diff_row_defaults():
    row = DiffRow(5, 2)
    assert (row.instances, row.agree_yes, row.agree_no) == (0, 0, 0)
    assert (row.solver_missed, row.solver_false, row.oracle_skipped) == (0, 0, 0)
