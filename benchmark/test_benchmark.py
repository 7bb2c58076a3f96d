"""Tests of the benchmark itself.

    python3 -m pytest benchmark/test_benchmark.py -q

Each workload of BENCHMARK.json runs at its smallest size (its first case,
one pair of rounds), traced and untraced, and must print exactly the metric
names BENCHMARK.json lists.  The gate must reject corrupted solutions.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import gate  # noqa: E402
import record  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from rampsched import Bounds, ProcessParams, scheduler  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def smallest(name: str) -> workloads.Workload:
    w = workloads.WORKLOADS[name]
    return dataclasses.replace(w, cases=w.cases[:1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_printed_metrics_match_spec(name, trace):
    rec, line = run.measure(smallest(name), seed=1, seconds=0, trace=bool(trace))
    out = json.loads(line)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())
    assert out["attempted"] == len(rec["ops"]) >= 1
    assert out["correct"] is True


def test_workload_names_and_seeded_inputs():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    for w in workloads.WORKLOADS.values():
        a = workloads.round_ops(w, 7, 0)
        assert a == workloads.round_ops(w, 7, 0)
        assert a != workloads.round_ops(w, 8, 0)


def test_round_pairs_mirror_their_draws():
    ramp = workloads.WORKLOADS["ramp"]
    even, odd = (workloads.round_ops(ramp, 7, r) for r in (0, 1))
    for a, b in zip(even, odd):
        assert a.args["elem_h"] == b.args["elem_h"]
        assert abs(a.args["horizon"] - b.args["horizon"]) == pytest.approx(a.args["elem_h"])
    dr = workloads.WORKLOADS["dr-short"]
    even, odd = (workloads.round_ops(dr, 7, r) for r in (0, 1))
    for a, b in zip(even, odd):
        mid = np.add(a.args["market"].el_price, b.args["market"].el_price) / 2
        assert np.allclose(mid, scheduler.two_level_market(a.args["horizon_h"]).el_price)


def test_failed_op_counts_at_baseline_ratio():
    w = workloads.WORKLOADS["ramp"]
    tau = 0.5
    base = workloads.sbm_ramp_h("up", tau, Bounds())
    body = dict(sbm_tau_h=tau, ops=[
        dict(op="up@3/h+0", passed=True, ramp_time_h=0.5 * base),
        dict(op="down@2/h+0", passed=False)])
    q = workloads.quality(w, body)
    assert q["ratios"] == pytest.approx([0.5, 1.0])
    assert q["ramp_up_h"] == [0.5 * base] and q["ramp_down_h"] == []
    dr = workloads.WORKLOADS["dr-short"]
    body = dict(ops=[
        dict(op="2h-steady", market=0, passed=True, objective=10.0),
        dict(op="2h-flexible", market=0, passed=True, objective=9.0),
        dict(op="3h-steady", market=1, passed=True, objective=20.0),
        dict(op="2h-steady", market=2, passed=True, objective=10.0),
        dict(op="2h-flexible", market=2, passed=False, objective=None)])
    q = workloads.quality(dr, body)
    assert q["ratios"] == pytest.approx([0.9, 1.0])
    assert q["cost_ratio"] == pytest.approx([0.9])


def test_wrapper_cost_is_small_and_positive():
    from tracing import Tracer
    assert 0.0 <= Tracer.wrapper_cost_s(calls=2000, reps=3) < 1e-3


def test_correct_only_while_no_claimed_solution_fails():
    body = dict(rounds=1, setup_s=[1.0], setup_cpu_s=[1.0], sbm_tau_h=1.0,
                artifacts={}, end_to_end={}, ops=[
                    dict(op="a", claimed=False, passed=False),      # time-out
                    dict(op="b", claimed=True, passed=True)])
    w = workloads.WORKLOADS["ramp"]
    rec = record.build(w, 1, 0.0, False, body, ROOT, 1)
    assert (rec["correct"], rec["attempted"], rec["failed"]) == (True, 2, 1)
    body["ops"][1]["passed"] = False                                  # wrong answer
    rec = record.build(w, 1, 0.0, False, body, ROOT, 1)
    assert (rec["correct"], rec["wrong_ops"]) == (False, ["b"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("records", "__pycache__"))
    cmd = SPEC["command"] + ["--workload", SPEC["workloads"][0]["name"],
                             "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.fixture(scope="module")
def solved():
    """A 2 h steady schedule with its MIP, solution and artifacts."""
    w = workloads.WORKLOADS["dr-short"]
    p, b = ProcessParams(), Bounds()
    art = workloads.setup(w, p, b)
    capture = workloads.Capture()
    capture.install()
    try:
        sp = scheduler.ScheduleProblem(art.env, art.demand, scheduler.desk_components(),
                                       scheduler.two_level_market(2), 2,
                                       time_limit_s=30.0, fix_steady=True)
        res, sol = scheduler.solve_schedule(sp)
    finally:
        capture.uninstall()
    mip, _ = capture.calls[0]
    return dict(art=art, res=res, sol=sol, mip=mip, p=p, b=b, w=w)


def test_gate_accepts_the_solved_schedule(solved):
    s = solved
    assert gate.solution_reasons(s["mip"], s["sol"], s["w"].gap_tol) == []
    res = s["res"]
    assert gate.trajectory_reasons(s["art"].env, res.rho, res.rho_dot, res.nu) == []
    assert gate.schedule_reasons(res, s["sol"].objective, None, s["w"].gap_tol) == []
    bad, figures = gate.validate(res.times, res.rho, res.rho_dot, res.nu,
                                 s["art"].strat, s["p"], s["b"])
    assert bad == [] and figures["steps"] == 200


def test_gate_rejects_perturbed_x(solved):
    sol = dataclasses.replace(solved["sol"], x=solved["sol"].x + 0.5)
    assert any("check_solution" in r
               for r in gate.solution_reasons(solved["mip"], sol, 0.02))


def test_gate_rejects_time_limit_placeholder(solved):
    sol = dataclasses.replace(solved["sol"], x=np.zeros_like(solved["sol"].x),
                              objective=float("inf"), status="time-limit", gap=float("inf"))
    reasons = gate.solution_reasons(solved["mip"], sol, 0.02)
    assert any("status time-limit" in r for r in reasons)


def test_gate_rejects_negative_terminal_storage(solved):
    res = solved["res"]
    storage = res.storage.copy()
    storage[-1] = -1.0
    bad = dataclasses.replace(res, storage=storage)
    assert any("terminal storage" in r
               for r in gate.schedule_reasons(bad, solved["sol"].objective, None, 0.02))


def test_gate_rejects_cost_mismatch_and_dearer_flexible(solved):
    res, obj = solved["res"], solved["sol"].objective
    reasons = gate.schedule_reasons(res, obj * 1.01, obj / 1.1, 0.02)
    assert any("cost split" in r for r in reasons)
    assert any("above steady" in r for r in reasons)


def test_gate_rejects_points_outside_envelope(solved):
    res = solved["res"]
    nu = res.nu.copy()
    nu[1] = 1e3
    assert gate.trajectory_reasons(solved["art"].env, res.rho, res.rho_dot, nu)


def test_gate_rejects_infeasible_plant_replay(solved):
    s = solved
    res = s["res"]
    rho = np.full_like(res.rho, s["b"].rho[1] * 1.05)     # above the rate bound
    bad, _ = gate.validate(res.times, rho, res.rho_dot, res.nu,
                           s["art"].strat, s["p"], s["b"])
    assert bad
