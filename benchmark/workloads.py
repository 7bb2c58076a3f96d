"""Workloads: seeded inputs, the closed-loop op runner and its metrics.

One client in one process runs one op at a time.  A run first derives the
artifacts (`setup`) SETUP_REPS times and keeps the last copy, then runs
pairs of rounds of ops until the measuring time is spent.  Each round is
built from the seed and the round number alone, so the same seed gives the
same ops.
An op is one solve plus the correctness gate; a failed op is recorded and
the run goes on.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
import traceback
import warnings
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from rampsched import Bounds, ProcessParams, envelope, scheduler, transform

import gate
from tracing import Tracer

SETUP_REPS = 3
PTS = 2                    # collocation points per element (program default)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str              # "ramp" or "schedule"
    budget_s: float        # solver time limit handed to every op
    gap_tol: float         # the program's default tolerance for this kind
    # ramp: (direction, elements per hour); schedule: (horizon in h,
    # fix_steady values to solve the market with, in order)
    cases: tuple


# The ramp and dr-short cases are the ones the program solves within a few
# seconds, each far inside its budget, so op times measure the program and not
# the budget; a regression that pushes an op into the limit reads as the
# budget.  The cases that hit the limit today (finer ramps, 3 h flexible, 4 h)
# are left to dr-day, which shows that state.
WORKLOADS = {
    w.name: w for w in (
        Workload("ramp", "ramp", 20.0, 0.03,
                 (("up", 3), ("up", 4), ("down", 2))),
        Workload("dr-short", "schedule", 20.0, 0.02,
                 ((2, (True, False)), (3, (True,)))),
        Workload("dr-day", "schedule", 10.0, 0.02, ((24, (True, False)),)),
    )
}

RAMP_HORIZON_H = {"up": 2.5, "down": 4.0}     # solve_ramp's defaults
PRICE_JITTER = 0.01                           # relative spread of market inputs


@dataclass(frozen=True)
class Op:
    label: str
    args: dict
    market: int = -1        # ops of one market share an index


def round_ops(w: Workload, seed: int, rnd: int) -> list[Op]:
    """The ops of round `rnd`, drawn from (seed, rnd // 2) only.

    Rounds come in pairs: the odd round mirrors the even one's draws (the
    other horizon of each ramp, the jitter reflected about 1), so that a run
    of whole pairs holds every case at both sizes equally often."""
    rng = np.random.default_rng([seed, rnd // 2])
    mirror = rnd % 2 == 1
    ops = []
    if w.kind == "ramp":
        for direction, per_h in w.cases:
            # 0 or 1 element past the default horizon
            extra = int(rng.integers(0, 2)) ^ mirror
            n_elem = math.ceil(RAMP_HORIZON_H[direction] * per_h - 1e-9) + extra
            ops.append(Op(f"{direction}@{per_h}/h+{extra}",
                          dict(direction=direction, horizon=n_elem / per_h,
                               elem_h=1.0 / per_h)))
        return ops
    for i, (h, fixes) in enumerate(w.cases):
        # the bundled two-level market with jittered levels and demands;
        # CHP el_eff * el_price stays below the gas price
        j = rng.uniform(1.0 - PRICE_JITTER, 1.0 + PRICE_JITTER, 4)
        if mirror:
            j = 2.0 - j
        market = scheduler.two_level_market(h, high=0.06 * j[0], low=0.01 * j[1],
                                            heat_kw=100.0 * j[2], el_kw=100.0 * j[3])
        for fix in fixes:
            ops.append(Op(f"{h}h-{'steady' if fix else 'flexible'}",
                          dict(horizon_h=h, market=market, fix_steady=fix),
                          market=rnd * len(w.cases) + i))
    return ops


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

@dataclass
class Artifacts:
    strat: object
    env: object
    demand: object


def setup(w: Workload, p, b) -> Artifacts:
    strat, _ = transform.fit_operating_strategy(p, b)
    env = envelope.derive_envelope(strat, p, b)
    demand = envelope.fit_demand_pwa(strat, p, b, env) if w.kind == "schedule" else None
    return Artifacts(strat, env, demand)


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

class Capture:
    """Keeps (mip, solution) of every scheduler branch-and-bound call, which
    the public solve functions do not return."""

    def __init__(self):
        self.calls: list = []
        self._orig = None

    def install(self) -> None:
        self._orig = orig = scheduler.branch_and_bound

        def branch_and_bound(mip, *args, **kwargs):
            sol = orig(mip, *args, **kwargs)
            self.calls.append((mip, sol))
            return sol

        scheduler.branch_and_bound = branch_and_bound

    def uninstall(self) -> None:
        scheduler.branch_and_bound = self._orig


def _solve(op: Op, w: Workload, art: Artifacts):
    """RampResult or ScheduleResult; both carry times, rho, rho_dot, nu."""
    if w.kind == "ramp":
        return scheduler.solve_ramp(op.args["direction"], art.env,
                                    horizon=op.args["horizon"], elem_h=op.args["elem_h"],
                                    pts=PTS, gap_tol=w.gap_tol, time_limit_s=w.budget_s)
    sp = scheduler.ScheduleProblem(
        art.env, art.demand, scheduler.desk_components(), op.args["market"],
        op.args["horizon_h"], pts=PTS, gap_tol=w.gap_tol,
        time_limit_s=w.budget_s, fix_steady=op.args["fix_steady"])
    return scheduler.solve_schedule(sp)[0]


def _mip_size(mip) -> dict:
    return dict(vars=mip.n_vars, binaries=mip.n_integer, rows=len(mip.rows),
                nnz=sum(len(r.coeffs) for r in mip.rows))


def run_op(op: Op, w: Workload, art: Artifacts, p, b, capture: Capture,
           steady_cost: dict, tracer: Tracer | None) -> dict:
    """Solve one op and gate it; never raises."""
    rec = dict(op=op.label, market=op.market, status="error", claimed=False,
               passed=False, reasons=[])
    capture.calls.clear()
    t0, c0 = time.perf_counter(), time.process_time()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            with _phase(tracer, "op.solve"):
                res = _solve(op, w, art)
            with _phase(tracer, "op.gate"):
                rec["reasons"] = _gate(op, w, art, p, b, capture, res, steady_cost, rec)
        except Exception as exc:      # a failing op is counted, never fatal
            rec["reasons"].append(f"{type(exc).__name__}: {exc}")
            rec["traceback"] = traceback.format_exc(limit=4)
            if capture.calls:
                rec["status"] = capture.calls[-1][1].status
    rec["seconds"] = time.perf_counter() - t0
    rec["cpu_s"] = time.process_time() - c0
    rec["passed"] = not rec["reasons"]
    rec["warnings"] = [f"{x.category.__name__}: {x.message}" for x in caught]
    rec["lp_failures"] = sum("node LP failed" in str(x.message) for x in caught)
    if w.kind == "schedule" and op.args["fix_steady"] and rec["passed"]:
        steady_cost[op.market] = rec["objective"]
    return rec


def _gate(op, w, art, p, b, capture, res, steady_cost, rec) -> list[str]:
    if len(capture.calls) != 1:
        return [f"expected one branch-and-bound call, saw {len(capture.calls)}"]
    mip, sol = capture.calls[0]
    rec.update(status=sol.status, claimed=gate.claims_solution(sol, w.gap_tol),
               gap=_finite(sol.gap), objective=_finite(sol.objective),
               nodes=sol.node_count,
               root_bound=sol.bound_history[0] if sol.bound_history else None,
               time_limit_s=w.budget_s, mip=_mip_size(mip))
    reasons = gate.solution_reasons(mip, sol, w.gap_tol)
    reasons += gate.trajectory_reasons(art.env, res.rho, res.rho_dot, res.nu)
    if w.kind == "ramp":
        rec["ramp_time_h"] = res.ramp_time
        if res.ramp_time is None:
            reasons.append("target production rate not reached")
    else:
        steady = None if op.args["fix_steady"] else steady_cost.get(op.market)
        reasons += gate.schedule_reasons(res, sol.objective, steady, w.gap_tol)
    if reasons:
        return reasons       # the replay needs a solution worth replaying
    bad, figures = gate.validate(res.times, res.rho, res.rho_dot, res.nu, art.strat, p, b)
    rec["validation"] = figures
    return bad


def _phase(tracer: Tracer | None, name: str):
    return tracer.phase(name) if tracer else nullcontext()


def _finite(v):
    return float(v) if v is not None and math.isfinite(v) else None


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def run(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run pairs of rounds of ops for `seconds` (at least one pair),
    return the run record body.  An untraced run sets up SETUP_REPS times;
    a traced run sets up once, traced."""
    p, b = ProcessParams(), Bounds()
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    setup_s, setup_cpu_s = [], []
    try:
        for _ in range(1 if tracer else SETUP_REPS):
            t0, c0 = time.perf_counter(), time.process_time()
            with _phase(tracer, "setup"):
                art = setup(w, p, b)
            setup_s.append(time.perf_counter() - t0)
            setup_cpu_s.append(time.process_time() - c0)
    except BaseException:
        if tracer:
            tracer.uninstall()
        raise

    capture = Capture()
    capture.install()
    ops, steady_cost = [], {}
    t_start = time.perf_counter()
    rnd = 0
    try:
        while rnd % 2 == 1 or rnd == 0 or time.perf_counter() - t_start < seconds:
            for op in round_ops(w, seed, rnd):
                with _phase(tracer, "op"):
                    rec = run_op(op, w, art, p, b, capture, steady_cost, tracer)
                rec["round"] = rnd
                ops.append(rec)
            rnd += 1
    finally:
        capture.uninstall()
        if tracer:
            tracer.uninstall()

    body = dict(
        setup_s=setup_s, setup_cpu_s=setup_cpu_s, rounds=rnd, ops=ops,
        sbm_tau_h=envelope.max_tau(art.strat, p, b) if w.kind == "ramp" else None,
        artifacts=dict(coverage_mean=art.env.coverage.mean,
                       coverage_min=art.env.coverage.min,
                       demand_mae_rel=art.demand.mae_pwa_rel if art.demand else None),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    body["end_to_end"] = end_to_end(w, body)
    if tracer:
        body["per_layer"] = per_layer(w, body, tracer)
        body["tracer"] = tracer
    return body


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def sbm_ramp_h(direction: str, tau: float, b) -> float:
    """Time a first-order set-point filter with time constant `tau` needs to
    come within 1 % of the target rate, the criterion of RampResult.ramp_time."""
    lo, hi = b.rho
    start, target = (lo, hi) if direction == "up" else (hi, lo)
    return tau * math.log(abs(target - start) / (0.01 * abs(target)))


def quality(w: Workload, body: dict) -> dict:
    """Ramp times or cost ratios over ops that passed the gate, and the
    results' ratios to their inflexible baseline over every ramp op or
    flexible market.  An op that failed counts at its baseline, 1.0, so that
    the mean ratio moves only when a result does, not when an op starts or
    stops passing."""
    ops = body["ops"]
    if w.kind == "ramp":
        b = Bounds()
        times = {"up": [], "down": []}
        ratios = []
        for o in ops:
            d = o["op"].split("@")[0]
            if o["passed"]:
                times[d].append(o["ramp_time_h"])
                ratios.append(o["ramp_time_h"] / sbm_ramp_h(d, body["sbm_tau_h"], b))
            else:
                ratios.append(1.0)
        return dict(ramp_up_h=times["up"], ramp_down_h=times["down"], ratios=ratios)
    by_market: dict = {}
    for o in ops:
        by_market.setdefault(o["market"], {})[o["op"].endswith("steady")] = o
    costs, ratios = [], []
    for m in by_market.values():
        if False not in m:
            continue                   # a market solved steady only
        if m[True]["passed"] and m[False]["passed"]:
            costs.append(m[False]["objective"] / m[True]["objective"])
            ratios.append(costs[-1])
        else:
            ratios.append(1.0)
    return dict(cost_ratio=costs, ratios=ratios)


def end_to_end(w: Workload, body: dict) -> dict:
    ops = body["ops"]
    times = [o["seconds"] for o in ops]
    q = quality(w, body)
    failed = sum(not o["passed"] for o in ops)
    out = {
        "setup_s": (statistics.median(body["setup_s"]), "s", len(body["setup_s"])),
        # every op counts: an op cut by its time limit at about the budget
        "op_s_p50": (statistics.median(times), "s", len(times)),
        "op_s_max": (max(times), "s", len(times)),
        "quality_ratio": (_mean(q["ratios"]), "1", len(q["ratios"])),
        "peak_rss_mb": (body["peak_rss_mb"], "MB", 1),
        "fail_frac": (failed / len(ops), "1", len(ops)),
    }
    for k, v in q.items():
        if k != "ratios":
            out[k] = (_mean(v), "1" if k == "cost_ratio" else "h", len(v))
    return out


def _mean(xs):
    return sum(xs) / len(xs) if xs else None


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def per_layer(w: Workload, body: dict, tracer: Tracer) -> dict:
    """Layer figures.  Set-up ones come from the traced set-up.  Op ones are
    medians over the ops that ended before their time limit, so that their
    counts repeat exactly; MIP sizes, gaps and root-LP figures cover every
    op.  Solver layers are read in an op's solve part, validation layers in
    its gate part."""
    spans = tracer.spans
    roots = [i for i, s in enumerate(spans) if s.parent < 0]
    setup_spans = tracer.within(next(i for i in roots if spans[i].name == "setup"))
    setup = tracer.summary(setup_spans)
    parts = []                     # (op record, solve span, gate span or None)
    for op, i in zip(body["ops"], (i for i in roots if spans[i].name == "op")):
        kids = {spans[k].name: k for k in tracer.within(i) if spans[k].parent == i}
        parts.append((op, kids["op.solve"], kids.get("op.gate")))
    done = [(op, sp, gp) for op, sp, gp in parts if op["status"] not in ("time-limit", "error")]
    ops = [op for op, _, _ in done]
    solve_parts = [sp for _, sp, _ in done]
    solve_rows = [tracer.summary(tracer.within(k)) for k in solve_parts]
    gate_rows = [tracer.summary(tracer.within(gp)) for _, _, gp in done if gp is not None]

    out = {}                       # name -> (value, unit, sample count)

    def med(name, unit, vals):
        out[name] = (_median(vals), unit, len(vals))

    def from_setup(name, unit, value):
        out[name] = (value, unit, 1)

    def per_op(name, unit, rows, fn, stat):
        med(name, unit, [r[fn][stat] for r in rows if fn in r])

    for fn in ("transform.fit_operating_strategy", "envelope.fit_rho_dot_limits",
               "envelope.fit_nu_pwa", "envelope.fit_demand_pwa",
               "transform.steady_state_point", "transform.q1_affine_in_nu"):
        from_setup(f"{fn}.s", "s", setup.get(fn, {}).get("s", 0.0))
    for fn in ("transform.steady_state_point", "transform.q1_affine_in_nu"):
        from_setup(f"{fn}.calls", "count", setup.get(fn, {}).get("calls", 0))
    ssp = setup.get("transform.steady_state_point", {})
    from_setup("transform.steady_state_point.fail_ratio", "1",
               ssp["errors"] / ssp["calls"] if ssp else 0.0)
    art = body["artifacts"]
    from_setup("envelope.coverage_mean", "1", art["coverage_mean"])
    from_setup("envelope.coverage_min", "1", art["coverage_min"])
    from_setup("envelope.demand_mae_rel", "1", art["demand_mae_rel"] or 0.0)

    for fn in ("scheduler.assemble_problem", "scheduler.ramp_problem",
               "scheduler.extract_result"):
        per_op(f"{fn}.s", "s", solve_rows, fn, "s")
    solved = [op for op, _, _ in parts if "nodes" in op]      # B&B returned
    for k in ("vars", "binaries", "rows", "nnz"):
        med(f"scheduler.mip.{k}", "count", [o["mip"][k] for o in solved])

    bnb = "milp.branch_and_bound"
    per_op(f"{bnb}.s", "s", solve_rows, bnb, "s")
    per_op(f"{bnb}.self_s", "s", solve_rows, bnb, "self_s")
    med(f"{bnb}.nodes", "count", [o["nodes"] for o in ops if "nodes" in o])
    # the gaps of ops cut by the time limit are the informative ones
    med("milp.gap_final", "1", [_capped_gap(o["gap"]) for o in solved])
    med("milp.root_gap", "1", [
        _capped_gap((o["objective"] - o["root_bound"]) / max(abs(o["objective"]), 1e-9))
        if o["objective"] is not None and o["root_bound"] is not None else 1.0
        for o in solved])
    root_lp, overrun = [], []
    for k in (k for _, part, _ in parts for k in tracer.within(part)):
        if spans[k].name != bnb:
            continue
        lps = [c for c in tracer.within(k)
               if spans[c].parent == k and spans[c].name == "milp.simplex_solve"]
        if lps:
            root_lp.append(spans[lps[0]].end - spans[lps[0]].start)
        limit = (spans[k].result or {}).get("time_limit")
        if limit is not None:
            overrun.append(max(0.0, spans[k].end - spans[k].start - limit))
    med("milp.root_lp.s", "s", root_lp)
    med("milp.budget_overrun_s", "s", overrun)
    for stat, unit in (("calls", "count"), ("s", "s"), ("errors", "count")):
        per_op(f"milp.simplex_solve.{stat}", unit, solve_rows, "milp.simplex_solve", stat)
    out["milp.lp_failures"] = (sum(op["lp_failures"] for op in ops), "count", len(ops))
    cs = "milp.check_solution"
    per_op(f"{cs}.calls", "count", solve_rows, cs, "calls")
    per_op(f"{cs}.s", "s", solve_rows, cs, "s")
    checks = [spans[k].result for part in solve_parts for k in tracer.within(part)
              if spans[k].name == cs]
    out[f"{cs}.accept_ratio"] = (sum(checks) / len(checks) if checks else 0.0, "1", len(checks))

    per_op("transform.backtransform.calls", "count", gate_rows, "transform.backtransform", "calls")
    per_op("transform.backtransform.s", "s", gate_rows, "transform.backtransform", "s")
    per_op("process.simulate.s", "s", gate_rows, "process.simulate", "s")
    per_op("process.check_bounds.s", "s", gate_rows, "process.check_bounds", "s")
    figures = [o["validation"] for o in ops if "validation" in o]
    med("process.simulate.steps", "count", [v["steps"] for v in figures])
    for key, name in (("worst_rel", "process.check_bounds.worst_rel"),
                      ("track_err", "validate.track_err")):
        out[name] = (max([v[key] for v in figures], default=0.0), "1", len(figures))

    # the tracing cost of the traced set-up: its spans times the measured
    # cost of one wrapped call
    out["trace.spans"] = (len(setup_spans), "count", 1)
    out["trace.overhead_s"] = (len(setup_spans) * tracer.wrapper_cost_s(), "s", 1)
    return out


def _capped_gap(g) -> float:
    """Relative gap capped at 1; no incumbent (infinite gap) reads 1."""
    if g is None or not math.isfinite(g):
        return 1.0
    return min(max(g, 0.0), 1.0)
