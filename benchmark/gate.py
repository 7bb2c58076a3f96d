"""Correctness gate applied to every op.

An op passes only if every check holds; each failed check adds a reason.
`solution_reasons` judges the solver's answer, `trajectory_reasons` the
(rho, rho_dot, nu) profile against the envelope, and `validate` replays the
profile on the full nonlinear plant.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from rampsched import milp, process, transform
from rampsched.transform import OutsideFlatRegionError, RampingPoint

SIM_STEP_H = 0.01          # simulate()'s default step
CONTAINS_TOL = 1e-7        # same relative tolerance as check_solution
COST_RTOL = 1e-6


def claims_solution(sol, gap_tol: float) -> bool:
    """The solver reports an answer within the stated tolerance."""
    return sol.status == "optimal" or (sol.status == "feasible-with-gap"
                                       and sol.gap <= gap_tol)


def solution_reasons(mip, sol, gap_tol: float) -> list[str]:
    """Status within the stated tolerance, and an independent row check."""
    out = []
    if not claims_solution(sol, gap_tol):
        out.append(f"status {sol.status} (gap {sol.gap:.4g}, "
                   f"objective {sol.objective:.6g})")
    violations = milp.check_solution(mip, sol.x)
    if violations:
        out.append(f"check_solution: {len(violations)} violation(s), "
                   f"first {violations[0]}")
    return out


def _inside(env, rho: float, rho_dot: float, nu: float, tol: float) -> bool:
    """`env.contains`, except that a point on a segment boundary (within
    `tol`) may use either neighbouring segment, as the MILP's segment
    binaries allow."""
    if env.contains(rho, rho_dot, nu, tol=tol):
        return True
    pwa = env.nu_pwa
    lo, hi = env.rho_bounds
    rd_lo, rd_hi = env.rho_dot_range(rho)
    if pwa.n_segments == 1 or not (lo - tol <= rho <= hi + tol
                                   and rd_lo - tol <= rho_dot <= rd_hi + tol):
        return False
    rho_sides = {True, False} if abs(rho - pwa.rho_nom) <= tol else {rho >= pwa.rho_nom}
    rd_sides = {True, False} if abs(rho_dot) <= tol else {rho_dot >= 0.0}
    return any(pwa.seg_min[k](rho, rho_dot) - tol <= nu <= pwa.seg_max[k](rho, rho_dot) + tol
               for k in product(rho_sides, rd_sides))


def trajectory_reasons(env, rho, rho_dot, nu) -> list[str]:
    """Every collocation point lies inside the ramping envelope."""
    tol = CONTAINS_TOL * max(1.0, float(np.max(np.abs(nu))))
    outside = [k for k in range(len(rho))
               if not _inside(env, rho[k], rho_dot[k], nu[k], tol)]
    if not outside:
        return []
    k = outside[0]
    return [f"{len(outside)} point(s) outside the envelope, first "
            f"(rho, rho_dot, nu)=({rho[k]:.6g}, {rho_dot[k]:.6g}, {nu[k]:.6g})"]


def schedule_reasons(res, objective: float, steady_cost: float | None,
                     gap_tol: float) -> list[str]:
    """Demand-response invariants: storage, cost split, flexibility pays."""
    out = []
    if res.storage[-1] < -CONTAINS_TOL * max(1.0, float(np.max(np.abs(res.storage)))):
        out.append(f"terminal storage {res.storage[-1]:.6g} < 0")
    split = res.cost_gas + res.cost_el_buy - res.rev_el_sell
    if not abs(split - objective) <= COST_RTOL * max(1.0, abs(objective)):
        out.append(f"cost split {split:.8g} != objective {objective:.8g}")
    if steady_cost is not None and objective > steady_cost * (1.0 + gap_tol):
        out.append(f"flexible cost {objective:.6g} above steady "
                   f"{steady_cost:.6g} x (1 + {gap_tol})")
    return out


def _backtransform_all(grid_t, r, rd, v, strat, p):
    states, inputs = np.empty((len(grid_t), 6)), np.empty((len(grid_t), 4))
    for k in range(len(grid_t)):
        x, u = transform.backtransform(RampingPoint(r[k], rd[k], v[k]), strat, p)
        states[k], inputs[k] = x.as_array(), u.as_array()
    return states, inputs


def validate(times, rho, rho_dot, nu, strat, p, b) -> tuple[list[str], dict]:
    """Backtransform the profile on the simulator's grid, simulate the
    nonlinear plant from the backtransformed initial state and check every
    bound.  (rho, rho_dot, nu) are interpolated linearly between the
    result's samples.  Returns failure reasons and the tracking figures."""
    times = np.asarray(times, dtype=float)
    rho, rho_dot, nu = (np.asarray(a, dtype=float) for a in (rho, rho_dot, nu))
    n = int(round(times[-1] / SIM_STEP_H))
    grid_t = np.linspace(0.0, n * SIM_STEP_H, n + 1)
    r = np.interp(grid_t, times, rho)
    v = np.interp(grid_t, times, nu)
    try:
        states, inputs = _backtransform_all(grid_t, r, np.interp(grid_t, times, rho_dot),
                                            v, strat, p)
    except OutsideFlatRegionError as exc:
        return [f"backtransform: {exc}"], {}
    controls = process.ControlSchedule(grid_t, inputs, r)
    try:
        traj = process.simulate(process.StateVec.from_array(states[0]), controls,
                                float(grid_t[-1]), SIM_STEP_H, p)
    except process.SimulationDiverged as exc:
        return [str(exc)], {}
    report = process.check_bounds(traj, b)
    s = traj.states
    dev = {
        "cA1": float(np.max(np.abs(s[:, 0] - strat.pi4(traj.rho)))),
        "cA2": float(np.max(np.abs(s[:, 3] - strat.xi1_nom))),
        "cB2": float(np.max(np.abs(s[:, 4] - strat.xi2_nom))),
        "T2": float(np.max(np.abs(s[:, 5] - strat.xi3_nom))),
    }
    span = {name: getattr(b, name)[1] - getattr(b, name)[0] for name in dev}
    worst = report.worst()
    figures = dict(
        steps=n,
        track_dev=dev,
        track_err=max(dev[k] / span[k] for k in dev),
        worst_rel=worst.rel_violation if worst else 0.0,
    )
    if not report.feasible:
        return [f"nonlinear plant: {len(report.violations)} bound violation(s), "
                f"worst {worst.variable}={worst.value:.6g} at t={worst.time:.3f} h"], figures
    return [], figures
