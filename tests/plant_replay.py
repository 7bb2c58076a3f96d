"""Replay of a ramp or schedule result on the full nonlinear plant, shared by
the test modules."""

import numpy as np

from rampsched.process import ControlSchedule, StateVec, check_bounds, simulate
from rampsched.transform import RampingPoint, backtransform

STEP_H = 0.01          # simulate()'s default step
REL_TOL = 1e-3


def plant_controls(res, strat, p) -> tuple[StateVec, ControlSchedule]:
    """Backtransform the result's (rho, rho_dot, nu), interpolated linearly
    between its samples, in one batch on the simulator's grid: the start
    state and the controls of the replay."""
    n = int(round(res.times[-1] / STEP_H))
    t = np.linspace(0.0, n * STEP_H, n + 1)
    rho, rho_dot, nu = (np.interp(t, res.times, a) for a in (res.rho, res.rho_dot, res.nu))
    x, u = backtransform(RampingPoint(rho, rho_dot, nu), strat, p)
    x0 = StateVec.from_array([x.cA1[0], x.cB1[0], x.T1[0], x.cA2[0], x.cB2[0], x.T2[0]])
    return x0, ControlSchedule(t, np.column_stack([u.FB, u.Fp, u.Q1, u.Q2]), rho)


def replay(res, strat, p, b):
    """Simulate the plant on the result's controls: (trajectory, the bound
    report at REL_TOL)."""
    x0, controls = plant_controls(res, strat, p)
    traj = simulate(x0, controls, float(controls.times[-1]), STEP_H, p)
    return traj, check_bounds(traj, b, REL_TOL)


def assert_holds_on_plant(res, strat, p, b) -> None:
    """Every bound holds on the replay, and the flash outputs cA2, cB2 and
    T2 stay within REL_TOL of their bound spans from the strategy's values."""
    traj, report = replay(res, strat, p, b)
    assert report.feasible, str(report)
    for j, name, nominal in ((3, "cA2", strat.xi1_nom), (4, "cB2", strat.xi2_nom),
                             (5, "T2", strat.xi3_nom)):
        lo, hi = getattr(b, name)
        assert np.max(np.abs(traj.states[:, j] - nominal)) <= REL_TOL * (hi - lo), name
