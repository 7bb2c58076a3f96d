import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rampsched.process import (Bounds, ControlSchedule, InputVec,
                               ProcessParams, StateVec, Trajectory,
                               check_bounds, ode_rhs, simulate)
from rampsched.transform import steady_state_point


def steady(params, bounds, rho=5.25, cA1=0.49):
    return steady_state_point(rho, cA1, None, params, bounds)


def test_steady_point_is_ode_root(params, bounds):
    x, u = steady(params, bounds)
    dx = ode_rhs(x, u, 5.25, params).as_array()
    scale = np.array([1, 1, 100, 1, 1, 100])
    assert np.max(np.abs(dx) / scale) <= 1e-8


def test_q1_enters_linearly_and_only_t1(params, bounds):
    x, u = steady(params, bounds)
    dQ = 1.2345e5
    u2 = InputVec(u.FB, u.Fp, u.Q1 + dQ, u.Q2)
    d1 = ode_rhs(x, u, 5.25, params).as_array()
    d2 = ode_rhs(x, u2, 5.25, params).as_array()
    diff = d2 - d1
    expected = dQ / (params.rhoF * params.Cp * params.V1)
    assert diff[2] == pytest.approx(expected, rel=1e-12)
    assert np.all(diff[[0, 1, 3, 4, 5]] == 0.0)


def test_q2_sensitivity(params, bounds):
    x, u = steady(params, bounds)
    dQ = 9.87e4
    u2 = InputVec(u.FB, u.Fp, u.Q1, u.Q2 + dQ)
    diff = ode_rhs(x, u2, 5.25, params).as_array() - ode_rhs(x, u, 5.25, params).as_array()
    assert diff[5] == pytest.approx(dQ / (params.rhoF * params.Cp * params.V2), rel=1e-12)


def test_flash_symmetry_when_volatilities_equal(params):
    from rampsched.process import vapor_fractions
    p = dataclasses.replace(params, alphaA=0.4, alphaB=0.4)
    # identical concentrations and volatilities make the two vapor-fraction
    # terms of the flash component balances coincide
    cAv, cBv = vapor_fractions(0.37, 0.37, p)
    assert cAv == pytest.approx(cBv, rel=1e-14)
    x = StateVec(cA1=0.5, cB1=0.5, T1=430.0, cA2=0.37, cB2=0.37, T2=455.0)
    u = InputVec(FB=5.0, Fp=2.0, Q1=1e6, Q2=1e6)
    dx = ode_rhs(x, u, 5.25, p).as_array()
    # with equal reactor feeds the full balances coincide as well
    assert dx[3] == pytest.approx(dx[4], rel=1e-12)


def test_ode_rejects_non_finite(params):
    x = StateVec(0.5, 0.3, float("nan"), 0.45, 0.46, 455.0)
    u = InputVec(5.0, 2.0, 1e6, 1e6)
    with pytest.raises(ValueError, match="T1"):
        ode_rhs(x, u, 5.25, params)


def test_simulate_constant_at_steady_state(params, bounds):
    x, u = steady(params, bounds)
    controls = ControlSchedule.constant(u, 5.25, 24.0)
    traj = simulate(x, controls, horizon=24.0, step=0.05, p=params)
    x0 = x.as_array()
    rel = np.max(np.abs(traj.states - x0) / np.maximum(np.abs(x0), 1e-12))
    assert rel <= 1e-6


def test_simulate_zero_horizon(params, bounds):
    x, u = steady(params, bounds)
    traj = simulate(x, ControlSchedule.constant(u, 5.25, 1.0), horizon=0.0, p=params)
    assert len(traj.times) == 1
    assert np.allclose(traj.states[0], x.as_array())


def test_rk4_step_halving_order(params, bounds):
    # transient excitation: ramp Q1 up over an hour
    x, u = steady(params, bounds)
    times = np.array([0.0, 0.5, 1.0])
    inputs = np.vstack([u.as_array(),
                        u.as_array() + np.array([0, 0, 2e6, 0]),
                        u.as_array()])
    controls = ControlSchedule(times, inputs, np.array([5.25, 5.3, 5.25]))
    ref = simulate(x, controls, 1.0, step=0.00125, p=params).states[-1]
    e1 = np.linalg.norm(simulate(x, controls, 1.0, step=0.01, p=params).states[-1] - ref)
    e2 = np.linalg.norm(simulate(x, controls, 1.0, step=0.005, p=params).states[-1] - ref)
    assert e1 / max(e2, 1e-300) >= 8.0   # >= order 3 observed, RK4 gives ~16


def test_check_bounds_boundary_inclusive(bounds):
    traj = Trajectory(times=np.array([0.0]),
                      states=np.array([[0.5, 0.3, 460.0, 0.45, 0.46, 455.0]]),
                      inputs=np.array([[20.0, 8.0, 0.0, 0.0]]),
                      rho=np.array([6.3]))
    assert check_bounds(traj, bounds, rel_tol=0.0).feasible


def test_check_bounds_fp_example(params, bounds):
    x, u = steady(params, bounds)
    traj = Trajectory(times=np.array([0.0]),
                      states=x.as_array()[None, :],
                      inputs=np.array([[u.FB, 8.1, u.Q1, u.Q2]]),
                      rho=np.array([5.25]))
    rep = check_bounds(traj, bounds, rel_tol=1e-3)
    assert len(rep.violations) == 1
    v = rep.violations[0]
    assert v.variable == "Fp" and v.bound == 8.0
    assert v.rel_violation == pytest.approx(0.0125, rel=1e-9)


def test_check_bounds_steady_trajectory_clean(params, bounds):
    x, u = steady(params, bounds)
    traj = simulate(x, ControlSchedule.constant(u, 5.25, 2.0), 2.0, step=0.05, p=params)
    assert check_bounds(traj, bounds, rel_tol=1e-3).feasible


@settings(max_examples=20, deadline=None)
@given(dq=st.floats(min_value=1e4, max_value=5e6, allow_nan=False),
       sign=st.sampled_from([-1.0, 1.0]))
def test_q1_linearity_property(dq, sign):
    p, b = ProcessParams(), Bounds()
    x, u = steady_state_point(5.25, 0.49, None, p, b)
    u2 = InputVec(u.FB, u.Fp, u.Q1 + sign * dq, u.Q2)
    diff = (ode_rhs(x, u2, 5.25, p).as_array() - ode_rhs(x, u, 5.25, p).as_array())
    # difference of two O(10) evaluations: allow rounding at that scale
    assert diff[2] == pytest.approx(sign * dq / (p.rhoF * p.Cp * p.V1),
                                    rel=1e-9, abs=1e-12)


@settings(max_examples=10, deadline=None)
@given(rho=st.floats(min_value=4.2, max_value=6.3),
       ca1=st.floats(min_value=0.492, max_value=0.515))
def test_mass_fraction_consistency(rho, ca1):
    """Simulated concentrations keep cA+cB <= 1 near feasible steady points."""
    p, b = ProcessParams(), Bounds()
    x, u = steady_state_point(rho, ca1, None, p, b)
    traj = simulate(x, ControlSchedule.constant(u, rho, 3.0), 3.0, step=0.05, p=p)
    sums1 = traj.states[:, 0] + traj.states[:, 1]
    sums2 = traj.states[:, 3] + traj.states[:, 4]
    assert np.all(sums1 <= 1 + 1e-6) and np.all(sums2 <= 1 + 1e-6)
