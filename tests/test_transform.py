import math
from dataclasses import replace

import numpy as np
import pytest

from rampsched import transform
from rampsched.process import ControlSchedule, simulate
from rampsched.transform import (T1_BRACKET, T1_XTOL, OperatingStrategy,
                                 OutsideFlatRegionError, RampingPoint,
                                 SingularTransformError, SteadyStateError, _constants,
                                 _flat_step, _newton, _steady_batch, _steady_feasible,
                                 _window, backtransform, bottom_flow, fit_operating_strategy,
                                 nominal_vapor, psi_Fp, q1_affine_in_nu,
                                 scaled_residual, solve_T1, steady_state_point,
                                 strategy_outputs)

RHO_NOM = 5.25


def test_nominal_vapor_fraction_value(params):
    strat = OperatingStrategy(a0_xi4=0.5, a1_xi4=0.0)
    cAv, cBv = nominal_vapor(strat, params)
    # direct arithmetic of the volatility expression at the nominal composition
    assert cAv == pytest.approx(0.22695 / 0.4273, rel=1e-4)
    assert cAv == pytest.approx(0.5311, abs=5e-5)


def test_fb_zero_at_vapor_composition(params, bounds):
    strat = OperatingStrategy(a0_xi4=0.5, a1_xi4=0.0)
    cAv, _ = nominal_vapor(strat, params)
    x, u = steady_state_point(RHO_NOM, cAv, strat, params, bounds)
    assert u.FB == pytest.approx(0.0, abs=1e-9)


def test_steady_point_residual(params, bounds):
    for rho in (4.2, 5.25, 6.3):
        for ca1 in (0.49, 0.51, 0.525):
            x, u = steady_state_point(rho, ca1, None, params, bounds)
            assert scaled_residual(x, u, rho, params) <= 1e-8


def test_steady_point_outside_window_rejected(params, bounds):
    with pytest.raises(SteadyStateError, match="window"):
        steady_state_point(RHO_NOM, 0.60, None, params, bounds)


@pytest.mark.parametrize("fail, rho, ca1, message", [
    (1, 7.0, 0.60, r"rho=7.0 outside \[4.2, 6.3\]"),
    (2, RHO_NOM, 0.60, "cA1=0.6 outside the FB-feasible window"),
    (3, RHO_NOM, 0.49, r"no reactor temperature in \[300.0, 301.0\] K at rho=5.25, cA1=0.49"),
    (4, RHO_NOM, 0.49, "steady residual .* exceeds 1e-9"),
])
def test_steady_point_raises_first_failed_check(params, bounds, monkeypatch,
                                                fail, rho, ca1, message):
    """steady_state_point raises the message of the first check that
    _steady_batch fails, which gives a scalar pair the fail code of the same
    pair as an array.  A 1 K bracket holds no root, and residual scales of
    1e-30 fail any steady state."""
    if fail == 3:
        monkeypatch.setattr(transform, "T1_BRACKET", (300.0, 301.0))
    elif fail == 4:
        monkeypatch.setattr(transform, "_RES_SCALE", np.full(6, 1e-30))
    base = OperatingStrategy(0.0, 0.0)
    assert _steady_batch(rho, ca1, base, params, bounds)[2] == fail
    assert _steady_batch(np.array([rho]), np.array([ca1]), base, params, bounds)[2] == [fail]
    with pytest.raises(SteadyStateError, match=message):
        steady_state_point(rho, ca1, base, params, bounds)


# --- operating strategy fit --------------------------------------------------

def test_constant_strategy_degradation(strategy_fit):
    _, report = strategy_fit
    assert report.const_degradation_pct == pytest.approx(2.9, abs=1.5)


def test_linear_strategy_degradation(strategy_fit):
    _, report = strategy_fit
    assert 0.0 <= report.linear_degradation_pct <= 0.3


def test_fitted_strategy_pinned(strategy):
    assert strategy.a0_xi4 == pytest.approx(0.45730593775063044, rel=1e-8)
    assert strategy.a1_xi4 == pytest.approx(0.0024097734062321187, rel=1e-8)


def test_fitted_strategy_holds_fb_on_whole_band(strategy, params, bounds):
    """The line is a tangent to the FB edge lifted off it, so FB stays within
    FB_max between grid points as well, at 2 001 rho."""
    rho = np.linspace(*bounds.rho, 2001)
    _, u, fail = _steady_batch(rho, strategy.pi4(rho), OperatingStrategy(0.0, 0.0),
                               params, bounds)
    assert np.all(fail == 0)
    assert np.max(u.FB) <= bounds.FB[1]


def test_fit_raises_off_the_fb_edge(params, bounds):
    """A T1 minimum of 428 K cuts the FB edge out of the feasible window, so
    the free optimum is no longer on it and no tangent line is the best fit."""
    with pytest.raises(SteadyStateError, match="FB edge"):
        fit_operating_strategy(params, replace(bounds, T1=(428.0, 460.0)))


def test_steady_batch_mask_matches_scalar(params, bounds):
    """Over the strategy fit's 21 x 161 (rho, cA1) scan, the steady batch
    (array Newton) marks the same points solved and within bounds as the
    scalar steady_state_point (Newton on Python floats), at the same
    temperatures."""
    base = OperatingStrategy(0.0, 0.0)
    rhos = np.linspace(*bounds.rho, 21)
    lo, hi = _window(rhos, base, params, bounds)
    rho = np.repeat(rhos, 161)
    ca1 = np.linspace(lo, hi, 161, axis=1).ravel()
    x, u, fail = _steady_batch(rho, ca1, base, params, bounds)
    batch = (fail == 0) & _steady_feasible(x, u, bounds)
    scalar = np.zeros_like(batch)
    for k in range(rho.size):
        try:
            xs, us = steady_state_point(rho[k], ca1[k], base, params, bounds)
        except SteadyStateError:
            continue
        scalar[k] = _steady_feasible(xs, us, bounds)
        assert x.T1[k] == pytest.approx(xs.T1, rel=1e-10)
    assert np.array_equal(batch, scalar)
    assert 0 < batch.sum() < batch.size


def test_single_point_grid_degenerates_to_constant(params, bounds, monkeypatch):
    monkeypatch.setattr(transform, "STRATEGY_GRID", 1)
    strat, report = fit_operating_strategy(params, bounds)
    # with one grid point the linear fit can do no better than the free optimum
    assert report.linear_degradation_pct == pytest.approx(0.0, abs=1e-6)
    assert strat.pi4(report.rho_grid[0]) == pytest.approx(report.free_ca1[0], abs=2e-4)


def test_strategy_window_invariant(strategy, params, bounds):
    cAv, _ = nominal_vapor(strategy, params)
    for rho in np.linspace(*bounds.rho, 41):
        assert strategy.xi1_nom < strategy.pi4(rho) <= cAv + 1e-12


def test_strategy_outputs_shapes_and_zeros(strategy):
    out = strategy_outputs(RHO_NOM, 0.0, 0.0, strategy)
    assert np.all(out["xi_dot"] == 0) and np.all(out["xi_ddot"] == 0)
    const = OperatingStrategy(a0_xi4=0.5, a1_xi4=0.0)
    out2 = strategy_outputs(5.0, 3.2, -1.1, const)
    assert np.all(out2["xi_dot"] == 0) and np.all(out2["xi_ddot"] == 0)


def test_strategy_second_derivative_fd_oracle(strategy):
    # xi4_ddot from the chain rule vs central finite differences of xi4_dot
    # along a smooth test trajectory rho(t) = nom + sin
    def profile(t):
        w = 2 * np.pi
        return (RHO_NOM + 0.5 * np.sin(w * t),
                0.5 * w * np.cos(w * t),
                -0.5 * w * w * np.sin(w * t))

    def xi4dot(t):
        rho, rho_dot, nu = profile(t)
        return strategy_outputs(rho, rho_dot, nu, strategy)["xi_dot"][3]

    h = 1e-5
    for t in np.linspace(0.05, 0.95, 13):
        rho, rho_dot, nu = profile(t)
        expected = strategy_outputs(rho, rho_dot, nu, strategy)["xi_ddot"][3]
        fd = (xi4dot(t + h) - xi4dot(t - h)) / (2 * h)
        assert fd == pytest.approx(expected, abs=1e-6)


# --- T1 solve and purge expression -------------------------------------------

def test_solve_t1_steady_matches_steady_state(strategy, params, bounds):
    x, _ = steady_state_point(RHO_NOM, strategy.pi4(RHO_NOM), strategy, params, bounds)
    T1 = solve_T1(RHO_NOM, 0.0, strategy, params)
    assert T1 == pytest.approx(x.T1, abs=1e-8)


def test_solve_t1_monotone_in_rho_dot(strategy, params):
    for rho in (4.4, 5.25, 6.1):
        t1s = [solve_T1(rho, rd, strategy, params) for rd in np.linspace(-0.8, 0.8, 9)]
        diffs = np.diff(t1s)
        assert np.all(diffs > 0) or np.all(diffs < 0)


def test_solve_t1_out_of_region(strategy, params):
    with pytest.raises(OutsideFlatRegionError):
        solve_T1(RHO_NOM, 1e4, strategy, params)


def test_psi_fp_steady_consistency(strategy, params, bounds):
    for rho in (4.2, 5.25, 6.3):
        x, u = steady_state_point(rho, strategy.pi4(rho), strategy, params, bounds)
        assert psi_Fp(rho, x.T1, strategy, params) == pytest.approx(u.Fp, abs=1e-8)


def _rate_weights(k):
    """(wA, wB, den) of the rate residual (A1*B0 - B1*A0)/den, for the
    _constants k."""
    _, _, A1, B1, den = k
    return -B1, A1, den


def _purge_weights(k):
    """(wA, wB, den) of psi_Fp = (B0 - s*A0)/den, for the _constants k."""
    _, s, _, _, den = k
    return -s, 1.0, den


def flat_root(target, rho, weights, strat, p):
    """T1 in T1_BRACKET with (wA*A0 + wB*B0)/den = target at rho, for the
    weights(k) of the _constants k: the Newton root of the _flat_step."""
    k = _constants(strat, p)
    return _newton(_flat_step(target, rho, weights(k), k, strat, p)[2])


@pytest.mark.parametrize("fp", [0.0, 4.0, 8.0])
def test_flat_root_on_purge_weights_solves_psi_fp(strategy, params, bounds, fp):
    """The T1 root on the purge weights puts psi_Fp on its target, on the
    scalar and the array path alike; NaN where the target is out of reach."""
    rho = np.linspace(*bounds.rho, 5)
    T1 = flat_root(fp, rho, _purge_weights, strategy, params)
    assert psi_Fp(rho, T1, strategy, params) == pytest.approx(np.full(5, fp), abs=1e-8)
    T1_mid = flat_root(fp, float(rho[2]), _purge_weights, strategy, params)
    assert psi_Fp(rho[2], T1_mid, strategy, params) == pytest.approx(fp, abs=1e-8)
    assert T1_mid == pytest.approx(T1[2], abs=1e-9)
    assert np.all(np.isnan(flat_root(1e9, rho, _purge_weights, strategy, params)))


def test_backtransform_steady_equals_steady_point(strategy, params, bounds):
    """A steady state is the flat point of a constant strategy at rest, so
    at 41 rho across the band it is bitwise the backtransform of
    (rho, 0, 0): point by point on Python floats and as one array."""
    rhos = np.linspace(*bounds.rho, 41)
    for rho in rhos.tolist():
        x, u = steady_state_point(rho, strategy.pi4(rho), strategy, params, bounds)
        xb, ub = backtransform(RampingPoint(rho, 0.0, 0.0), strategy, params)
        assert np.array_equal(xb.as_array(), x.as_array()), rho
        assert np.array_equal(ub.as_array(), u.as_array()), rho
    x, u, fail = _steady_batch(rhos, strategy.pi4(rhos), strategy, params, bounds)
    xb, ub = backtransform(RampingPoint(rhos, 0.0, 0.0), strategy, params)
    assert not fail.any()
    assert np.array_equal(xb.as_array(), x.as_array())
    assert np.array_equal(ub.as_array(), u.as_array())


def test_batch_equals_scalar_loop(strategy, params, bounds, envelope):
    """Array solve_T1, q1_affine_in_nu and backtransform (one Newton batch)
    equal the scalar calls (Newton on Python floats) to 1e-10 relative on a
    7 x 7 grid of the fitted rho_dot band."""
    rho, rd = _band_grid(bounds, envelope)
    nu = np.linspace(-2.0, 2.0, rho.size)
    T1 = solve_T1(rho, rd, strategy, params)
    coef = q1_affine_in_nu(rho, rd, strategy, params)
    x, u = backtransform(RampingPoint(rho, rd, nu), strategy, params)
    xa, ua = x.as_array(), u.as_array()
    assert xa.shape == (6, rho.size) and ua.shape == (4, rho.size)
    for k in range(rho.size):
        assert T1[k] == pytest.approx(solve_T1(rho[k], rd[k], strategy, params), rel=1e-10)
        assert [c[k] for c in coef] == pytest.approx(
            q1_affine_in_nu(rho[k], rd[k], strategy, params), rel=1e-10)
        xs, us = backtransform(RampingPoint(rho[k], rd[k], nu[k]), strategy, params)
        assert xa[:, k] == pytest.approx(xs.as_array(), rel=1e-10)
        assert ua[:, k] == pytest.approx(us.as_array(), rel=1e-10)


def _band_grid(bounds, envelope):
    """7 x 7 (rho, rho_dot) grid of the fitted rho_dot band."""
    rhos = np.linspace(*bounds.rho, 7)
    rd = np.concatenate([np.linspace(*envelope.rho_dot_range(r), 7) for r in rhos])
    return np.repeat(rhos, 7), rd


# --- the layered scalar chain, kept as the bitwise reference -----------------
#
# A point through _inverse -> solve_T1 -> _flat_eval -> _psi_partials, each
# layer recomputing the strategy constants and the flow terms, and every
# Newton step calling the rate and partial helpers.  The one-pass
# _flat_point keeps these operations and their order, so its states and
# inputs are bitwise these.

def reference_rates(cA1, cB1, T1, p):
    """(r1, r2) of A -> B and B -> C, with math.exp on a scalar T1."""
    e1, e2 = -p.E1 / (p.R * T1), -p.E2 / (p.R * T1)
    exp = math.exp if isinstance(e1, float) else np.exp
    return p.k1 * cA1 * exp(e1), p.k2 * cB1 * exp(e2)


def reference_terms(rho, T1, strat, p):
    """(cA1, cB1, FB, r1, r2) and the Fp-intercepts (A0, B0) at (rho, T1)."""
    k = _constants(strat, p)
    cA1 = strat.pi4(rho)
    cB1 = strat.xi2_nom + k[1] * (cA1 - strat.xi1_nom)
    FB = bottom_flow(rho, cA1, strat, p)
    r1, r2 = reference_rates(cA1, cB1, T1, p)
    A0 = rho * (p.cA0 - cA1) / p.V1 + FB * (strat.xi1_nom - cA1) / p.V1 - r1
    B0 = rho * (p.cB0 - cB1) / p.V1 + FB * (strat.xi2_nom - cB1) / p.V1 + r1 - r2
    return (cA1, cB1, FB, r1, r2), A0, B0


def reference_t1_partial(T1, r1, r2, weights, p):
    """T1 partial of (wA*A0 + wB*B0)/den through the Arrhenius factors."""
    wA, wB, den = weights
    dr1_T, dr2_T = r1 * p.E1 / (p.R * T1 * T1), r2 * p.E2 / (p.R * T1 * T1)
    return (wB * (dr1_T - dr2_T) - wA * dr1_T) / den


def reference_rate(rho, T1, strat, p):
    """The rate residual (wB*B0 + wA*A0)/den on the rate weights at
    (rho, T1), with the rates (r1, r2)."""
    wA, wB, den = _rate_weights(_constants(strat, p))
    (_, _, _, r1, r2), A0, B0 = reference_terms(rho, T1, strat, p)
    return (wB * B0 + wA * A0) / den, r1, r2


def reference_solve_T1(rho, rho_dot, strat, p):
    """Safeguarded Newton from the bracket's midpoint on the rate residual,
    each step calling the rate and partial helpers."""
    weights = _rate_weights(_constants(strat, p))
    target = strat.a1_xi4 * rho_dot

    def residual(T1):
        f, r1, r2 = reference_rate(rho, T1, strat, p)
        return f - target, r1, r2

    lo, hi = T1_BRACKET
    f_lo, f_hi = residual(lo)[0], residual(hi)[0]
    assert f_lo * f_hi <= 0
    t_neg, t_pos = (lo, hi) if f_lo < f_hi else (hi, lo)
    T1 = 0.5 * (lo + hi)
    while True:
        f, r1, r2 = residual(T1)
        t_neg, t_pos = T1 if f < 0 else t_neg, T1 if f > 0 else t_pos
        d = reference_t1_partial(T1, r1, r2, weights, p)
        nxt = T1 - f / d if d else math.nan
        if not (t_neg <= nxt <= t_pos or t_pos <= nxt <= t_neg):
            nxt = 0.5 * (t_neg + t_pos)
        if abs(nxt - T1) <= T1_XTOL:
            return nxt
        T1 = nxt


def reference_flat_eval(rho, T1, strat, p):
    """(terms, Fp, drift, Q2) at (rho, T1)."""
    k = _constants(strat, p)
    terms, A0, B0 = reference_terms(rho, T1, strat, p)
    _, _, FB, r1, r2 = terms
    Fp = (B0 - k[1] * A0) / k[4]
    drift = ((rho + Fp) / p.V1 * (p.T0 - T1) + (FB - Fp) / p.V1 * (strat.xi3_nom - T1)
             - p.dH1 / p.Cp * r1 - p.dH2 / p.Cp * r2)
    Q2 = -p.rhoF * p.Cp * (rho + FB) * (T1 - strat.xi3_nom) + p.dHV * rho
    return terms, Fp, drift, Q2


def reference_psi_partials(rho, T1, ev, strat, p):
    """Closed-form partials of the rate residual - a1*rho_dot w.r.t.
    (rho, rho_dot, T1), from the reference_flat_eval ev at (rho, T1)."""
    a1 = strat.a1_xi4
    cAv, s, A1, B1, den = _constants(strat, p)
    cA1, cB1, FB, r1, r2 = ev[0]
    wA, wB = -B1, A1
    P_T1 = reference_t1_partial(T1, r1, r2, (wA, wB, den), p)
    dcA1, dcB1 = a1, s * a1
    m = (cAv - strat.xi1_nom) / (cA1 - strat.xi1_nom)
    dFB = m - 1.0 - rho * m * dcA1 / (cA1 - strat.xi1_nom)
    dr1, dr2 = r1 / cA1 * dcA1, r2 / cB1 * dcB1
    dA0 = ((p.cA0 - cA1) - rho * dcA1 + dFB * (strat.xi1_nom - cA1) - FB * dcA1) / p.V1 - dr1
    dB0 = (((p.cB0 - cB1) - rho * dcB1 + dFB * (strat.xi2_nom - cB1) - FB * dcB1) / p.V1
           + dr1 - dr2)
    return (wB * dB0 + wA * dA0) / den, -a1, P_T1


def reference_q1_affine(rho, rho_dot, T1, ev, strat, p):
    """(c0, c1) with Q1 = c0 + c1*nu, from the reference partials at the
    root T1 and its reference_flat_eval ev."""
    P_rho, P_rd, P_T1 = reference_psi_partials(rho, T1, ev, strat, p)
    psi_q1 = P_T1 / (p.rhoF * p.Cp * p.V1)
    return -(P_rho * rho_dot + P_T1 * ev[2]) / psi_q1, -P_rd / psi_q1


def reference_backtransform(rho, rho_dot, nu, strat, p):
    """States and inputs of a scalar point as arrays, layer by layer."""
    T1 = reference_solve_T1(rho, rho_dot, strat, p)
    ev = reference_flat_eval(rho, T1, strat, p)
    c0, c1 = reference_q1_affine(rho, rho_dot, T1, ev, strat, p)
    (cA1, cB1, FB, _, _), Fp, _, Q2 = ev
    return (np.array([cA1, cB1, T1, strat.xi1_nom, strat.xi2_nom, strat.xi3_nom]),
            np.array([FB, Fp, c0 + c1 * nu, Q2]))


def _replay_grid(res):
    """A result's (rho, rho_dot, nu), interpolated linearly on the 0.01 h grid
    of a plant replay."""
    n = int(round(res.times[-1] / 0.01))
    t = np.linspace(0.0, n * 0.01, n + 1)
    return [np.interp(t, res.times, a) for a in (res.rho, res.rho_dot, res.nu)]


def test_scalar_backtransform_equals_layered_reference(strategy, params, bounds, envelope,
                                                       up_ramp, down_ramp):
    """A scalar backtransform gives bitwise the states and inputs of the
    layered reference chain, on the 7 x 7 band grid at 5 nu and on the
    replay grids of the default up and down ramps."""
    rho, rd = _band_grid(bounds, envelope)
    points = [(r, d, nu) for nu in np.linspace(-3.0, 3.0, 5) for r, d in zip(rho, rd)]
    for res in (up_ramp, down_ramp):
        points += list(zip(*_replay_grid(res)))
    assert len(points) == 245 + 251 + 401
    for r, d, nu in (tuple(map(float, pt)) for pt in points):
        x, u = backtransform(RampingPoint(r, d, nu), strategy, params)
        x_ref, u_ref = reference_backtransform(r, d, nu, strategy, params)
        assert np.array_equal(x.as_array(), x_ref), (r, d, nu)
        assert np.array_equal(u.as_array(), u_ref), (r, d, nu)


@pytest.mark.parametrize("case", ["a1 zero", "s*A1 - B1 zero", "no root", "rho nan", "rho_dot inf",
                                  "nu nan", "newton", "Q1 coefficient zero"])
def test_scalar_backtransform_raises(strategy, params, case, monkeypatch):
    """Every check of a scalar backtransform raises with its message: a zero
    strategy slope, a vanishing purge denominator, a point with no T1 in the
    bracket (named), a non-finite rho, rho_dot or nu, a Newton iteration
    that does not converge and a vanishing Q1 coefficient."""
    pt, strat, p = RampingPoint(RHO_NOM, 0.1, 0.5), strategy, params
    error, message = {
        "a1 zero": (SingularTransformError, "solve_T1: strategy slope a1 is zero"),
        "s*A1 - B1 zero": (SingularTransformError, "vanishing structural coefficient"),
        "no root": (OutsideFlatRegionError,
                    r"no reactor temperature in \[300.0, 600.0\] K for rho=5.25, rho_dot=1e\+04$"),
        "rho nan": (OutsideFlatRegionError, "for rho=nan, rho_dot=0.1$"),
        "rho_dot inf": (OutsideFlatRegionError, "for rho=5.25, rho_dot=inf$"),
        "nu nan": (ValueError, "backtransform: nu must be finite"),
        "newton": (RuntimeError, "T1 Newton did not converge in 2 steps"),
        "Q1 coefficient zero": (SingularTransformError,
                                "q1_affine_in_nu: vanishing Q1 coefficient"),
    }[case]
    if case == "a1 zero":
        strat = replace(strategy, a1_xi4=0.0)
    elif case == "s*A1 - B1 zero":     # cB0 that cancels the purge denominator
        _, s, _, _, _ = _constants(strategy, params)
        p = replace(params, cB0=strategy.xi2_nom + s * (params.cA0 - strategy.xi1_nom))
    elif case == "no root":
        pt = replace(pt, rho_dot=1e4)
    elif case in ("rho nan", "rho_dot inf", "nu nan"):
        field, value = case.split()
        pt = replace(pt, **{field: float(value)})
    elif case == "newton":
        monkeypatch.setattr(transform, "_NEWTON_MAX_ITER", 2)
    else:                               # the Q1 coefficient scales as 1/rhoF
        p = replace(params, rhoF=1e30)
    with pytest.raises(error, match=message):
        backtransform(pt, strat, p)


def test_scalar_backtransform_evaluates_rates_at_most_11_times(strategy, params, bounds,
                                                               envelope, monkeypatch):
    """A scalar backtransform evaluates the reaction rates twice for the T1
    bracket, once per Newton step and once after the root: at most 11 times
    per point on the 7 x 7 band grid.  Each evaluation of the rates takes
    two math.exp calls, one per Arrhenius factor, which are counted."""
    calls = []
    exp = math.exp

    def counted(x):
        calls.append(x)
        return exp(x)

    monkeypatch.setattr(math, "exp", counted)
    counts = []
    for r, rd in zip(*_band_grid(bounds, envelope)):
        calls.clear()
        backtransform(RampingPoint(float(r), float(rd), 0.5), strategy, params)
        assert len(calls) % 2 == 0
        counts.append(len(calls) // 2)
    assert 1 <= min(counts) and max(counts) <= 11


def test_scalar_point_with_float64_fields_equals_float_fields(strategy, params, bounds,
                                                              envelope):
    """A scalar point runs on Python floats whatever the type of its fields:
    np.float64 fields give bitwise the states and inputs of float fields.
    The kept point is dropped between the two calls, so both are solved."""
    rho, rd = _band_grid(bounds, envelope)
    for r, d, n in zip(rho, rd, np.linspace(-2.0, 2.0, rho.size)):
        x64, u64 = backtransform(RampingPoint(r, d, n), strategy, params)
        transform._last_point = transform._NO_POINT
        xf, uf = backtransform(RampingPoint(float(r), float(d), float(n)), strategy, params)
        assert type(r) is np.float64
        assert np.array_equal(x64.as_array(), xf.as_array())
        assert np.array_equal(u64.as_array(), uf.as_array())


@pytest.fixture
def solves(monkeypatch):
    """The points (rho, rho_dot) that reach _flat_point, in order."""
    calls, flat_point = [], transform._flat_point

    def counted(rho, rho_dot, strat, p):
        calls.append((rho, rho_dot))
        return flat_point(rho, rho_dot, strat, p)

    monkeypatch.setattr(transform, "_flat_point", counted)
    return calls


def _solved(pt, strat, p):
    """The states and inputs of pt as arrays, solved with no kept point."""
    transform._last_point = transform._NO_POINT
    x, u = backtransform(pt, strat, p)
    return x.as_array(), u.as_array()


@pytest.mark.parametrize("pt", [RampingPoint(RHO_NOM, 0.0, 0.0), RampingPoint(4.8, 0.3, -1.5)],
                         ids=["steady", "ramp"])
def test_repeated_point_returns_the_solved_pair(strategy, params, pt, solves):
    """A repeated point is solved once and returns the same two objects,
    bitwise the pair of a call with no kept point."""
    first = backtransform(pt, strategy, params)
    again = backtransform(RampingPoint(*(np.float64(v) for v in (pt.rho, pt.rho_dot, pt.nu))),
                          strategy, params)
    assert len(solves) == 1
    assert again[0] is first[0] and again[1] is first[1]
    x_ref, u_ref = _solved(pt, strategy, params)
    assert np.array_equal(again[0].as_array(), x_ref)
    assert np.array_equal(again[1].as_array(), u_ref)


@pytest.mark.parametrize("other", [RampingPoint(RHO_NOM, 0.0, 1e-12),
                                   RampingPoint(RHO_NOM, -0.0, 0.0)],
                         ids=["nu", "signed-zero-rho_dot"])
def test_point_with_other_bits_is_solved_again(strategy, params, other, solves):
    """A point that differs from the kept one only in nu, or only in the
    sign of a zero rho_dot, is solved again, to its own values."""
    kept = backtransform(RampingPoint(RHO_NOM, 0.0, 0.0), strategy, params)
    x, u = backtransform(other, strategy, params)
    assert len(solves) == 2 and x is not kept[0] and u is not kept[1]
    x_ref, u_ref = _solved(other, strategy, params)
    assert np.array_equal(x.as_array(), x_ref) and np.array_equal(u.as_array(), u_ref)


@pytest.mark.parametrize("which", ["strategy", "params"])
def test_equal_but_other_strategy_or_params_is_solved_again(strategy, params, which, solves):
    """strat and p are matched by identity: an equal-valued copy of either
    is solved again, to the same values."""
    pt = RampingPoint(RHO_NOM, 0.2, 0.5)
    strat, p = (replace(strategy), params) if which == "strategy" else (strategy, replace(params))
    assert (strat, p) == (strategy, params) and (strat is not strategy or p is not params)
    kept = backtransform(pt, strategy, params)
    x, u = backtransform(pt, strat, p)
    assert len(solves) == 2 and x is not kept[0]
    assert np.array_equal(x.as_array(), kept[0].as_array())
    assert np.array_equal(u.as_array(), kept[1].as_array())


def test_alternating_strategies_at_one_point_keep_their_own_values(strategy, params, solves):
    """Two strategies called in turn at one point each get their own
    states and inputs; every call solves, since only one point is kept."""
    pt = RampingPoint(RHO_NOM, 0.2, 0.5)
    other = replace(strategy, a0_xi4=strategy.a0_xi4 + 1e-3)
    refs = [(s, *_solved(pt, s, params)) for s in (strategy, other)]
    assert not np.array_equal(refs[0][1], refs[1][1])
    transform._last_point = transform._NO_POINT
    solves.clear()
    for s, x_ref, u_ref in refs * 2:
        x, u = backtransform(pt, s, params)
        assert np.array_equal(x.as_array(), x_ref) and np.array_equal(u.as_array(), u_ref)
    assert len(solves) == 4


@pytest.mark.parametrize("bad, error", [
    (RampingPoint(RHO_NOM, 1e4, 0.5), OutsideFlatRegionError),
    (RampingPoint(RHO_NOM, 0.2, math.nan), ValueError),
    (RampingPoint(math.nan, 0.2, 0.5), OutsideFlatRegionError),
], ids=["no-root", "nu-nan", "rho-nan"])
def test_failing_point_raises_every_time_and_is_never_kept(strategy, params, bad, error):
    """A point that fails raises on every call, and the point kept before
    it stays kept."""
    good = RampingPoint(RHO_NOM, 0.2, 0.5)
    kept = backtransform(good, strategy, params)
    for _ in range(3):
        with pytest.raises(error):
            backtransform(bad, strategy, params)
    assert transform._last_point[1] is kept
    assert backtransform(good, strategy, params) is kept


@pytest.mark.parametrize("weights", [_rate_weights, _purge_weights])
def test_flat_root_scalar_equals_array(strategy, params, bounds, envelope, weights):
    """The scalar and the array T1 root take the same Newton steps and agree
    within 2 x T1_XTOL, on the rate and the purge weights; targets out of
    reach are NaN on both paths."""
    rho, rd = _band_grid(bounds, envelope)
    target = (strategy.a1_xi4 * rd if weights is _rate_weights
              else np.linspace(-1.0, 9.0, rho.size))
    T1 = flat_root(target, rho, weights, strategy, params)
    scalar = [flat_root(float(t), float(r), weights, strategy, params)
              for t, r in zip(target, rho)]
    assert np.count_nonzero(np.isfinite(T1)) >= 0.8 * rho.size
    np.testing.assert_allclose(scalar, T1, rtol=0, atol=2 * T1_XTOL)


@pytest.mark.parametrize("batch", [False, True], ids=["scalar", "array"])
@pytest.mark.parametrize("field, value, error", [
    ("rho", np.nan, OutsideFlatRegionError), ("rho", np.inf, OutsideFlatRegionError),
    ("rho", -np.inf, OutsideFlatRegionError), ("rho_dot", np.nan, OutsideFlatRegionError),
    ("rho_dot", np.inf, OutsideFlatRegionError), ("rho_dot", -np.inf, OutsideFlatRegionError),
    ("nu", np.nan, ValueError), ("nu", np.inf, ValueError),
])
def test_non_finite_point_raises(strategy, params, field, value, error, batch):
    """A NaN or inf rho or rho_dot has no reactor temperature, on the scalar
    path as on the array path (there next to a valid point), in
    backtransform as in solve_T1; a non-finite nu has no Q1."""
    pt = {"rho": RHO_NOM, "rho_dot": 0.1, "nu": 0.0}
    pt[field] = value
    if batch:
        pt = {k: np.array([v, RHO_NOM if k == "rho" else 0.0]) for k, v in pt.items()}
    with pytest.raises(error):
        backtransform(RampingPoint(**pt), strategy, params)
    if field != "nu":                # solve_T1 alike, on np.float64 fields too
        with pytest.raises(OutsideFlatRegionError):
            solve_T1(np.float64(pt["rho"]), np.float64(pt["rho_dot"]), strategy, params)


def test_batch_with_one_point_outside_region_raises(strategy, params):
    rho = np.full(5, RHO_NOM)
    rd = np.array([0.0, 0.1, 1e4, 0.2, 0.3])
    with pytest.raises(OutsideFlatRegionError, match="1 of 5 points"):
        solve_T1(rho, rd, strategy, params)
    with pytest.raises(OutsideFlatRegionError):
        backtransform(RampingPoint(rho, rd, np.zeros(5)), strategy, params)


def test_rho_dot_partial_is_exact(strategy, params):
    """The residual's rho_dot partial is -a1 exactly, and q1_affine_in_nu's
    nu coefficient is bitwise the reference's -Psi_rhodot / Psi_Q1."""
    T1 = solve_T1(RHO_NOM, 0.3, strategy, params)
    ev = reference_flat_eval(RHO_NOM, T1, strategy, params)
    _, P_rd, P_T1 = reference_psi_partials(RHO_NOM, T1, ev, strategy, params)
    assert P_rd == -strategy.a1_xi4
    c1 = q1_affine_in_nu(RHO_NOM, 0.3, strategy, params)[1]
    assert c1 == -P_rd / (P_T1 / (params.rhoF * params.Cp * params.V1))


def test_partials_match_central_differences(strategy, params, bounds, envelope):
    """Closed-form rho and T1 partials of the flat residual against central
    differences of the reference rate residual on a 5x5 grid of the fitted
    rho_dot band.  The partials are the reference's; at each point,
    q1_affine_in_nu gives bitwise the Q1 coefficients that follow from
    them."""
    h_rho, h_T1 = 1e-5, 1e-3
    for rho in np.linspace(*bounds.rho, 5):
        for rd in np.linspace(*envelope.rho_dot_range(rho), 5):
            T1 = solve_T1(rho, rd, strategy, params)
            ev = reference_flat_eval(rho, T1, strategy, params)
            P_rho, _, P_T1 = reference_psi_partials(rho, T1, ev, strategy, params)
            c0, c1 = reference_q1_affine(rho, rd, T1, ev, strategy, params)
            assert q1_affine_in_nu(rho, rd, strategy, params) == (c0, c1, T1)
            fd_rho = (reference_rate(rho + h_rho, T1, strategy, params)[0]
                      - reference_rate(rho - h_rho, T1, strategy, params)[0]) / (2 * h_rho)
            fd_T1 = (reference_rate(rho, T1 + h_T1, strategy, params)[0]
                     - reference_rate(rho, T1 - h_T1, strategy, params)[0]) / (2 * h_T1)
            assert P_rho == pytest.approx(fd_rho, rel=1e-6)
            assert P_T1 == pytest.approx(fd_T1, rel=1e-6)


def test_q1_affine_in_nu(strategy, params):
    rho, rd = 5.0, 0.4
    _, u1 = backtransform(RampingPoint(rho, rd, -1.0), strategy, params)
    _, u2 = backtransform(RampingPoint(rho, rd, 1.0), strategy, params)
    _, u3 = backtransform(RampingPoint(rho, rd, 3.0), strategy, params)
    # three-point collinearity
    slope12 = (u2.Q1 - u1.Q1) / 2.0
    slope23 = (u3.Q1 - u2.Q1) / 2.0
    assert slope12 == pytest.approx(slope23, rel=1e-8)


def test_dependency_structure(strategy, params):
    """FB, cB1 respond to rho only; T1, Fp, Q2 also to rho_dot; Q1 also to nu."""
    base = RampingPoint(5.1, 0.3, 1.0)
    x0, u0 = backtransform(base, strategy, params)
    x1, u1 = backtransform(RampingPoint(5.1, 0.45, 1.0), strategy, params)
    # rho_dot changed: FB, cB1, cA1, flash states invariant
    assert u1.FB == pytest.approx(u0.FB, rel=1e-12)
    assert x1.cB1 == pytest.approx(x0.cB1, rel=1e-12)
    assert x1.cA1 == pytest.approx(x0.cA1, rel=1e-12)
    assert x1.T1 != pytest.approx(x0.T1, rel=1e-6)
    x2, u2 = backtransform(RampingPoint(5.1, 0.3, 2.5), strategy, params)
    # nu changed: only Q1 moves
    assert u2.Q1 != pytest.approx(u0.Q1, rel=1e-6)
    for attr in ("FB", "Fp", "Q2"):
        assert getattr(u2, attr) == pytest.approx(getattr(u0, attr), rel=1e-12)
    assert np.allclose(x2.as_array(), x0.as_array(), rtol=1e-12)


def _flat_control_schedule(strategy, params, t, rho, rho_dot, nu):
    us, xs = [], []
    for r, rd, n in zip(rho, rho_dot, nu):
        x, u = backtransform(RampingPoint(r, rd, n), strategy, params)
        us.append(u.as_array())
        xs.append(x.as_array())
    return ControlSchedule(t, np.array(us), np.array(rho)), np.array(xs)


def smooth_rho_profile(t, amp=0.35, period=2.5):
    w = 2 * np.pi / period
    rho = RHO_NOM + amp * (1 - np.cos(w * t)) / 2
    rho_dot = amp * w * np.sin(w * t) / 2
    nu = amp * w * w * np.cos(w * t) / 2
    return rho, rho_dot, nu


def test_closed_loop_holds_flash_composition(strategy, params, bounds):
    """Simulating with backtransformed inputs keeps cB2 at nominal to 1e-4
    over 5 h — the oracle locking the hand-derived purge expression."""
    t = np.arange(0.0, 5.0 + 1e-9, 0.01)
    rho, rho_dot, nu = smooth_rho_profile(t)
    controls, xs = _flat_control_schedule(strategy, params, t, rho, rho_dot, nu)
    from rampsched.process import StateVec
    traj = simulate(StateVec.from_array(xs[0]), controls, 5.0, step=0.01, p=params)
    assert np.max(np.abs(traj.states[:, 4] - strategy.xi2_nom)) <= 1e-4
    assert np.max(np.abs(traj.states[:, 3] - strategy.xi1_nom)) <= 1e-4
    assert np.max(np.abs(traj.states[:, 5] - strategy.xi3_nom)) <= 1e-2


def test_backtransform_consistency_fd(strategy, params):
    """d/dt of the backtransformed states (finite differences) matches the
    model right-hand side along a smooth trajectory to 1e-4 scaled."""
    from rampsched.process import StateVec, ode_rhs
    t = np.arange(0.0, 2.0, 0.002)
    rho, rho_dot, nu = smooth_rho_profile(t, amp=0.3, period=2.0)
    xs, rhss = [], []
    for r, rd, n in zip(rho, rho_dot, nu):
        x, u = backtransform(RampingPoint(r, rd, n), strategy, params)
        xs.append(x.as_array())
        rhss.append(ode_rhs(x, u, r, params).as_array())
    xs, rhss = np.array(xs), np.array(rhss)
    scale = np.array([1, 1, 100, 1, 1, 100])
    fd = np.gradient(xs, t, axis=0)
    err = np.max(np.abs(fd[3:-3] - rhss[3:-3]) / scale)
    assert err <= 1e-4
