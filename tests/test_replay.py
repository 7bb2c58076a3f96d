"""Ramps and schedules that hold in the linear ramping model hold on the full
nonlinear plant: every bound, and the flash outputs at their strategy
values."""

import dataclasses

import pytest

from plant_replay import assert_holds_on_plant, replay
from rampsched.scheduler import (ScheduleProblem, desk_components, paper_components,
                                 solve_schedule, two_level_market)

GAP_TOL = 0.02


def test_default_up_ramp_holds_on_plant(up_ramp, strategy, params, bounds):
    assert_holds_on_plant(up_ramp, strategy, params, bounds)


def test_default_down_ramp_holds_on_plant(down_ramp, strategy, params, bounds):
    assert_holds_on_plant(down_ramp, strategy, params, bounds)


@pytest.fixture(scope="module")
def desk_six_hour_flexible(envelope, demand_model):
    res, _ = solve_schedule(ScheduleProblem(envelope, demand_model, desk_components(),
                                            two_level_market(6), 6, gap_tol=GAP_TOL,
                                            fix_steady=False))
    return res


def test_six_hour_desk_flexible_market_holds_bounds_on_plant(desk_six_hour_flexible,
                                                             strategy, params, bounds):
    _, report = replay(desk_six_hour_flexible, strategy, params, bounds)
    assert report.feasible, str(report)


@pytest.mark.xfail(strict=True, reason="cA2 drifts 1.43e-3 and T2 1.06e-3 of their spans from "
                   "the strategy values: between the samples of a 1 h element the "
                   "interpolated rho_dot is not the derivative of the interpolated rho")
def test_twelve_hour_paper_flexible_market_holds_on_plant(envelope, demand_model, strategy,
                                                          params, bounds):
    res, _ = solve_schedule(ScheduleProblem(envelope, demand_model, paper_components(),
                                            two_level_market(12), 12, gap_tol=GAP_TOL,
                                            fix_steady=False))
    assert_holds_on_plant(res, strategy, params, bounds)


def test_nu_past_the_upper_planes_violates_q1(up_ramp, envelope, strategy, params, bounds):
    """The up-ramp with nu a tenth of the envelope's nu box above its upper
    planes drives Q1 past its bound on the plant."""
    lo, hi = envelope.nu_box()
    _, nu_hi = envelope.nu_range(up_ramp.rho, up_ramp.rho_dot)
    pushed = dataclasses.replace(up_ramp, nu=nu_hi + 0.1 * (hi - lo))
    _, report = replay(pushed, strategy, params, bounds)
    assert "Q1" in {v.variable for v in report.violations}


def test_six_hour_paper_market_solves_and_holds_on_plant(envelope, demand_model, strategy,
                                                         params, bounds):
    """The paper's energy system on a 6 h market: steady and flexible solve
    within their gap, flexibility does not cost more, and both hold on the
    plant."""
    res = {}
    for fix in (True, False):
        sp = ScheduleProblem(envelope, demand_model, paper_components(),
                             two_level_market(6), 6, gap_tol=GAP_TOL, fix_steady=fix)
        res[fix], sol = solve_schedule(sp)
        assert sol.status == "optimal" or \
            (sol.status == "feasible-with-gap" and sol.gap <= GAP_TOL)
        assert_holds_on_plant(res[fix], strategy, params, bounds)
    assert res[False].objective <= res[True].objective * (1.0 + GAP_TOL)
