import pytest

from rampsched.milp import check_solution
from rampsched.scheduler import (KJH_PER_KW, ScheduleProblem, assemble_problem,
                                 desk_components, solve_ramp, solve_schedule,
                                 two_level_market)

GAP_TOL = 0.02


def problem(envelope, demand_model, fix_steady, horizon_h=2, market=None, **kw):
    return ScheduleProblem(envelope, demand_model, desk_components(),
                           market or two_level_market(horizon_h), horizon_h,
                           gap_tol=GAP_TOL, fix_steady=fix_steady, **kw)


@pytest.fixture(scope="module")
def schedules(envelope, demand_model):
    """2 h market solved steady (True) and flexible (False):
    fix_steady -> (problem, result, solution)."""
    out = {}
    for fix in (True, False):
        sp = problem(envelope, demand_model, fix)
        res, sol = solve_schedule(sp)
        out[fix] = (sp, res, sol)
    return out


@pytest.mark.parametrize("fix", [True, False], ids=["steady", "flexible"])
def test_schedule_solution_checks_and_is_within_gap(schedules, fix):
    sp, res, sol = schedules[fix]
    mip, _ = assemble_problem(sp)
    assert check_solution(mip, sol.x) == []
    assert sol.status == "optimal" or \
        (sol.status == "feasible-with-gap" and sol.gap <= GAP_TOL)
    assert (res.status, res.gap, res.objective) == (sol.status, sol.gap, sol.objective)


@pytest.mark.parametrize("fix", [True, False], ids=["steady", "flexible"])
def test_schedule_storage_and_cost_split(schedules, fix):
    _, res, sol = schedules[fix]
    assert res.storage[-1] >= -1e-7
    split = res.cost_gas + res.cost_el_buy - res.rev_el_sell
    assert split == pytest.approx(sol.objective, rel=1e-6)


@pytest.mark.parametrize("fix", [True, False], ids=["steady", "flexible"])
def test_schedule_heat_demand_on_the_model(schedules, demand_model, fix):
    _, res, _ = schedules[fix]
    model = [demand_model.predict(res.rho[k], res.rho_dot[k], res.nu[k]) / KJH_PER_KW
             for k in range(1, len(res.times))]
    assert res.q_dem_kw == pytest.approx(model, rel=1e-6)


def test_flexible_no_dearer_than_steady(schedules):
    steady = schedules[True][2].objective
    flexible = schedules[False][2].objective
    assert flexible <= steady * (1.0 + GAP_TOL)


def test_six_hour_flexible_market_closes_its_gap(envelope, demand_model):
    steady, _ = solve_schedule(problem(envelope, demand_model, True, horizon_h=6))
    flexible, _ = solve_schedule(problem(envelope, demand_model, False, horizon_h=6,
                                         time_limit_s=30.0))
    assert flexible.status == "optimal" or \
        (flexible.status == "feasible-with-gap" and flexible.gap <= GAP_TOL)
    assert flexible.objective <= steady.objective * (1.0 + GAP_TOL)


def test_surplus_heat_raises(envelope, demand_model):
    # at this price the CHP's electricity pays for its gas, so heat beyond
    # the process demand would be produced
    sp = problem(envelope, demand_model, False,
                 market=two_level_market(2, high=0.1, low=0.1))
    with pytest.raises(RuntimeError, match="surplus heat"):
        solve_schedule(sp)


def test_schedule_time_out_without_incumbent_raises(envelope, demand_model):
    sp = problem(envelope, demand_model, False, time_limit_s=0.0)
    with pytest.raises(RuntimeError, match="no incumbent"):
        solve_schedule(sp)


@pytest.mark.parametrize("direction, elem_h", [("up", 0.25), ("down", 0.5)])
def test_ramp_reaches_target(envelope, direction, elem_h):
    res = solve_ramp(direction, envelope, elem_h=elem_h)
    assert res.ramp_time is not None
    assert 0.0 < res.ramp_time <= res.times[-1]
    target = envelope.rho_bounds[1] if direction == "up" else envelope.rho_bounds[0]
    assert res.rho[-1] == pytest.approx(target, rel=0.01)


def test_ramp_solve_prints_nothing(envelope, capfd):
    solve_ramp("down", envelope)
    out, _ = capfd.readouterr()
    assert out == ""
