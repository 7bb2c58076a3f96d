import pytest

from rampsched.milp import check_solution
from rampsched.scheduler import (ScheduleProblem, assemble_problem,
                                 desk_components, solve_ramp, solve_schedule,
                                 two_level_market)

GAP_TOL = 0.02


def problem(envelope, demand_model, fix_steady, **kw):
    return ScheduleProblem(envelope, demand_model, desk_components(),
                           two_level_market(2), 2, gap_tol=GAP_TOL,
                           fix_steady=fix_steady, **kw)


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


def test_flexible_no_dearer_than_steady(schedules):
    steady = schedules[True][2].objective
    flexible = schedules[False][2].objective
    assert flexible <= steady * (1.0 + GAP_TOL)


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
