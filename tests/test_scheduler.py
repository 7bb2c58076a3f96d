import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rampsched import envelope as envelope_module
from rampsched import scheduler
from rampsched.envelope import N_LOWER, Planes, derive_envelope, fit_demand_pwa
from rampsched.milp import (INF, MixedIntegerProgram, branch_and_bound, check_solution,
                            simplex_solve)
from rampsched.scheduler import (KJH_PER_KW, EnergyComponent, ScheduleProblem,
                                 _dominance_pairs, _lower_big_m, assemble_problem,
                                 desk_components, extract_result, paper_components,
                                 ramp_problem, solve_ramp, solve_schedule,
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


def point_loop_result(sp, layout, x):
    """Storage, heat, unit commitment and the cost split, summed point by
    point and hour by hour over the layout's variables."""
    grid, units = layout.grid, sp.components
    pts_list = [(e, j) for e in range(grid.n_elem) for j in range(grid.pts)]
    storage = [x[layout.S[0][0]]] + [x[layout.S[e][j + 1]] for e, j in pts_list]
    q_dem = [x[layout.q_dem[e][j]] for e, j in pts_list]
    unit_heat = {u.name: [u.th_eff * x[layout.q_in[k][e][j]] for e, j in pts_list]
                 for k, u in enumerate(units)}
    cost_gas = cost_buy = rev_sell = 0.0
    for e, j in pts_list:
        wk = grid.weights[j] * grid.h
        cost_gas += wk * sp.market.gas_price * sum(x[layout.q_in[k][e][j]]
                                                   for k in range(len(units)))
        price, dp = sp.market.el_price[e // sp.elems_per_hour], x[layout.dp[e][j]]
        if dp >= 0:
            cost_buy += wk * price * dp
        else:
            rev_sell += wk * price * (-dp)
    on_hours = {u.name: [round(float(x[layout.z_on[k][h]])) for h in range(sp.horizon_h)]
                for k, u in enumerate(units)}
    return dict(storage=storage, q_dem_kw=q_dem, unit_heat_kw=unit_heat, cost_gas=cost_gas,
                cost_el_buy=cost_buy, rev_el_sell=rev_sell, on_hours=on_hours)


@pytest.mark.parametrize("components, horizon_h, elems_per_hour", [
    (desk_components, 2, 1), (desk_components, 2, 2), (paper_components, 6, 1),
], ids=["desk-2h-1/h", "desk-2h-2/h", "paper-6h"])
def test_result_matches_point_loops(envelope, demand_model, components, horizon_h,
                                    elems_per_hour):
    """extract_result's array expressions (quadrature weight x h x hourly
    price) give what point-by-point sums give, to 1e-12 relative."""
    sp = ScheduleProblem(envelope, demand_model, components(), two_level_market(horizon_h),
                         horizon_h, elems_per_hour=elems_per_hour, gap_tol=GAP_TOL)
    mip, layout = assemble_problem(sp)
    sol = branch_and_bound(mip, sp.gap_tol, sp.time_limit_s)
    res = extract_result(sp, layout, sol)
    ref = point_loop_result(sp, layout, sol.x)
    for name in ("storage", "q_dem_kw", "cost_gas", "cost_el_buy", "rev_el_sell"):
        assert getattr(res, name) == pytest.approx(ref[name], rel=1e-12), name
    assert res.unit_heat_kw.keys() == ref["unit_heat_kw"].keys()
    for unit, heat in ref["unit_heat_kw"].items():
        assert res.unit_heat_kw[unit] == pytest.approx(heat, rel=1e-12), unit
    assert res.on_hours == ref["on_hours"]
    assert res.cost_el_buy + res.rev_el_sell > 0
    assert max(map(max, res.on_hours.values())) == 1


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


@pytest.mark.parametrize("field, value", [
    ("el_price", (0.06, math.nan)), ("gas_price", math.nan), ("gas_price", math.inf),
    ("heat_demand_kw", (math.nan, 100.0)), ("el_demand_kw", (100.0, math.nan)),
    ("heat_demand_kw", (100.0, math.inf))], ids=["el_price-nan", "gas_price-nan", "gas_price-inf",
                                               "heat_demand-nan", "el_demand-nan", "heat_demand-inf"])
def test_market_series_rejects_non_finite_values(field, value):
    """NaN passes the non-negative check, so a NaN price or demand is
    rejected, as an infinite one is."""
    with pytest.raises(ValueError, match="market prices and demands must be finite"):
        dataclasses.replace(two_level_market(2), **{field: value})


@pytest.mark.parametrize("heat, el", [
    ((-50.0, 100.0), (100.0, 100.0)), ((100.0, 100.0), (100.0, -1.0)),
    (np.array([-50.0, 100.0]), np.array([100.0, 100.0])),
    (np.array([100.0, 100.0]), np.array([100.0, -1.0]))],
    ids=["heat-tuple", "el-tuple", "heat-array", "el-array"])
def test_market_series_rejects_negative_demands(heat, el):
    """Each series is checked on its own: numpy arrays add elementwise, so
    -50 kW of heat beside 100 kW of electricity must not pass as 50 kW."""
    with pytest.raises(ValueError, match="demands must be non-negative"):
        dataclasses.replace(two_level_market(2), heat_demand_kw=heat, el_demand_kw=el)


def test_schedule_time_out_without_incumbent_raises(envelope, demand_model):
    sp = problem(envelope, demand_model, False, time_limit_s=0.0)
    with pytest.raises(RuntimeError, match="no incumbent"):
        solve_schedule(sp)


def test_two_elements_per_hour_market(envelope, demand_model):
    """Each hour keeps one lower-plane code and one nu interval; both
    elements of an hour select with that hour's bits."""
    sp = problem(envelope, demand_model, False, elems_per_hour=2)
    mip, layout = assemble_problem(sp)
    res, sol = solve_schedule(sp)
    assert check_solution(mip, sol.x) == []
    assert sol.status == "optimal" or \
        (sol.status == "feasible-with-gap" and sol.gap <= GAP_TOL)
    assert len(layout.z_sel) == sp.horizon_h
    assert len(layout.nu_nodes) == sp.horizon_h + 1
    names = [v.name for v in mip.variables]
    integer = {j for j, v in enumerate(mip.variables) if v.integer}
    lower = [r for r in mip.rows if r.name.startswith("pwal_")]
    assert len(lower) == N_LOWER * layout.grid.n_elem * sp.pts
    for row in lower:
        e = int(row.name.split("_")[2])
        bits = {names[j] for j, _ in row.coeffs if j in integer}
        assert bits == {names[z] for z in layout.z_sel[e // 2]}
    model = [demand_model.predict(res.rho[k], res.rho_dot[k], res.nu[k]) / KJH_PER_KW
             for k in range(1, len(res.times))]
    assert res.q_dem_kw == pytest.approx(model, rel=1e-6)


@pytest.mark.parametrize("fix, size", [(True, (49, 6, 59)), (False, (51, 8, 105))],
                         ids=["steady", "flexible"])
def test_schedule_milp_size_pinned(envelope, demand_model, fix, size):
    """vars, binaries and rows of the 2 h desk market: the flexible rate model
    the schedule shares with the ramps adds and drops nothing, the steady one
    fixes rho, rho_dot and nu by their bounds with no lower-plane bits and no
    rate rows, and the dominance order adds one row per hour, CHP2 on
    wherever CHP1 is."""
    mip, _ = assemble_problem(problem(envelope, demand_model, fix))
    assert (mip.n_vars, mip.n_integer, len(mip.rows)) == size
    assert [r.name for r in mip.rows if r.name.startswith("dom_")] == \
        ["dom_CHP1_CHP2_0", "dom_CHP1_CHP2_1"]


@pytest.mark.parametrize("build", [
    lambda env, dem: ramp_problem("up", env, 2.5),
    lambda env, dem: ramp_problem("up", env, 3.0, elem_h=1.0 / 3.0),
    lambda env, dem: ramp_problem("down", env, 4.0, elem_h=0.2),
    lambda env, dem: assemble_problem(problem(env, dem, False, elems_per_hour=2)),
], ids=["up-0.1h", "up-1/3h", "down-0.2h", "market-2h-2/h"])
def test_no_vanishing_coefficients(envelope, demand_model, build):
    """A point on a nu breakpoint weighs it by exactly 1, leaving no rounding
    residue on the neighbouring breakpoint."""
    mip, _ = build(envelope, demand_model)
    assert [r.name for r in mip.rows if any(abs(c) < 1e-9 for _, c in r.coeffs)] == []


def _raised_lower_nu(env):
    """env with every lower nu plane raised 1 past nu = 0 at (rho_nom, 0)."""
    lower = env.nu_pwa.lower.coef.copy()
    lower[:, 0] += 1.0 - env.nu_range(env.rho_nom, 0.0)[0]
    return dataclasses.replace(env, nu_pwa=dataclasses.replace(env.nu_pwa, lower=Planes(lower)))


@pytest.mark.parametrize("outside", [
    lambda env: dataclasses.replace(env, rho_nom=env.rho_bounds[1] + 0.1),
    _raised_lower_nu,
], ids=["rho_nom-above-bounds", "nu-below-lower-planes"])
def test_steady_schedule_outside_the_envelope_raises(envelope, demand_model, outside):
    """The steady baseline builds no rate rows, so it checks up front that
    the envelope holds (rho_nom, 0, 0), which those rows would have
    required."""
    env = outside(envelope)
    assert not env.contains(env.rho_nom, 0.0, 0.0)
    with pytest.raises(ValueError, match="outside the ramping envelope"):
        assemble_problem(problem(env, demand_model, True))


def test_demand_model_of_another_envelope_raises(strategy, params, bounds, envelope):
    """An envelope fitted under other bounds has another fingerprint."""
    other = derive_envelope(strategy, params, dataclasses.replace(bounds, Q1=(0.0, 5.5e6)))
    with pytest.raises(ValueError, match="different envelope"):
        problem(envelope, fit_demand_pwa(strategy, params, bounds, other), False)


def test_demand_model_of_a_coarser_envelope_raises(strategy, params, bounds, envelope,
                                                   monkeypatch):
    """Envelopes fitted on grids of 51 and 31 points per axis from the same
    strategy, plant and bounds differ in their planes, so they differ in
    fingerprint too."""
    monkeypatch.setattr(envelope_module, "ENVELOPE_GRID", 31)
    coarse = derive_envelope(strategy, params, bounds)
    assert coarse.fingerprint != envelope.fingerprint
    with pytest.raises(ValueError, match="different envelope"):
        problem(envelope, fit_demand_pwa(strategy, params, bounds, coarse), False)


def test_ramp_milp_size_pinned(envelope):
    """vars, binaries and rows of the default up-ramp (25 elements)."""
    mip, _ = ramp_problem("up", envelope, 2.5)
    assert (mip.n_vars, mip.n_integer, len(mip.rows)) == (153, 25, 506)


@pytest.mark.parametrize("elem_h", [0.4, 0.3, 0.0, -0.5])
def test_ramp_element_off_a_whole_fraction_of_an_hour_raises(envelope, elem_h):
    with pytest.raises(ValueError, match="whole fraction"):
        ramp_problem("up", envelope, 2.0, elem_h=elem_h)


@pytest.mark.parametrize("elem_h", [0.1, 0.2, 0.25, 0.5, 1.0 / 3.0])
def test_ramp_element_of_a_whole_fraction_builds(envelope, elem_h):
    _, layout = ramp_problem("up", envelope, 1.0, elem_h=elem_h)
    assert layout.grid.elems_per_hour == round(1.0 / elem_h)


@pytest.mark.parametrize("direction, elem_h", [("up", 0.25), ("up", 0.1), ("down", 0.5)])
def test_ramp_reaches_target(envelope, direction, elem_h):
    res = solve_ramp(direction, envelope, elem_h=elem_h)
    assert res.ramp_time is not None
    assert 0.0 < res.ramp_time <= res.times[-1]
    target = envelope.rho_bounds[1] if direction == "up" else envelope.rho_bounds[0]
    assert res.rho[-1] == pytest.approx(target, rel=0.01)


def test_ramp_problem_selects_lower_plane_by_code(envelope):
    """ceil(log2 N_LOWER) binaries per element pick the lower nu plane, and
    no row ties the pick to the point's quadrant."""
    mip, layout = ramp_problem("up", envelope, 2.5, elem_h=0.25)
    n_elem = layout.grid.n_elem
    assert sum(v.integer for v in mip.variables) == n_elem * math.ceil(math.log2(N_LOWER))
    assert [len(bits) for bits in layout.z_sel] == [math.ceil(math.log2(N_LOWER))] * n_elem
    assert not [r.name for r in mip.rows if r.name.startswith("lz")]


@pytest.mark.parametrize("steady", [False, True], ids=["box", "steady"])
def test_lower_big_m_matches_corner_loop(envelope, steady):
    """The big-Ms of the lower nu planes, every plane pair at the band's
    corners and the start point in one call, equal a loop over the points
    and the plane pairs; the start is a box corner or the steady point."""
    rho_start = envelope.rho_nom if steady else envelope.rho_bounds[0]
    (l0, l1), (u0, u1) = envelope.rd.coef.tolist()
    points = [(r, c0 + c1 * r) for c0, c1 in ((l0, l1), (u0, u1))
              for r in envelope.rho_bounds] + [(rho_start, 0.0)]
    coef = envelope.nu_pwa.lower.coef.tolist()
    loop = [max(max((ck0 + ckr * r + ckd * d) - (cj0 + cjr * r + cjd * d)
                    for r, d in points for cj0, cjr, cjd in coef), 0.0)
            for ck0, ckr, ckd in coef]
    assert _lower_big_m(envelope, rho_start) == loop


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_lower_big_m_covers_every_other_plane(envelope, rho_frac, band_frac, start_frac):
    """At a point of the rate-derivative band and at the start point
    (rho_start, 0), lower plane k exceeds every other lower plane j by at
    most M_k, so a row relaxed by M_k holds wherever plane j does."""
    lo, hi = envelope.rho_bounds
    rho_start = lo + start_frac * (hi - lo)
    M = _lower_big_m(envelope, rho_start)
    rho = lo + rho_frac * (hi - lo)
    rd_lo, rd_hi = envelope.rho_dot_range(rho)
    for r, d in ((rho, rd_lo + band_frac * (rd_hi - rd_lo)), (rho_start, 0.0)):
        v = envelope.nu_pwa.lower(r, d).tolist()
        for k, j in itertools.permutations(range(len(v)), 2):
            assert v[k] - v[j] <= M[k] + 1e-9, (k, j, r, d)


def box_big_m(env, rho_start):
    """The lower-plane big-M of the variable box: every lower plane at the
    corners of the (rho, rho_dot) box, down to the floor of nu's box, plus 1."""
    rho, rd = np.array(env.rho_bounds)[:, None], np.array(env.rho_dot_box())
    return (np.maximum(env.nu_pwa.lower(rho, rd).max(axis=(1, 2)) - env.nu_box()[0], 0.0)
            + 1.0).tolist()


TIGHT_GAP = 1e-6


@pytest.mark.parametrize("build", [
    lambda env, dem: assemble_problem(problem(env, dem, False, horizon_h=2)),
    lambda env, dem: assemble_problem(problem(env, dem, False, horizon_h=3)),
    lambda env, dem: assemble_problem(problem(env, dem, False, horizon_h=6)),
    lambda env, dem: assemble_problem(ScheduleProblem(env, dem, paper_components(),
                                                      two_level_market(6), 6)),
    lambda env, dem: ramp_problem("up", env, 2.5, elem_h=0.1),
    lambda env, dem: ramp_problem("down", env, 4.0, elem_h=0.2),
], ids=["desk-2h", "desk-3h", "desk-6h", "paper-6h", "up-ramp", "down-ramp"])
def test_tight_formulation_keeps_the_optimum(envelope, demand_model, monkeypatch, build):
    """At a tight gap, the MILP with the other-plane big-M and the dominance
    rows reaches the objective of the box big-M build without those rows:
    both are within TIGHT_GAP of one optimum."""
    tight = branch_and_bound(build(envelope, demand_model)[0], TIGHT_GAP).objective
    monkeypatch.setattr(scheduler, "_lower_big_m", box_big_m)
    monkeypatch.setattr(scheduler, "_dominance_pairs", lambda units, market: [])
    box = branch_and_bound(build(envelope, demand_model)[0], TIGHT_GAP).objective
    assert tight == pytest.approx(box, rel=2 * TIGHT_GAP)


def test_lp_relaxation_of_the_desk_market_is_tight(envelope, demand_model):
    """The LP bound of the 2 h desk flexible MILP is at least 0.93 of its
    optimum (0.947 with the other-plane big-M, 0.853 with the box one)."""
    mip, _ = assemble_problem(problem(envelope, demand_model, False))
    optimum = branch_and_bound(mip, TIGHT_GAP).objective
    assert simplex_solve(mip).objective >= 0.93 * optimum


def chp(name, th_eff, el_eff, q_nom_kw=650.0):
    return EnergyComponent(name, q_nom_kw, th_eff, el_eff, 0.5)


@pytest.mark.parametrize("units, market, pairs", [
    # CHP2 is cheaper below an el price of 0.771, CHP1 above it
    (desk_components(), two_level_market(2), [(0, 1)]),
    (desk_components(), two_level_market(2, high=1.0, low=0.9), [(1, 0)]),
    (desk_components(), two_level_market(2, high=1.0, low=0.01), []),
    # CHP1 <= CHP3 follows from CHP1 <= CHP2 <= CHP3 and adds no row
    (paper_components(), two_level_market(24), [(0, 1), (1, 2), (2, 3), (4, 5)]),
    # the same unit twice: one row, not both, which would force them equal
    ([chp("A", 0.5, 0.4), chp("B", 0.5, 0.4)], two_level_market(2), [(0, 1)]),
    # a cheaper unit of another size or kind takes no part
    ([chp("A", 0.4, 0.3), chp("B", 0.5, 0.4, q_nom_kw=600.0)], two_level_market(2), []),
    ([chp("A", 0.4, 0.3), EnergyComponent("B", 650.0, 0.9, None, 0.5)],
     two_level_market(2), []),
], ids=["desk", "desk-high-prices", "desk-reversing", "paper", "equal-units",
        "other-size", "other-kind"])
def test_dominance_pairs(units, market, pairs):
    assert _dominance_pairs(units, market) == pairs


def test_market_reversing_the_cost_order_adds_no_row(envelope, demand_model):
    mip, _ = assemble_problem(problem(envelope, demand_model, False,
                                      market=two_level_market(2, high=1.0, low=0.01)))
    assert (mip.n_vars, mip.n_integer, len(mip.rows)) == (51, 8, 103)
    assert not [r.name for r in mip.rows if r.name.startswith("dom_")]


def test_lower_plane_count_off_a_power_of_two_raises(envelope):
    pwa = envelope.nu_pwa
    three = dataclasses.replace(pwa, lower=Planes(pwa.lower.coef[[0, 1, 0]]))
    with pytest.raises(ValueError, match="3 lower nu planes"):
        ramp_problem("up", dataclasses.replace(envelope, nu_pwa=three), 1.0)


def test_ramp_solve_prints_nothing(envelope, capfd):
    solve_ramp("down", envelope)
    out, _ = capfd.readouterr()
    assert out == ""


def test_solver_paths_print_nothing(envelope, capfd):
    """No HiGHS output on an LP, an infeasible MIP, an unbounded MIP (which
    HiGHS reports as unbounded or infeasible, so the solve raises), a solve
    cut by a zero time limit, or the up-ramp at 20 elements/h, on which
    HiGHS prints a line to fd 1 even with disp=False."""
    ramp, _ = ramp_problem("down", envelope, 4.0, elem_h=0.5)
    infeasible = MixedIntegerProgram()
    infeasible.add_variable("z", 0.0, 1.0, integer=True)
    infeasible.add_constraint({0: 1.0}, ">=", 2.0)
    unbounded = MixedIntegerProgram()
    unbounded.add_variable("z", 0.0, 1.0, integer=True)
    unbounded.add_variable("x", 0.0, INF)
    unbounded.add_constraint({0: 1.0, 1: 1.0}, ">=", 1.0)
    unbounded.set_objective({1: -1.0})
    assert simplex_solve(ramp).status == "optimal"
    assert branch_and_bound(infeasible).status == "infeasible"
    with pytest.raises(RuntimeError, match="unbounded or infeasible"):
        branch_and_bound(unbounded)
    assert branch_and_bound(ramp, time_limit=0.0).status == "time-limit"
    assert solve_ramp("up", envelope, horizon=2.5, elem_h=0.05).ramp_time is not None
    out, err = capfd.readouterr()
    assert (out, err) == ("", "")
