"""Simultaneous process / multi-energy-system scheduling as a MILP.

One collocated rate model serves both problems: the production rate rho,
its rate rho_dot and the piecewise-linear ramping degree of freedom
nu = d2 rho / dt2, held inside the fitted ramping envelope at every
collocation point (`_rate_model`).  Under the envelope, nu lies below every
upper plane, with no binaries, and above one of the K lower planes; each nu
interval selects that plane freely with ceil(log2 K) binaries, since every
lower plane is conservative on the whole band.  The as-fast-as-possible
ramp breaks nu at every element and adds only its objective.  The
demand-response schedule breaks nu hourly and adds the convex heat demand,
conversion units with minimum part load, storage, grid exchange and energy
costs.  The heat demand is the epigraph of the convex max-affine demand
model, one row per plane and no binaries; the epigraph equals the model
only while surplus heat never pays, which `extract_result` checks on every
solution.  Powers are in kW, heat demand converted from the process
model's kJ/h, prices in currency/kWh, time in hours.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .collocation import CollocationGrid, collocation_grid
from .envelope import PwaDemandModel, RampingEnvelope
from .milp import MixedIntegerProgram, Solution, branch_and_bound

KJH_PER_KW = 3600.0
SURPLUS_RTOL = 1e-6       # q_dem above its demand model, relative


@dataclass(frozen=True)
class EnergyComponent:
    """Gas-fired conversion unit with one affine conversion element.

    The part-load curve through (minimum load, proportional input) and
    (nominal load, proportional input) degenerates to output = efficiency
    times input, switched by the hourly on/off binary.
    """

    name: str
    q_nom_kw: float                 # nominal thermal output
    th_eff: float
    el_eff: float | None = None    # None for boilers
    min_load_frac: float = 0.5

    def __post_init__(self):
        if not 0 < self.min_load_frac < 1:
            raise ValueError(f"{self.name}: min part-load must be in (0,1)")
        if not 0 < self.th_eff < 1:
            raise ValueError(f"{self.name}: thermal efficiency must be in (0,1)")
        if self.el_eff is not None and not 0 < self.el_eff < 1:
            raise ValueError(f"{self.name}: electric efficiency must be in (0,1)")

    @property
    def q_min_kw(self) -> float:
        return self.min_load_frac * self.q_nom_kw

    @property
    def gas_in_max_kw(self) -> float:
        return self.q_nom_kw / self.th_eff


def paper_components() -> list[EnergyComponent]:
    """4 CHPs at 450 kW thermal plus 2 boilers at 530 kW, published
    efficiencies, 50% / 20% minimum part load."""
    return [
        EnergyComponent("CHP1", 450.0, 0.483, 0.377, 0.5),
        EnergyComponent("CHP2", 450.0, 0.493, 0.384, 0.5),
        EnergyComponent("CHP3", 450.0, 0.503, 0.392, 0.5),
        EnergyComponent("CHP4", 450.0, 0.513, 0.399, 0.5),
        EnergyComponent("B1", 530.0, 0.792, None, 0.2),
        EnergyComponent("B2", 530.0, 0.808, None, 0.2),
    ]


def desk_components() -> list[EnergyComponent]:
    """Desk-scale system: 2 CHPs + 1 boiler, sized so the CHPs can carry the
    process peak demand (which keeps the price-regime structure active)."""
    return [
        EnergyComponent("CHP1", 650.0, 0.483, 0.377, 0.5),
        EnergyComponent("CHP2", 650.0, 0.493, 0.384, 0.5),
        EnergyComponent("B1", 530.0, 0.792, None, 0.2),
    ]


@dataclass(frozen=True)
class MarketSeries:
    el_price: tuple          # currency/kWh, hourly
    gas_price: float         # currency/kWh
    heat_demand_kw: tuple    # inflexible, hourly
    el_demand_kw: tuple

    def __post_init__(self):
        n = len(self.el_price)
        if len(self.heat_demand_kw) != n or len(self.el_demand_kw) != n:
            raise ValueError("market series lengths differ")
        if any(d < 0 for d in self.heat_demand_kw + self.el_demand_kw):
            raise ValueError("demands must be non-negative")

    @property
    def n_hours(self) -> int:
        return len(self.el_price)


LOW_WINDOWS = {24: (13, 18), 12: (6, 9), 6: (2, 3)}


def two_level_market(horizon_h: int, high: float = 0.06, low: float = 0.01,
                     gas: float = 0.03, heat_kw: float = 100.0,
                     el_kw: float = 100.0) -> MarketSeries:
    """Bundled synthetic two-level day-ahead price profile with constant
    inflexible demands; the low-price window scales with the horizon."""
    lo, hi = LOW_WINDOWS.get(horizon_h, (horizon_h // 2, horizon_h * 3 // 4))
    price = tuple(low if lo <= h <= hi else high for h in range(horizon_h))
    return MarketSeries(price, gas, (heat_kw,) * horizon_h, (el_kw,) * horizon_h)


@dataclass
class ScheduleProblem:
    envelope: RampingEnvelope
    demand: PwaDemandModel
    components: list[EnergyComponent]
    market: MarketSeries
    horizon_h: int
    elems_per_hour: int = 1
    pts: int = 2
    storage: tuple = ()            # (lo, hi) in m^3; default +-2h of nominal
    gap_tol: float = 0.02
    time_limit_s: float = 300.0
    fix_steady: bool = False       # steady-production baseline

    def __post_init__(self):
        if not self.storage:
            self.storage = (-2.0 * self.envelope.rho_nom,
                            2.0 * self.envelope.rho_nom)
        if self.market.n_hours != self.horizon_h:
            raise ValueError("market series does not match the horizon")
        if self.envelope.fingerprint != self.demand.fingerprint:
            raise ValueError("demand model was fitted against a different envelope")


@dataclass
class ScheduleLayout:
    grid: CollocationGrid
    rho: list            # rho[e][i] variable indices, i = 0..pts
    rho_dot: list
    S: list
    phi: list
    nu_nodes: list       # nu breakpoints, nu_per_hour per hour
    nu_per_hour: int
    q_in: dict           # (unit, e, j) -> var
    dp: dict             # (e, j) -> grid exchange var
    q_dem: dict          # (e, j) -> process heat demand var
    z_on: dict           # (unit, hour) -> var
    z_sel: list          # per nu interval, the lower-plane code bits


def _state_chain(mip: MixedIntegerProgram, grid: CollocationGrid, name: str,
                 lb: float, ub: float) -> list:
    """Variables for one collocated state; element boundaries shared."""
    out = []
    for e in range(grid.n_elem):
        row = []
        if e == 0:
            row.append(mip.add_variable(f"{name}_0", lb, ub))
        else:
            row.append(out[e - 1][grid.pts])
        for j in range(1, grid.pts + 1):
            row.append(mip.add_variable(f"{name}_{e}_{j}", lb, ub))
        out.append(row)
    return out


def _chain_values(x: np.ndarray, grid: CollocationGrid, chain: list) -> np.ndarray:
    """Values of a collocated state at t = 0 and at every collocation point."""
    return np.array([x[chain[0][0]]] + [x[chain[e][j]] for e in range(grid.n_elem)
                                        for j in range(1, grid.pts + 1)])


def _fix(mip: MixedIntegerProgram, var: int, value: float) -> None:
    mip.variables[var].lb = value
    mip.variables[var].ub = value


def _nu_interp(grid: CollocationGrid, nu_nodes: list, nu_per_hour: int,
               e: int, j: int) -> list:
    """Coefficients expressing nu at collocation point (e, j) from the
    piecewise-linear breakpoint variables.  The interval is the element's,
    e * nu_per_hour // elems_per_hour, found in integers: a point on the
    interval's right end weighs its right breakpoint by exactly 1."""
    seg = e * nu_per_hour // grid.elems_per_hour
    frac = (e + grid.tau[j - 1]) * nu_per_hour / grid.elems_per_hour - seg
    return [(nu_nodes[seg], 1.0 - frac), (nu_nodes[seg + 1], frac)]


def _collocation_row(mip: MixedIntegerProgram, grid: CollocationGrid, chain: list,
                     e: int, j: int, deriv: list, name: str) -> None:
    """Sum_i D[j,i]*x[e,i] = h * derivative at point (e, j); `deriv` lists
    (var, coefficient) terms, var None for a constant."""
    coeffs = {chain[e][i]: grid.D[j - 1][i] for i in range(grid.pts + 1)}
    rhs = 0.0
    for var, c in deriv:
        if var is None:
            rhs += grid.h * c
        else:
            coeffs[var] = coeffs.get(var, 0.0) - grid.h * c
    mip.add_constraint(coeffs, "=", rhs, name=f"{name}_{e}_{j}")


def _select(coeffs: dict, rhs: float, mis: list, M: float) -> float:
    """Big-M relax the row `coeffs @ x <= rhs` unless every binary z in
    `mis` equals its target; adds the z terms to `coeffs`, returns the rhs."""
    for z, target in mis:
        if target:
            coeffs[z] = coeffs.get(z, 0.0) + M
            rhs += M
        else:
            coeffs[z] = coeffs.get(z, 0.0) - M
    return rhs


def _lower_big_m(env: RampingEnvelope, rho_box, rd_box, nu_box) -> list:
    """Per lower nu plane, the big-M that relaxes plane - nu <= 0 over the
    variable box."""
    corners = [(r, d) for r in rho_box for d in rd_box]
    return [max(max(pl(r, d) for r, d in corners) - nu_box[0], 0.0) + 1.0
            for pl in env.nu_pwa.lower]


def _selection_bits(mip: MixedIntegerProgram, env: RampingEnvelope, n: int) -> list:
    """Per hour (element in a ramp), the ceil(log2 K) binaries whose code
    selects one of the K lower nu planes."""
    k = len(env.nu_pwa.lower)
    if k & (k - 1):
        raise ValueError(f"{k} lower nu planes: a code of binaries would leave "
                         "some codes selecting none")
    n_bits = (k - 1).bit_length()
    return [[mip.add_variable(f"zs_{h}_{i}", 0, 1, integer=True) for i in range(n_bits)]
            for h in range(n)]


def _band_rows(mip: MixedIntegerProgram, env: RampingEnvelope, r_v: int, d_v: int,
               sfx: str) -> None:
    """Linear rho_dot band at one point."""
    rd_l, rd_u = env.rd_lower, env.rd_upper
    mip.add_constraint({d_v: 1.0, r_v: -rd_u.a1}, "<=", rd_u.a0, name=f"rdu{sfx}")
    mip.add_constraint({d_v: 1.0, r_v: -rd_l.a1}, ">=", rd_l.a0, name=f"rdl{sfx}")


def _pwa_nu_rows(mip: MixedIntegerProgram, env: RampingEnvelope, lower_M: list,
                 nu_terms: list, r_v: int, d_v: int, z_sel: list,
                 prefix: str, sfx: str = "") -> None:
    """nu <= every upper plane, and nu >= every lower plane, big-M relaxed
    unless the bits `z_sel` encode the plane's index; nu is given as
    (var, coefficient) terms."""
    for k, pu in enumerate(env.nu_pwa.upper):
        coeffs = dict(nu_terms)
        coeffs[r_v] = coeffs.get(r_v, 0.0) - pu.a_rho
        coeffs[d_v] = coeffs.get(d_v, 0.0) - pu.a_rho_dot
        mip.add_constraint(coeffs, "<=", pu.a0, name=f"{prefix}u_{k}{sfx}")
    for k, (pl, M) in enumerate(zip(env.nu_pwa.lower, lower_M)):
        coeffs = {v: -c for v, c in nu_terms}
        coeffs[r_v] = coeffs.get(r_v, 0.0) + pl.a_rho
        coeffs[d_v] = coeffs.get(d_v, 0.0) + pl.a_rho_dot
        rhs = _select(coeffs, -pl.a0, [(z, (k >> i) & 1) for i, z in enumerate(z_sel)], M)
        mip.add_constraint(coeffs, "<=", rhs, name=f"{prefix}l_{k}{sfx}")


def _rate_model(mip: MixedIntegerProgram, env: RampingEnvelope, grid: CollocationGrid,
                nu_per_hour: int, rho_box: tuple, rd_box: tuple, nu_box: tuple,
                rho_start: float) -> tuple:
    """The collocated rate model under the ramping envelope.

    rho and rho_dot chains starting at rho_start and 0, nu breakpoints
    nu_per_hour per hour, ceil(log2 K) lower-plane bits per nu interval, the
    rows rho' = rho_dot and rho_dot' = nu, the initial-nu rows, and the band
    and plane rows at every point, whose bits are those of the nu interval
    holding its element.  Returns (rho, rho_dot, nu breakpoints, bits, nu
    terms per point (e, j))."""
    rho = _state_chain(mip, grid, "rho", *rho_box)
    rd = _state_chain(mip, grid, "rd", *rd_box)
    _fix(mip, rho[0][0], rho_start)
    _fix(mip, rd[0][0], 0.0)
    n_nu = grid.n_elem * nu_per_hour // grid.elems_per_hour
    nu_nodes = [mip.add_variable(f"nu_{k}", *nu_box) for k in range(n_nu + 1)]
    z_sel = _selection_bits(mip, env, n_nu)

    nu_terms = {}
    for e in range(grid.n_elem):
        for j in range(1, grid.pts + 1):
            nu_terms[(e, j)] = _nu_interp(grid, nu_nodes, nu_per_hour, e, j)
            _collocation_row(mip, grid, rho, e, j, [(rd[e][j], 1.0)], "dC_rho")
            _collocation_row(mip, grid, rd, e, j, nu_terms[(e, j)], "dC_rd")

    lower_M = _lower_big_m(env, rho_box, rd_box, nu_box)
    _pwa_nu_rows(mip, env, lower_M, [(nu_nodes[0], 1.0)], rho[0][0], rd[0][0],
                 z_sel[0], "inu")
    for e in range(grid.n_elem):
        bits = z_sel[e * nu_per_hour // grid.elems_per_hour]
        for j in range(1, grid.pts + 1):
            sfx = f"_{e}_{j}"
            _band_rows(mip, env, rho[e][j], rd[e][j], sfx)
            _pwa_nu_rows(mip, env, lower_M, nu_terms[(e, j)], rho[e][j], rd[e][j],
                         bits, "pwa", sfx)
    return rho, rd, nu_nodes, z_sel, nu_terms


def _rate_profile(layout: ScheduleLayout, x: np.ndarray) -> tuple:
    """(times, rho, rho_dot, nu) at t = 0 and every collocation point; nu
    interpolated between its breakpoints."""
    grid = layout.grid
    times = grid.all_times()
    nu_nodes = x[layout.nu_nodes]
    nu = np.interp(times, np.arange(len(nu_nodes)) / layout.nu_per_hour, nu_nodes)
    return (times, _chain_values(x, grid, layout.rho),
            _chain_values(x, grid, layout.rho_dot), nu)


def assemble_problem(sp: ScheduleProblem) -> tuple[MixedIntegerProgram, ScheduleLayout]:
    """Build the scheduling MILP: the rate model with hourly nu breakpoints,
    the epigraph of the convex heat demand, unit commitment with part load,
    storage balance and energy costs."""
    env, dm = sp.envelope, sp.demand
    grid = collocation_grid(sp.horizon_h, sp.elems_per_hour, sp.pts)
    mip = MixedIntegerProgram(f"DR{sp.horizon_h}H")
    rho_nom = env.rho_nom
    if sp.fix_steady:
        boxes = (rho_nom, rho_nom), (0.0, 0.0), (0.0, 0.0)
    else:
        boxes = env.rho_bounds, env.rho_dot_box(), env.nu_box()
    rho, rd, nu_nodes, z_sel, nu_terms = _rate_model(mip, env, grid, 1, *boxes, rho_nom)

    S = _state_chain(mip, grid, "S", *sp.storage)
    phi = _state_chain(mip, grid, "phi", -float("inf"), float("inf"))
    _fix(mip, S[0][0], 0.0)
    _fix(mip, phi[0][0], 0.0)

    n_hours = sp.horizon_h
    q_in, dp, q_dem = {}, {}, {}
    for e in range(grid.n_elem):
        for j in range(1, grid.pts + 1):
            for u in sp.components:
                q_in[(u.name, e, j)] = mip.add_variable(
                    f"qi_{u.name}_{e}_{j}", 0.0, u.gas_in_max_kw)
            dp[(e, j)] = mip.add_variable(f"dp_{e}_{j}", -1e5, 1e5)
            q_dem[(e, j)] = mip.add_variable(f"qd_{e}_{j}", 0.0, float("inf"))

    z_on = {}
    for u in sp.components:
        for h in range(n_hours):
            z_on[(u.name, h)] = mip.add_variable(f"z_{u.name}_{h}", 0, 1,
                                                 integer=True)

    for e in range(grid.n_elem):
        hour = e // sp.elems_per_hour
        for j in range(1, grid.pts + 1):
            sfx = f"_{e}_{j}"
            _collocation_row(mip, grid, S, e, j, [(rho[e][j], 1.0), (None, -rho_nom)],
                             "dC_S")
            cost_rate = [(q_in[(u.name, e, j)], sp.market.gas_price)
                         for u in sp.components]
            cost_rate.append((dp[(e, j)], sp.market.el_price[hour]))
            _collocation_row(mip, grid, phi, e, j, cost_rate, "dC_phi")

            # convex heat demand: q_dem on or above every plane
            for k, pl in enumerate(dm.planes):
                coeffs = {q_dem[(e, j)]: 1.0, rho[e][j]: -pl.c_rho / KJH_PER_KW,
                          rd[e][j]: -pl.c_rho_dot / KJH_PER_KW}
                for var, c in nu_terms[(e, j)]:
                    coeffs[var] = -c * pl.c_nu / KJH_PER_KW
                mip.add_constraint(coeffs, ">=", pl.c0 / KJH_PER_KW, name=f"dem_{k}{sfx}")

            # conversion units, balances
            heat = {}
            elec = {dp[(e, j)]: 1.0}
            for u in sp.components:
                qi = q_in[(u.name, e, j)]
                z = z_on[(u.name, hour)]
                mip.add_constraint({qi: u.th_eff, z: -u.q_nom_kw}, "<=", 0.0,
                                   name=f"pl_u_{u.name}{sfx}")
                mip.add_constraint({qi: u.th_eff, z: -u.q_min_kw}, ">=", 0.0,
                                   name=f"pl_l_{u.name}{sfx}")
                heat[qi] = u.th_eff
                if u.el_eff is not None:
                    elec[qi] = u.el_eff
            heat[q_dem[(e, j)]] = -1.0
            mip.add_constraint(heat, "=", sp.market.heat_demand_kw[hour],
                               name=f"bal_h{sfx}")
            mip.add_constraint(elec, "=", sp.market.el_demand_kw[hour],
                               name=f"bal_e{sfx}")

    # terminal storage and objective ------------------------------------------
    mip.add_constraint({S[-1][grid.pts]: 1.0}, ">=", 0.0, name="S_final")
    mip.set_objective({phi[-1][grid.pts]: 1.0})

    layout = ScheduleLayout(grid, rho, rd, S, phi, nu_nodes, 1, q_in, dp, q_dem,
                            z_on, z_sel)
    return mip, layout


@dataclass
class ScheduleResult:
    times: np.ndarray
    rho: np.ndarray
    rho_dot: np.ndarray
    nu: np.ndarray           # piecewise-linear value at each time
    storage: np.ndarray
    q_dem_kw: np.ndarray     # process heat demand at collocation points
    unit_heat_kw: dict       # unit -> array over collocation points
    grid_kw: np.ndarray      # electricity bought (+) / sold (-)
    objective: float
    gap: float
    status: str
    node_count: int
    cost_gas: float
    cost_el_buy: float
    rev_el_sell: float
    on_hours: dict           # unit -> list of 0/1 per hour

    def summary(self) -> str:
        lines = [
            f"status: {self.status} (gap {100 * self.gap:.2f}%, "
            f"{self.node_count} nodes)",
            f"objective (energy cost): {self.objective:.4f}",
            f"  gas cost:        {self.cost_gas:.4f}",
            f"  electricity buy: {self.cost_el_buy:.4f}",
            f"  electricity sell: -{self.rev_el_sell:.4f}",
            f"rho range: [{self.rho.min():.4f}, {self.rho.max():.4f}]",
            f"terminal storage: {self.storage[-1]:.6f}",
        ]
        for name, hours in self.on_hours.items():
            lines.append(f"  {name} on: {''.join(str(int(v)) for v in hours)}")
        return "\n".join(lines)


def extract_result(sp: ScheduleProblem, layout: ScheduleLayout,
                   sol: Solution) -> ScheduleResult:
    grid = layout.grid
    x = sol.x
    times, rho, rd, nu = _rate_profile(layout, x)
    S = _chain_values(x, grid, layout.S)

    pts_list = [(e, j) for e in range(grid.n_elem)
                for j in range(1, grid.pts + 1)]
    q_dem = np.array([x[layout.q_dem[p]] for p in pts_list])
    # the epigraph rows hold q_dem at or above the demand model; above it the
    # schedule burns gas for heat the process does not take
    demand = sp.demand.predict(rho[1:], rd[1:], nu[1:]) / KJH_PER_KW
    surplus = (q_dem - demand) / np.maximum(1.0, np.abs(demand))
    k = int(np.argmax(surplus))
    if surplus[k] > SURPLUS_RTOL:
        raise RuntimeError(
            f"surplus heat: q_dem {q_dem[k]:.6g} kW exceeds the demand model's "
            f"{demand[k]:.6g} kW at t = {times[k + 1]:.4g} h; the convex demand "
            "epigraph is exact only while surplus heat does not pay")
    dp = np.array([x[layout.dp[p]] for p in pts_list])
    unit_heat = {}
    for u in sp.components:
        unit_heat[u.name] = np.array(
            [u.th_eff * x[layout.q_in[(u.name, e, j)]] for e, j in pts_list])

    w, h_el = grid.weights, grid.h
    cost_gas = cost_buy = rev_sell = 0.0
    for k, (e, j) in enumerate(pts_list):
        hour = e // sp.elems_per_hour
        wk = w[j - 1] * h_el
        gas_kw = sum(x[layout.q_in[(u.name, e, j)]] for u in sp.components)
        cost_gas += wk * sp.market.gas_price * gas_kw
        price = sp.market.el_price[hour]
        if dp[k] >= 0:
            cost_buy += wk * price * dp[k]
        else:
            rev_sell += wk * price * (-dp[k])
    on_hours = {u.name: [x[layout.z_on[(u.name, h)]]
                         for h in range(sp.horizon_h)] for u in sp.components}
    return ScheduleResult(
        times=times, rho=rho, rho_dot=rd, nu=nu, storage=S, q_dem_kw=q_dem,
        unit_heat_kw=unit_heat, grid_kw=dp, objective=sol.objective,
        gap=sol.gap, status=sol.status, node_count=sol.node_count,
        cost_gas=cost_gas, cost_el_buy=cost_buy, rev_el_sell=rev_sell,
        on_hours=on_hours)


def solve_schedule(sp: ScheduleProblem) -> tuple[ScheduleResult, Solution]:
    mip, layout = assemble_problem(sp)
    sol = branch_and_bound(mip, gap_tol=sp.gap_tol, time_limit=sp.time_limit_s)
    _require_incumbent(sol, "schedule")
    return extract_result(sp, layout, sol), sol


def _require_incumbent(sol: Solution, what: str) -> None:
    """Raise when the solve returned no point: infeasible, unbounded, or cut
    by the time limit before a first incumbent."""
    if not np.isfinite(sol.objective):
        raise RuntimeError(f"{what} optimization {sol.status}, no incumbent")


# ---------------------------------------------------------------------------
# As-fast-as-possible ramps
# ---------------------------------------------------------------------------

@dataclass
class RampResult:
    times: np.ndarray
    rho: np.ndarray
    rho_dot: np.ndarray
    nu: np.ndarray
    ramp_time: float | None
    status: str
    gap: float

    def summary(self) -> str:
        t = "not reached" if self.ramp_time is None else f"{self.ramp_time:.3f} h"
        return (f"ramp time: {t} (status {self.status}, "
                f"gap {100 * self.gap:.2f}%)")


def ramp_problem(direction: str, env: RampingEnvelope, horizon: float,
                 elem_h: float = 0.1, pts: int = 2
                 ) -> tuple[MixedIntegerProgram, ScheduleLayout]:
    """As-fast-as-possible ramp MILP: the rate model with nu broken at every
    element, objective the signed integral of the production rate."""
    if direction not in ("up", "down"):
        raise ValueError("direction must be 'up' or 'down'")
    if not elem_h > 0 or abs(1.0 / elem_h - round(1.0 / elem_h)) > 1e-9:
        raise ValueError(f"elem_h = {elem_h} h is not a whole fraction 1/n of an hour")
    up = direction == "up"
    elems_per_hour = round(1.0 / elem_h)
    grid = collocation_grid(horizon, elems_per_hour, pts)
    mip = MixedIntegerProgram(f"RAMP{direction.upper()}")
    rho_lo, rho_hi = env.rho_bounds
    rho, rd, nu_nodes, z_sel, _ = _rate_model(
        mip, env, grid, elems_per_hour, env.rho_bounds, env.rho_dot_box(),
        env.nu_box(), rho_lo if up else rho_hi)

    # objective: maximize (up) / minimize (down) the integral of rho
    w = grid.weights
    obj = {}
    sign = -1.0 if up else 1.0
    for e in range(grid.n_elem):
        for j in range(1, grid.pts + 1):
            obj[rho[e][j]] = obj.get(rho[e][j], 0.0) + sign * w[j - 1] * grid.h
    mip.set_objective(obj)
    layout = ScheduleLayout(grid, rho, rd, [], [], nu_nodes, elems_per_hour,
                            {}, {}, {}, {}, z_sel)
    return mip, layout


def solve_ramp(direction: str, env: RampingEnvelope, horizon: float | None = None,
               elem_h: float | None = None, pts: int = 2, gap_tol: float = 0.03,
               time_limit_s: float = 50.0) -> RampResult:
    """Solve an as-fast-as-possible ramp: one `branch_and_bound` call on
    `ramp_problem`, stopped at `gap_tol` or after `time_limit_s` seconds.
    The ramp time is the first instant rho is within 1 % of the target
    bound."""
    up = direction == "up"
    if horizon is None:
        horizon = 2.5 if up else 4.0
    if elem_h is None:
        elem_h = 0.1 if up else 0.2
    mip, layout = ramp_problem(direction, env, horizon, elem_h, pts)
    sol = branch_and_bound(mip, gap_tol, time_limit_s)
    _require_incumbent(sol, "ramp")
    times, rho, rd, nu = _rate_profile(layout, sol.x)
    target = env.rho_bounds[1] if up else env.rho_bounds[0]
    ramp_time = _first_within(times, rho, target, rel=0.01)
    return RampResult(times, rho, rd, nu, ramp_time, sol.status, sol.gap)


def _first_within(times: np.ndarray, rho: np.ndarray, target: float,
                  rel: float) -> float | None:
    """First instant |rho - target| <= rel*target, interpolating between
    samples."""
    tol = rel * abs(target)
    dist = np.abs(rho - target)
    for k in range(len(times)):
        if dist[k] <= tol:
            if k == 0:
                return float(times[k])
            # linear interpolation of the crossing
            d0, d1 = dist[k - 1], dist[k]
            frac = (d0 - tol) / max(d0 - d1, 1e-12)
            return float(times[k - 1] + frac * (times[k] - times[k - 1]))
    return None

