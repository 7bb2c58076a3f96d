"""Simultaneous process / multi-energy-system scheduling as a MILP.

One collocated rate model serves both problems: the production rate rho,
its rate rho_dot and the piecewise-linear ramping degree of freedom
nu = d2 rho / dt2, held inside the fitted ramping envelope at every
collocation point (`_rate_model`).  Under the envelope, nu lies below every
upper plane, with no binaries, and above one of the K lower planes; each nu
interval selects that plane freely with ceil(log2 K) binaries, since every
lower plane is conservative on the whole band.  A lower plane that is not
selected is relaxed by a big-M taken from the other planes, the most it
exceeds any of them on the band (`_lower_big_m`), not from the variable
box.  The as-fast-as-possible ramp breaks nu at every element and adds only
its objective.  The demand-response schedule breaks nu hourly and adds the
convex heat demand, conversion units with minimum part load, storage, grid
exchange and energy costs; its steady-production baseline fixes rho,
rho_dot and nu by their bounds and builds no rate rows or bits
(`_steady_rate`).  Where one unit can take over another's heat at
no higher cost at every hourly price, a row per hour keeps the cheaper unit
on wherever the dearer one is (`_dominance_pairs`).  The heat demand is the
epigraph of the convex max-affine demand model, one row per plane and no
binaries; the epigraph equals the model only while surplus heat never pays,
which `extract_result` checks on every solution.  The rows read each plane
family's `envelope.Planes` coefficients once per problem.  Powers are in
kW, heat demand converted from the process model's kJ/h, prices in
currency/kWh, time in hours.
"""

from __future__ import annotations

import itertools
import math
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
        if not all(map(math.isfinite, (*self.el_price, self.gas_price, *self.heat_demand_kw,
                                       *self.el_demand_kw))):
            raise ValueError("market prices and demands must be finite")
        if any(d < 0 for d in (*self.heat_demand_kw, *self.el_demand_kw)):
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
class RateLayout:
    grid: CollocationGrid
    rho: np.ndarray          # (n_elem, pts + 1) variable indices, see _state_chain
    rho_dot: np.ndarray
    nu_nodes: np.ndarray     # nu breakpoints, nu_per_hour per hour
    nu_per_hour: int
    z_sel: np.ndarray        # (nu interval, bit): the lower-plane code bits


@dataclass
class ScheduleLayout(RateLayout):
    S: np.ndarray            # storage chain, like rho
    q_in: np.ndarray         # (unit, n_elem, pts) gas input
    dp: np.ndarray           # (n_elem, pts) grid exchange
    q_dem: np.ndarray        # (n_elem, pts) process heat demand
    z_on: np.ndarray         # (unit, hour) on/off


def _state_chain(mip: MixedIntegerProgram, grid: CollocationGrid, name: str,
                 lb: float, ub: float, start: float) -> np.ndarray:
    """Variables of one collocated state, (n_elem, pts + 1): row e holds the
    element's start, which is element e - 1's last point, and its pts
    collocation points.  The first start is fixed at `start`."""
    first = mip.add_variable(f"{name}_0", start, start)
    pts = [[mip.add_variable(f"{name}_{e}_{j}", lb, ub) for j in range(1, grid.pts + 1)]
           for e in range(grid.n_elem)]
    starts = [first] + [row[-1] for row in pts[:-1]]
    return np.array([[start, *row] for start, row in zip(starts, pts)])


def _chain_values(x: np.ndarray, chain: np.ndarray) -> np.ndarray:
    """Values of a collocated state at t = 0 and at every collocation point."""
    return x[np.r_[chain[0, 0], chain[:, 1:].ravel()]]


def _nu_terms(layout: RateLayout) -> list:
    """nu at every collocation point from the piecewise-linear breakpoint
    variables: [e][j - 1] -> [(left breakpoint, weight), (right, weight)].
    The interval is the element's, e * nu_per_hour // elems_per_hour, found
    in integers: a point on the interval's right end weighs its right
    breakpoint by exactly 1."""
    grid, per_h = layout.grid, layout.nu_per_hour
    e = np.arange(grid.n_elem)
    seg = e * per_h // grid.elems_per_hour
    frac = (e[:, None] + grid.tau) * per_h / grid.elems_per_hour - seg[:, None]
    return [[[(a, 1.0 - f), (b, f)] for f in fs] for a, b, fs in
            zip(layout.nu_nodes[seg].tolist(), layout.nu_nodes[seg + 1].tolist(),
                frac.tolist())]


def _collocation_row(mip: MixedIntegerProgram, grid: CollocationGrid, chain_row: list,
                     j: int, deriv: list, name: str, const: float = 0.0) -> None:
    """Sum_i D[j,i]*x[e,i] = h * (derivative + const) at point (e, j), given
    the element's chain row x[e]; `deriv` lists (var, coefficient) terms."""
    mip.add_constraint([*zip(chain_row, grid.D[j - 1]),
                        *((var, -grid.h * c) for var, c in deriv)],
                       "=", grid.h * const, name=name)


def _lower_big_m(env: RampingEnvelope, rho_start: float) -> list:
    """Per lower nu plane k, the big-M that relaxes plane_k - nu <= 0 while
    the bits select another plane j: the largest plane_k - plane_j over every
    j, at the four vertices of the rate-derivative band and at the start
    point (rho_start, 0), clipped at 0.

    M is taken from the other disjunct, not from a variable box
    (Trespalacios & Grossmann, Comput. Chem. Eng. 76, 2015): a lower row
    applies at the start or at a collocation point, which the band rows and
    the rho bounds keep in the band, and there nu >= plane_j of the selected
    plane.  plane_k - plane_j is affine, so on the band it is largest at a
    vertex, and nu >= plane_k - M_k cuts off no point that satisfies the
    selected plane."""
    rho = np.array(env.rho_bounds)
    rd_lo, rd_hi = env.rd(rho)
    v = env.nu_pwa.lower(np.r_[rho, rho, rho_start], np.r_[rd_lo, rd_hi, 0.0])
    # plane k - plane j at every point: 0 for j = k, which is the clip
    return (v[:, None] - v[None]).max(axis=(1, 2)).tolist()


def _pwa_nu_rows(mip: MixedIntegerProgram, upper: list, lower: list, nu_terms: list,
                 r_v: int, d_v: int, z_sel: list, prefix: str, sfx: str = "") -> None:
    """nu <= every upper plane, and nu >= every lower plane, big-M relaxed
    unless the bits `z_sel` encode the plane's index.  A plane is its
    coefficient row (c0, c_rho, c_rho_dot), a lower one followed by its
    big-M; nu is given as (var, coefficient) terms."""
    for k, (c0, cr, cd) in enumerate(upper):
        mip.add_constraint([*nu_terms, (r_v, -cr), (d_v, -cd)], "<=", c0,
                           name=f"{prefix}u_{k}{sfx}")
    for k, (c0, cr, cd, M) in enumerate(lower):
        # a bit off the plane's code relaxes the row by M: +M z with M added
        # to the rhs where the code holds a 1, -M z where it holds a 0
        terms = [*((v, -c) for v, c in nu_terms), (r_v, cr), (d_v, cd)]
        rhs = -c0
        for i, z in enumerate(z_sel):
            if (k >> i) & 1:
                terms.append((z, M))
                rhs += M
            else:
                terms.append((z, -M))
        mip.add_constraint(terms, "<=", rhs, name=f"{prefix}l_{k}{sfx}")


def _rate_model(mip: MixedIntegerProgram, env: RampingEnvelope, grid: CollocationGrid,
                nu_per_hour: int, rho_start: float) -> RateLayout:
    """The collocated rate model under the ramping envelope.

    rho and rho_dot chains starting at rho_start and 0 inside the envelope's
    rho bounds and rho_dot box, nu breakpoints nu_per_hour per hour inside
    its nu box, ceil(log2 K) lower-plane bits per nu interval, the rows
    rho' = rho_dot and rho_dot' = nu, the initial-nu rows, and the band and
    plane rows at every point, whose bits are those of the nu interval
    holding its element."""
    rho = _state_chain(mip, grid, "rho", *env.rho_bounds, rho_start)
    rd = _state_chain(mip, grid, "rd", *env.rho_dot_box(), 0.0)
    n_nu = grid.n_elem * nu_per_hour // grid.elems_per_hour
    nu_box = env.nu_box()
    nu_nodes = np.array([mip.add_variable(f"nu_{k}", *nu_box) for k in range(n_nu + 1)])
    k = len(env.nu_pwa.lower.coef)
    if k & (k - 1):
        raise ValueError(f"{k} lower nu planes: a code of binaries would leave "
                         "some codes selecting none")
    z_sel = np.array([[mip.add_variable(f"zs_{h}_{i}", 0, 1, integer=True)
                       for i in range((k - 1).bit_length())] for h in range(n_nu)],
                     dtype=int)
    layout = RateLayout(grid, rho, rd, nu_nodes, nu_per_hour, z_sel)

    nu = _nu_terms(layout)
    rho, rd, bits = rho.tolist(), rd.tolist(), z_sel.tolist()
    for e in range(grid.n_elem):
        for j in range(1, grid.pts + 1):
            _collocation_row(mip, grid, rho[e], j, [(rd[e][j], 1.0)], f"dC_rho_{e}_{j}")
            _collocation_row(mip, grid, rd[e], j, nu[e][j - 1], f"dC_rd_{e}_{j}")

    upper = env.nu_pwa.upper.coef.tolist()
    lower = [[*c, M] for c, M in zip(env.nu_pwa.lower.coef.tolist(),
                                     _lower_big_m(env, rho_start))]
    _pwa_nu_rows(mip, upper, lower, [(int(nu_nodes[0]), 1.0)], rho[0][0], rd[0][0],
                 bits[0], "inu")
    (l0, l1), (u0, u1) = env.rd.coef.tolist()
    for e in range(grid.n_elem):
        for j in range(1, grid.pts + 1):
            sfx, r, d = f"_{e}_{j}", rho[e][j], rd[e][j]
            mip.add_constraint([(d, 1.0), (r, -u1)], "<=", u0, name=f"rdu{sfx}")
            mip.add_constraint([(d, 1.0), (r, -l1)], ">=", l0, name=f"rdl{sfx}")
            _pwa_nu_rows(mip, upper, lower, nu[e][j - 1], r, d,
                         bits[e * nu_per_hour // grid.elems_per_hour], "pwa", sfx)
    return layout


def _steady_rate(mip: MixedIntegerProgram, env: RampingEnvelope,
                 grid: CollocationGrid) -> RateLayout:
    """The rate model of steady production: rho chained at the envelope's
    rho_nom, rho_dot at 0 and hourly nu breakpoints at 0, each fixed by its
    bounds.  Fixed variables leave the collocation, band and plane rows
    nothing to constrain and the lower-plane bits nothing to select, so
    none is built; raises ValueError when the envelope does not contain
    (rho_nom, 0, 0), where those rows would have made the MILP
    infeasible."""
    rho_nom = env.rho_nom
    if not env.contains(rho_nom, 0.0, 0.0):
        raise ValueError(f"steady production at rho = {rho_nom:.6g} with rho_dot = nu = 0 "
                         "lies outside the ramping envelope")
    rho = _state_chain(mip, grid, "rho", rho_nom, rho_nom, rho_nom)
    rd = _state_chain(mip, grid, "rd", 0.0, 0.0, 0.0)
    n_nu = grid.n_elem // grid.elems_per_hour
    nu_nodes = np.array([mip.add_variable(f"nu_{k}", 0.0, 0.0) for k in range(n_nu + 1)])
    return RateLayout(grid, rho, rd, nu_nodes, 1, np.empty((n_nu, 0), dtype=int))


def _rate_profile(layout: RateLayout, x: np.ndarray) -> tuple:
    """(times, rho, rho_dot, nu) at t = 0 and every collocation point; nu
    interpolated between its breakpoints."""
    times = layout.grid.all_times()
    nu_nodes = x[layout.nu_nodes]
    nu = np.interp(times, np.arange(len(nu_nodes)) / layout.nu_per_hour, nu_nodes)
    return times, _chain_values(x, layout.rho), _chain_values(x, layout.rho_dot), nu


def _dominance_pairs(units: list[EnergyComponent], market: MarketSeries) -> list:
    """(u, v) unit index pairs where unit v can take over unit u's heat at no
    higher cost in every hour of the market, so that z_on[u, h] <= z_on[v, h]
    keeps an optimum.

    v dominates u when both are the same kind (CHP or boiler) with the same
    `q_nom_kw` and `min_load_frac`, so that v can run u's heat profile, and
    v's cost per kWh of heat, (gas - el_price * el_eff) / th_eff, is no
    higher at every hourly price; between units that dominate each other,
    the higher index is taken as dominant, so the pairs form no cycle.  A
    pair that follows through a third unit is left out.  Moving u's heat to
    v changes the electricity the units produce, so the argument needs the
    grid exchange to stay strictly inside its +-1e5 kW bounds."""
    price = np.array(market.el_price)
    cost = [(market.gas_price - price * (unit.el_eff or 0.0)) / unit.th_eff
            for unit in units]
    pairs = []
    for u, v in itertools.combinations(range(len(units)), 2):
        a, b = units[u], units[v]
        if (a.q_nom_kw, a.min_load_frac, a.el_eff is None) != \
                (b.q_nom_kw, b.min_load_frac, b.el_eff is None):
            continue
        if np.all(cost[v] <= cost[u]):
            pairs.append((u, v))
        elif np.all(cost[u] <= cost[v]):
            pairs.append((v, u))
    # z_on[u] <= z_on[w] <= z_on[v] already implies the pair (u, v)
    implied = set(pairs)
    return [(u, v) for u, v in pairs
            if not any((u, w) in implied and (w, v) in implied for w in range(len(units)))]


def assemble_problem(sp: ScheduleProblem) -> tuple[MixedIntegerProgram, ScheduleLayout]:
    """Build the scheduling MILP: the rate model with hourly nu breakpoints,
    the epigraph of the convex heat demand, unit commitment with part load,
    storage balance and energy costs."""
    env, units, market = sp.envelope, sp.components, sp.market
    grid = collocation_grid(sp.horizon_h, sp.elems_per_hour, sp.pts)
    mip = MixedIntegerProgram(f"DR{sp.horizon_h}H")
    rho_nom = env.rho_nom
    if sp.fix_steady:
        rate = _steady_rate(mip, env, grid)
    else:
        rate = _rate_model(mip, env, grid, 1, rho_nom)

    S = _state_chain(mip, grid, "S", *sp.storage, 0.0)
    # The cost integral as a collocated state rather than a quadrature sum in
    # the objective: both reach the same optimum, but HiGHS took 4-5x longer
    # on the 3 h desk flexible market and about 1.8x on the 24 h paper
    # flexible day with the quadrature objective.
    phi = _state_chain(mip, grid, "phi", -float("inf"), float("inf"), 0.0)
    q_in = np.empty((len(units), grid.n_elem, grid.pts), dtype=int)
    dp, q_dem = np.empty((2, grid.n_elem, grid.pts), dtype=int)
    for e, j in np.ndindex(grid.n_elem, grid.pts):
        for u, unit in enumerate(units):
            q_in[u, e, j] = mip.add_variable(f"qi_{unit.name}_{e}_{j + 1}", 0.0,
                                             unit.gas_in_max_kw)
        dp[e, j] = mip.add_variable(f"dp_{e}_{j + 1}", -1e5, 1e5)
        q_dem[e, j] = mip.add_variable(f"qd_{e}_{j + 1}", 0.0, float("inf"))
    z_on = np.array([[mip.add_variable(f"z_{unit.name}_{h}", 0, 1, integer=True)
                      for h in range(sp.horizon_h)] for unit in units])
    for u, v in _dominance_pairs(units, market):
        for h, (zu, zv) in enumerate(zip(z_on[u].tolist(), z_on[v].tolist())):
            mip.add_constraint([(zu, 1.0), (zv, -1.0)], "<=", 0.0,
                               name=f"dom_{units[u].name}_{units[v].name}_{h}")

    nu, demand = _nu_terms(rate), sp.demand.planes.coef.tolist()
    gas, th_eff = [market.gas_price] * len(units), [unit.th_eff for unit in units]
    rho, rd = rate.rho.tolist(), rate.rho_dot.tolist()
    S_l, phi_l, q_in_l = S.tolist(), phi.tolist(), q_in.transpose(1, 2, 0).tolist()
    dp_l, q_dem_l, z_on_l = dp.tolist(), q_dem.tolist(), z_on.T.tolist()
    for e in range(grid.n_elem):
        hour = e // sp.elems_per_hour
        for j in range(1, grid.pts + 1):
            sfx, r, d = f"_{e}_{j}", rho[e][j], rd[e][j]
            qi, g, qd = q_in_l[e][j - 1], dp_l[e][j - 1], q_dem_l[e][j - 1]
            _collocation_row(mip, grid, S_l[e], j, [(r, 1.0)], f"dC_S{sfx}", -rho_nom)
            _collocation_row(mip, grid, phi_l[e], j,
                             [*zip(qi, gas), (g, market.el_price[hour])], f"dC_phi{sfx}")

            # convex heat demand: q_dem on or above every plane
            (a, wa), (b, wb) = nu[e][j - 1]
            for k, (c0, cr, cd, cn) in enumerate(demand):
                mip.add_constraint([(qd, 1.0), (r, -cr / KJH_PER_KW), (d, -cd / KJH_PER_KW),
                                    (a, -wa * cn / KJH_PER_KW), (b, -wb * cn / KJH_PER_KW)],
                                   ">=", c0 / KJH_PER_KW, name=f"dem_{k}{sfx}")

            # conversion units, balances
            for unit, v, z in zip(units, qi, z_on_l[hour]):
                mip.add_constraint([(v, unit.th_eff), (z, -unit.q_nom_kw)], "<=", 0.0,
                                   name=f"pl_u_{unit.name}{sfx}")
                mip.add_constraint([(v, unit.th_eff), (z, -unit.q_min_kw)], ">=", 0.0,
                                   name=f"pl_l_{unit.name}{sfx}")
            mip.add_constraint([*zip(qi, th_eff), (qd, -1.0)],
                               "=", market.heat_demand_kw[hour], name=f"bal_h{sfx}")
            mip.add_constraint([(g, 1.0), *((v, unit.el_eff) for unit, v in zip(units, qi)
                                            if unit.el_eff is not None)],
                               "=", market.el_demand_kw[hour], name=f"bal_e{sfx}")

    # terminal storage and objective ------------------------------------------
    mip.add_constraint({S_l[-1][-1]: 1.0}, ">=", 0.0, name="S_final")
    mip.set_objective({phi_l[-1][-1]: 1.0})
    return mip, ScheduleLayout(**vars(rate), S=S, q_in=q_in, dp=dp, q_dem=q_dem, z_on=z_on)


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


def extract_result(sp: ScheduleProblem, layout: ScheduleLayout,
                   sol: Solution) -> ScheduleResult:
    grid, x = layout.grid, sol.x
    times, rho, rd, nu = _rate_profile(layout, x)
    q_dem = x[layout.q_dem].ravel()
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
    q_in = x[layout.q_in].reshape(len(sp.components), -1)      # unit x point
    dp = x[layout.dp].ravel()
    # per point: quadrature weight x element length (x hourly price)
    wh = np.tile(grid.weights * grid.h, grid.n_elem)
    wh_price = wh * np.repeat(sp.market.el_price, sp.elems_per_hour * grid.pts)
    return ScheduleResult(
        times=times, rho=rho, rho_dot=rd, nu=nu, storage=_chain_values(x, layout.S),
        q_dem_kw=q_dem, grid_kw=dp,
        unit_heat_kw={u.name: u.th_eff * q for u, q in zip(sp.components, q_in)},
        objective=sol.objective, gap=sol.gap, status=sol.status, node_count=sol.node_count,
        cost_gas=sp.market.gas_price * (wh @ q_in.sum(axis=0)),
        cost_el_buy=wh_price @ np.maximum(dp, 0.0),
        rev_el_sell=wh_price @ np.maximum(-dp, 0.0),
        # HiGHS returns binaries within its integrality tolerance of 0 or 1
        on_hours=dict(zip([u.name for u in sp.components],
                          np.rint(x[layout.z_on]).astype(int).tolist())))


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


def ramp_problem(direction: str, env: RampingEnvelope, horizon: float,
                 elem_h: float = 0.1, pts: int = 2
                 ) -> tuple[MixedIntegerProgram, RateLayout]:
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
    layout = _rate_model(mip, env, grid, elems_per_hour, rho_lo if up else rho_hi)
    # objective: maximize (up) / minimize (down) the integral of rho
    w = np.tile((-1.0 if up else 1.0) * grid.weights * grid.h, grid.n_elem)
    mip.set_objective(zip(layout.rho[:, 1:].ravel().tolist(), w.tolist()))
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

