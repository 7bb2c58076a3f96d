"""Full-order model of the heated reactor-separator process with recycle.

Six differential states (reactor concentrations cA1, cB1 and temperature T1;
flash concentrations cA2, cB2 and temperature T2), four manipulated inputs
(bottom stream FB, purge Fp, heat duties Q1, Q2) and the production rate rho
as scheduling degree of freedom.  Provides the ODE right-hand side, a fixed
step RK4 simulator that interpolates its piecewise-linear controls at every
stage time in three array calls per run, and a bound check that takes each
variable's column in one pass and counts a non-finite value as a violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

STATE_NAMES = ("cA1", "cB1", "T1", "cA2", "cB2", "T2")
INPUT_NAMES = ("FB", "Fp", "Q1", "Q2")


@dataclass(frozen=True)
class ProcessParams:
    """Physical parameters of the reactor-separator process.

    k1 and k2 are calibrated reconstructions (see repository notes); all
    other defaults are the published plant data used throughout.
    """

    V1: float = 30.0          # reactor volume, m^3
    V2: float = 30.0          # flash volume, m^3
    cA0: float = 1.0          # feed mass fraction of A
    cB0: float = 0.0          # feed mass fraction of B
    k1: float = 3.21e5        # rate constant of A -> B, 1/h
    k2: float = 1.85e6        # rate constant of B -> C, 1/h
    E1: float = 5.0e4         # activation energy 1, kJ/kmol
    E2: float = 6.0e4         # activation energy 2, kJ/kmol
    R: float = 8.314          # gas constant, kJ/(kmol K)
    T0: float = 300.0         # feed temperature, K
    dH1: float = -261.0       # reaction enthalpy 1, kJ/kg (exothermic)
    dH2: float = -304.0       # reaction enthalpy 2, kJ/kg (exothermic)
    Cp: float = 4.2           # heat capacity, kJ/(kg K)
    rhoF: float = 1000.0      # density, kg/m^3
    alphaA: float = 0.5       # relative volatility of A
    alphaB: float = 0.25      # relative volatility of B
    alphaC: float = 1.0       # relative volatility of C
    dHV: float = 7.2e4        # vaporization enthalpy, numerical value used literally

    def __post_init__(self):
        for name in ("V1", "V2", "cA0", "k1", "k2", "E1", "E2", "R", "T0",
                     "Cp", "rhoF", "alphaA", "alphaB", "alphaC", "dHV"):
            if getattr(self, name) <= 0:
                raise ValueError(f"ProcessParams.{name} must be positive")
        if self.dH1 >= 0 or self.dH2 >= 0:
            raise ValueError("reaction enthalpies must be negative (exothermic)")
        if not (self.alphaC > self.alphaB and self.alphaC > self.alphaA):
            raise ValueError("alphaC must exceed alphaA and alphaB")


@dataclass(frozen=True)
class StateVec:
    cA1: float
    cB1: float
    T1: float
    cA2: float
    cB2: float
    T2: float

    def as_array(self) -> np.ndarray:
        return np.array([self.cA1, self.cB1, self.T1, self.cA2, self.cB2, self.T2])

    @classmethod
    def from_array(cls, x) -> "StateVec":
        return cls(*(float(v) for v in x))


@dataclass(frozen=True)
class InputVec:
    FB: float
    Fp: float
    Q1: float
    Q2: float

    def as_array(self) -> np.ndarray:
        return np.array([self.FB, self.Fp, self.Q1, self.Q2])

    @classmethod
    def from_array(cls, u) -> "InputVec":
        return cls(*(float(v) for v in u))


@dataclass(frozen=True)
class Bounds:
    """Per-variable (lower, upper) bounds for states, inputs and rho."""

    cA1: tuple = (0.0, 1.0)
    cB1: tuple = (0.0, 1.0)
    T1: tuple = (410.0, 460.0)
    cA2: tuple = (0.0, 1.0)
    cB2: tuple = (0.0, 1.0)
    T2: tuple = (300.0, 600.0)
    FB: tuple = (0.0, 20.0)
    Fp: tuple = (0.0, 8.0)
    Q1: tuple = (0.0, 6.2e6)
    Q2: tuple = (0.0, 4.0e6)
    rho: tuple = (4.2, 6.3)

    def __post_init__(self):
        for name, (lo, hi) in self.items():
            if not lo < hi:
                raise ValueError(f"Bounds.{name}: lower must be below upper")

    def items(self):
        return [(f, getattr(self, f)) for f in self.__dataclass_fields__]

    @property
    def rho_nom(self) -> float:
        lo, hi = self.rho
        return 0.5 * (lo + hi)


def vapor_fractions(cA2: float, cB2: float, p: ProcessParams) -> tuple[float, float]:
    """Vapor mass fractions (cAv, cBv) of the flash for liquid composition (cA2, cB2)."""
    den = p.alphaA * cA2 + p.alphaB * cB2 + p.alphaC * (1.0 - cA2 - cB2)
    return p.alphaA * cA2 / den, p.alphaB * cB2 / den


def ode_rhs(x: StateVec, u: InputVec, rho: float, p: ProcessParams) -> StateVec:
    """Six right-hand sides of the component and energy balances (per hour)."""
    for name, val in list(zip(STATE_NAMES, x.as_array())) + \
            list(zip(INPUT_NAMES, u.as_array())) + [("rho", rho)]:
        if not math.isfinite(val):
            raise ValueError(f"ode_rhs: non-finite input {name}={val!r}")
    if x.T1 <= 0:
        raise ValueError("ode_rhs: T1 must be positive")
    return StateVec.from_array(_rhs_array(x.as_array(), u.as_array(), rho, p))


def reaction_rates(cA1, cB1, T1, p: ProcessParams):
    """Rates (r1, r2) of A -> B and B -> C; broadcasts over arrays.

    A scalar T1 takes math.exp, about six times faster than np.exp on one
    value; the two may differ in the last bit."""
    e1, e2 = -p.E1 / (p.R * T1), -p.E2 / (p.R * T1)
    exp = math.exp if isinstance(e1, float) else np.exp
    return p.k1 * cA1 * exp(e1), p.k2 * cB1 * exp(e2)


def _rhs_array(x: np.ndarray, u: np.ndarray, rho, p: ProcessParams) -> np.ndarray:
    """Right-hand sides as an array; x (6, ...) and u (4, ...) may carry
    trailing batch axes, which broadcast with rho."""
    cA1, cB1, T1, cA2, cB2, T2 = x
    FB, Fp, Q1, Q2 = u
    r1, r2 = reaction_rates(cA1, cB1, T1, p)
    cAv, cBv = vapor_fractions(cA2, cB2, p)
    f_in = (rho + Fp) / p.V1
    f_rec = (FB - Fp) / p.V1
    f_fl = (rho + FB) / p.V2
    return np.array([
        f_in * (p.cA0 - cA1) + f_rec * (cA2 - cA1) - r1,
        f_in * (p.cB0 - cB1) + f_rec * (cB2 - cB1) + r1 - r2,
        f_in * (p.T0 - T1) + f_rec * (T2 - T1)
        - p.dH1 / p.Cp * r1 - p.dH2 / p.Cp * r2 + Q1 / (p.rhoF * p.Cp * p.V1),
        f_fl * (cA1 - cA2) - rho / p.V2 * (cAv - cA2),
        f_fl * (cB1 - cB2) - rho / p.V2 * (cBv - cB2),
        f_fl * (T1 - T2) - p.dHV * rho / (p.rhoF * p.Cp * p.V2)
        + Q2 / (p.rhoF * p.Cp * p.V2),
    ])


class SimulationDiverged(RuntimeError):
    def __init__(self, t: float):
        super().__init__(f"simulation diverged at t={t:.4f} h")
        self.t = t


@dataclass(frozen=True)
class ControlSchedule:
    """Time-indexed (InputVec, rho) samples, interpolated piecewise-linearly."""

    times: np.ndarray              # (N,), hours, increasing
    inputs: np.ndarray             # (N, 4)
    rho: np.ndarray                # (N,)

    def at(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Inputs (len(t), 4) and rho (len(t),) at the times t."""
        u = np.column_stack([np.interp(t, self.times, self.inputs[:, j]) for j in range(4)])
        return u, np.interp(t, self.times, self.rho)

    @classmethod
    def constant(cls, u: InputVec, rho: float, horizon: float) -> "ControlSchedule":
        return cls(np.array([0.0, horizon]), np.tile(u.as_array(), (2, 1)),
                   np.array([rho, rho]))


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray              # (M,)
    states: np.ndarray             # (M, 6)
    inputs: np.ndarray             # (M, 4)
    rho: np.ndarray                # (M,)


def simulate(x0: StateVec, controls: ControlSchedule, horizon: float,
             step: float = 0.01, p: ProcessParams | None = None) -> Trajectory:
    """Classical fixed-step RK4 integration of the full-order model.

    Controls are interpolated piecewise-linearly between their samples, once
    per simulation: at the grid times t and at every step's stage times
    t + h/2 and t + h.  Raises SimulationDiverged when a state is non-finite
    or its magnitude exceeds 1e9.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    p = p or ProcessParams()
    n = max(int(round(horizon / step)), 0)
    h = step
    times = np.linspace(0.0, n * h, n + 1)
    inputs, rhos = controls.at(times)
    u_mid, r_mid = controls.at(times[:-1] + h / 2)
    u_end, r_end = controls.at(times[:-1] + h)
    states = np.empty((n + 1, 6))
    x = x0.as_array()
    for i, t in enumerate(times):
        if not np.all(np.abs(x) <= 1e9):
            raise SimulationDiverged(t)
        states[i] = x
        if i < n:
            k1 = _rhs_array(x, inputs[i], rhos[i], p)
            k2 = _rhs_array(x + h / 2 * k1, u_mid[i], r_mid[i], p)
            k3 = _rhs_array(x + h / 2 * k2, u_mid[i], r_mid[i], p)
            k4 = _rhs_array(x + h * k3, u_end[i], r_end[i], p)
            x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return Trajectory(times, states, inputs, rhos)


@dataclass(frozen=True)
class Violation:
    time: float
    variable: str
    value: float
    bound: float
    rel_violation: float


@dataclass
class ViolationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def feasible(self) -> bool:
        return not self.violations

    def worst(self) -> Violation | None:
        return max(self.violations, key=lambda v: v.rel_violation, default=None)

    def __str__(self) -> str:
        if self.feasible:
            return "all bounds satisfied"
        lines = [f"{len(self.violations)} bound violation(s):"]
        for v in self.violations[:20]:
            lines.append(f"  t={v.time:.4f}h {v.variable}={v.value:.6g} "
                         f"bound={v.bound:.6g} ({100 * v.rel_violation:.3f}%)")
        return "\n".join(lines)


def check_bounds(traj: Trajectory, b: Bounds, rel_tol: float = 1e-3) -> ViolationReport:
    """List every (time, variable, value, bound) whose relative violation
    exceeds rel_tol: the distance past the bound over |bound|, or over the
    bound span for a zero bound.  A non-finite value violates by inf."""
    if len(traj.times) == 0:
        raise ValueError("check_bounds: empty trajectory")
    names = STATE_NAMES + INPUT_NAMES + ("rho",)
    values = np.column_stack([traj.states, traj.inputs, traj.rho])
    lo, hi = np.array([getattr(b, name) for name in names], dtype=float).T
    span = hi - lo
    with np.errstate(invalid="ignore"):     # inf - inf at an infinite bound
        above = (values - hi) / np.where(hi != 0, np.abs(hi), span)
        below = (lo - values) / np.where(lo != 0, np.abs(lo), span)
    rel = np.where(values > hi, above, np.where(values < lo, below, 0.0))
    rel[~np.isfinite(values)] = np.inf
    bound = np.where(values < lo, lo, hi)
    report = ViolationReport([
        Violation(float(traj.times[i]), names[j], float(values[i, j]), float(bound[i, j]),
                  float(rel[i, j])) for i, j in zip(*np.nonzero(rel > rel_tol))])
    report.violations.sort(key=lambda v: (v.time, v.variable))
    return report
