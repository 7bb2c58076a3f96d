"""Full-order model of the heated reactor-separator process with recycle.

Six differential states (reactor concentrations cA1, cB1 and temperature T1;
flash concentrations cA2, cB2 and temperature T2), four manipulated inputs
(bottom stream FB, purge Fp, heat duties Q1, Q2) and the production rate rho
as scheduling degree of freedom.  Provides the ODE right-hand side as one
formula (`_rhs`, on floats or broadcasting arrays, over the parameter terms
of `_rhs_constants`), a fixed-step RK4 simulator that interpolates its
piecewise-linear controls at every stage time in three array calls per run,
reads the parameters once per run and holds controls and states as one
float list per variable, and a bound check that takes each variable's
column in one pass and counts a non-finite value as a violation.

The simulator keeps no container per step alive: a list or tuple per
sample or state would be thousands of objects tracked by the garbage
collector per replay, which push its young generation past its threshold
and, in a process that holds scipy's tens of thousands of objects, lead to
full collections of 25-35 ms inside whatever runs next.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

STATE_NAMES = ("cA1", "cB1", "T1", "cA2", "cB2", "T2")
INPUT_NAMES = ("FB", "Fp", "Q1", "Q2")
SAMPLE_TOL_H = 1e-9        # rounding allowed past a schedule's last sample


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
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"ProcessParams.{f.name} must be finite")
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
    xs = [getattr(x, name) for name in STATE_NAMES]
    us = [getattr(u, name) for name in INPUT_NAMES]
    for name, val in zip(STATE_NAMES + INPUT_NAMES + ("rho",), xs + us + [rho]):
        if not math.isfinite(val):
            raise ValueError(f"ode_rhs: non-finite input {name}={val!r}")
    if x.T1 <= 0:
        raise ValueError("ode_rhs: T1 must be positive")
    return StateVec(*_rhs(xs, us, rho, _rhs_constants(p)))


def _rhs_constants(p: ProcessParams) -> tuple:
    """The ProcessParams terms that _rhs reads, read once: every field it
    uses, and the quotients and products that it forms from fields alone."""
    return (p.V1, p.V2, p.cA0, p.cB0, p.k1, p.k2, p.E1, p.E2, p.R, p.T0,
            p.dH1 / p.Cp, p.dH2 / p.Cp, p.rhoF * p.Cp * p.V1, p.rhoF * p.Cp * p.V2,
            p.dHV, p.alphaA, p.alphaB, p.alphaC)


def _rhs(x, u, rho, c: tuple) -> tuple:
    """The six right-hand sides as a tuple, on the _rhs_constants c.  x and u
    unpack into 6 and 4 values: Python floats (the simulator's stages), or
    arrays that broadcast with rho.  The reaction rates
    r1 = k1*cA1*exp(-E1/(R*T1)), r2 likewise, take math.exp on a scalar T1
    (about six times faster than np.exp on one value; the two may differ
    in the last bit), and the vapor fractions are those of vapor_fractions."""
    cA1, cB1, T1, cA2, cB2, T2 = x
    FB, Fp, Q1, Q2 = u
    V1, V2, cA0, cB0, k1, k2, E1, E2, R, T0, h1, h2, cV1, cV2, dHV, aA, aB, aC = c
    RT = R * T1
    exp = math.exp if isinstance(RT, float) else np.exp
    r1, r2 = k1 * cA1 * exp(-E1 / RT), k2 * cB1 * exp(-E2 / RT)
    vA, vB = aA * cA2, aB * cB2
    den = vA + vB + aC * (1.0 - cA2 - cB2)
    f_in = (rho + Fp) / V1
    f_rec = (FB - Fp) / V1
    f_fl = (rho + FB) / V2
    f_v = rho / V2
    return (
        f_in * (cA0 - cA1) + f_rec * (cA2 - cA1) - r1,
        f_in * (cB0 - cB1) + f_rec * (cB2 - cB1) + r1 - r2,
        f_in * (T0 - T1) + f_rec * (T2 - T1) - h1 * r1 - h2 * r2 + Q1 / cV1,
        f_fl * (cA1 - cA2) - f_v * (vA / den - cA2),
        f_fl * (cB1 - cB2) - f_v * (vB / den - cB2),
        f_fl * (T1 - T2) - dHV * rho / cV2 + Q2 / cV2,
    )


def _rhs_array(x: np.ndarray, u: np.ndarray, rho, p: ProcessParams) -> np.ndarray:
    """Right-hand sides as an array; x (6, ...) and u (4, ...) may carry
    trailing batch axes, which broadcast with rho."""
    return np.array(_rhs(x, u, rho, _rhs_constants(p)))


class SimulationDiverged(RuntimeError):
    def __init__(self, t: float):
        super().__init__(f"simulation diverged at t={t:.4f} h")
        self.t = t


@dataclass(frozen=True)
class ControlSchedule:
    """Time-indexed (InputVec, rho) samples, interpolated piecewise-linearly."""

    times: np.ndarray              # (N,), hours, non-decreasing
    inputs: np.ndarray             # (N, 4)
    rho: np.ndarray                # (N,)

    def __post_init__(self):
        n = len(self.times)
        if np.shape(self.inputs) != (n, 4):
            raise ValueError(f"ControlSchedule: inputs must be ({n}, 4), "
                             f"not {np.shape(self.inputs)}")
        if np.shape(self.rho) != (n,):
            raise ValueError(f"ControlSchedule: rho must be ({n},), not {np.shape(self.rho)}")
        if not np.isfinite(self.times).all():
            raise ValueError("ControlSchedule: times must be finite")
        if np.any(np.diff(self.times) < 0):
            raise ValueError("ControlSchedule: times must not decrease")

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
    t + h/2 and t + h.  The parameter terms of `_rhs_constants` are read
    once per run.  Each input and rho is held as one float list per stage
    time and each state as one float list, stacked into `states` at the
    end, so the run leaves no per-step container for the garbage collector
    to track (see the module docstring).  Each step runs on the six states
    as float locals: the four stages are explicit tuples through `_rhs`,
    the one right-hand-side formula, and the RK4 combination and the
    divergence check are written out per state, in the operation order of
    the array form, so the states are bitwise those of RK4 on numpy arrays.

    Raises ValueError when the run would read controls outside their
    samples (the schedule starts after 0 or ends more than SAMPLE_TOL_H
    before the last step), and SimulationDiverged when a state is non-finite
    or its magnitude exceeds 1e9, or when a stage overflows or divides by
    zero.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    p = p or ProcessParams()
    n = max(int(round(horizon / step)), 0)
    h = step
    t0, t_end = controls.times[0], controls.times[-1]
    if t0 > 0 or n * h > t_end + SAMPLE_TOL_H:
        raise ValueError(f"simulate: controls sampled on [{t0}, {t_end}] h "
                         f"do not cover [0, {n * h}] h")
    times = np.linspace(0.0, n * h, n + 1)
    inputs, rhos = controls.at(times)
    u_mid, rho_mid = controls.at(times[:-1] + h / 2)
    u_end, rho_end = controls.at(times[:-1] + h)
    FB, Fp, Q1, Q2 = inputs.T.tolist()
    FBm, Fpm, Q1m, Q2m = u_mid.T.tolist()
    FBe, Fpe, Q1e, Q2e = u_end.T.tolist()
    r0, rm, re = rhos.tolist(), rho_mid.tolist(), rho_end.tolist()
    half, sixth = h / 2, h / 6
    consts = _rhs_constants(p)
    x1, x2, x3, x4, x5, x6 = x0.as_array().tolist()
    s1, s2, s3, s4, s5, s6 = [], [], [], [], [], []
    ts = times.tolist()
    for i, t in enumerate(ts):
        if not (abs(x1) <= 1e9 and abs(x2) <= 1e9 and abs(x3) <= 1e9
                and abs(x4) <= 1e9 and abs(x5) <= 1e9 and abs(x6) <= 1e9):
            raise SimulationDiverged(t)
        s1.append(x1)
        s2.append(x2)
        s3.append(x3)
        s4.append(x4)
        s5.append(x5)
        s6.append(x6)
        if i < n:
            try:
                a1, a2, a3, a4, a5, a6 = _rhs((x1, x2, x3, x4, x5, x6),
                                              (FB[i], Fp[i], Q1[i], Q2[i]), r0[i], consts)
                um, ue = (FBm[i], Fpm[i], Q1m[i], Q2m[i]), (FBe[i], Fpe[i], Q1e[i], Q2e[i])
                b1, b2, b3, b4, b5, b6 = _rhs(
                    (x1 + half * a1, x2 + half * a2, x3 + half * a3,
                     x4 + half * a4, x5 + half * a5, x6 + half * a6), um, rm[i], consts)
                c1, c2, c3, c4, c5, c6 = _rhs(
                    (x1 + half * b1, x2 + half * b2, x3 + half * b3,
                     x4 + half * b4, x5 + half * b5, x6 + half * b6), um, rm[i], consts)
                d1, d2, d3, d4, d5, d6 = _rhs(
                    (x1 + h * c1, x2 + h * c2, x3 + h * c3,
                     x4 + h * c4, x5 + h * c5, x6 + h * c6), ue, re[i], consts)
            except (OverflowError, ZeroDivisionError):  # math.exp, or T1 == 0 in a stage
                raise SimulationDiverged(ts[i + 1]) from None
            x1 = x1 + sixth * (a1 + 2 * b1 + 2 * c1 + d1)
            x2 = x2 + sixth * (a2 + 2 * b2 + 2 * c2 + d2)
            x3 = x3 + sixth * (a3 + 2 * b3 + 2 * c3 + d3)
            x4 = x4 + sixth * (a4 + 2 * b4 + 2 * c4 + d4)
            x5 = x5 + sixth * (a5 + 2 * b5 + 2 * c5 + d5)
            x6 = x6 + sixth * (a6 + 2 * b6 + 2 * c6 + d6)
    return Trajectory(times, np.column_stack([s1, s2, s3, s4, s5, s6]), inputs, rhos)


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
