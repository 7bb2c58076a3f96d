"""Operating strategy and backtransformations for the reactor-separator case.

The four controlled outputs are the flash composition and temperature
(cA2, cB2, T2, held at nominal values) and the reactor concentration cA1,
which follows a fitted linear function of the production rate,
cA1 = a0 + a1*rho.  Holding the flash outputs constant makes the model
invertible from (rho, rho_dot, nu), nu being the second rate derivative:

* dcA2/dt = 0 solved for the bottom stream gives FB(rho),
* dcB2/dt = 0 then pins the reactor concentration cB1(rho),
* dT2/dt = 0 solved for the flash duty gives Q2(rho, T1),
* the purge follows from d2cB2/dt2 = 0.  Differentiating the flash B-balance
  along the strategy and eliminating the rate derivative via the reactor
  A-balance leaves a condition affine in Fp (both balances are affine in Fp
  with constant coefficients), solved in closed form as psi_Fp(rho, T1):

      s * (A0 + A1*Fp) = B0 + B1*Fp,   s = dcB1/dcA1,

  where A0/A1 (B0/B1) are the Fp-intercept and Fp-slope of the reactor A
  (B) balance right-hand side.  The derivation is locked by a closed-loop
  simulation test that holds cB2 at its nominal value to 1e-4 over hours.
* with the purge eliminated, the reactor A-balance is the rate residual

      A0 + A1*psi_Fp = (A1*B0 - B1*A0) / (s*A1 - B1),

  equal to a1*rho_dot on the flat trajectory and to 0 at a steady state.
  It is strictly monotone in T1 through the two Arrhenius terms, so both
  solve_T1 and steady_state_point are one bracketed root of it on
  T1_BRACKET,
* the reactor duty Q1 follows from the total time derivative of that
  residual, in which both nu and Q1 enter affinely; its partials are closed
  form (the residual is affine in A0 and B0, which differentiate exactly).

The rate residual and psi_Fp = (B0 - s*A0) / (s*A1 - B1) are both linear
combinations (wA*A0 + wB*B0)/den of the Fp-intercepts, with (wA, wB) =
(-B1, A1) and (-s, 1), so every T1 root in the package solves "combination
= target" for one of them: the rate weights for the flat points, the purge
weights for the Fp bounds of rho_dot_limit_from_bound (psi_Fp rises in T1 on
T1_BRACKET), which gives the true rate-derivative limit of a T1, Fp or Q2
bound as the rate residual over a1 at the bound's T1.  T1 enters A0 and B0
only through the reaction rates, so _flat_step computes the strategy's flow
terms once and returns the Newton step: one expression that gives the
residual, its T1 partial and the rates on constants read once.

Every function here broadcasts over numpy arrays, so a whole set-up grid
(the strategy fit's cA1 scan, the envelope's rate-derivative band and nu
surfaces, the demand grid) is one call.  Every T1 root is one safeguarded
Newton/bisection on the exact T1 partial, stopped at 1e-10 K (_newton); an
array steps all its points at once, a scalar point takes the same steps on
Python floats, since a schedule replay backtransforms hundreds of single
points.  Every point is one pass (_flat_point): the strategy constants
and the flow terms once, the root, then one more step at it for every state,
input and Q1 coefficient, in the operation order of the layered reference
chain that the tests hold it to bitwise.  The pass gives NaN where a
point has no root; backtransform and q1_affine_in_nu raise there and on a
zero slope a1.  A steady state is the flat point of a constant strategy
(a1 = 0) at rest, with Q1 = c0, so it is bitwise the backtransform of
(rho, 0, 0) on any strategy through it.  The scalar backtransform keeps the
last point it solved: a replay that holds one point (a steady schedule
backtransforms (rho_nom, 0, 0) at every grid time) solves it once.

The strategy itself is fitted by steady-state optimization
(fit_operating_strategy).  The heat demand Q1+Q2 rises with cA1, so its free
optimum at each rho is the edge FB = FB_max of the feasible cA1 window.  That
edge is concave in rho, so the best line that holds FB <= FB_max on the whole
rho band is one of its tangents, and the fit is one bounded scalar search
over the tangent point.  A cA1 scan checks the premise and a dense rho sweep
the line's other bounds; the fit raises SteadyStateError where either fails.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize_scalar

from .process import (Bounds, InputVec, ProcessParams, StateVec, _rhs_array,
                      vapor_fractions)


class OutsideFlatRegionError(RuntimeError):
    """The requested (rho, rho_dot) has no reactor temperature in the bracket."""


class SingularTransformError(RuntimeError):
    pass


@dataclass(frozen=True)
class OperatingStrategy:
    a0_xi4: float                 # intercept of cA1 = a0 + a1*rho
    a1_xi4: float                 # slope, h/m^3
    xi1_nom: float = 0.4539       # flash cA2
    xi2_nom: float = 0.4610       # flash cB2
    xi3_nom: float = 455.0        # flash temperature, K

    def pi4(self, rho: float) -> float:
        return self.a0_xi4 + self.a1_xi4 * rho


@dataclass(frozen=True)
class RampingPoint:
    """One point, or with array fields a batch of points."""
    rho: float          # m^3/h
    rho_dot: float      # m^3/h^2
    nu: float           # m^3/h^3 (second rate derivative)


def _is_batch(*values) -> bool:
    """Whether any value has an axis: np.ndim > 0, without np.ndim's
    microseconds on a Python float."""
    for v in values:
        if getattr(v, "ndim", 0):
            return True
    return False


def _any(mask) -> bool:
    """np.any, without its microseconds on a scalar bool."""
    return bool(mask.any() if isinstance(mask, np.ndarray) else mask)


def _where(mask, rho, rho_dot) -> str:
    """The first point of `mask` on the broadcast (rho, rho_dot), and for an
    array mask the number of its points."""
    i = np.argmax(mask)
    r, rd = (float(np.ravel(np.broadcast_to(v, np.shape(mask)))[i]) for v in (rho, rho_dot))
    return f"rho={r:.4g}, rho_dot={rd:.4g}" + (
        f" ({np.count_nonzero(mask)} of {np.size(mask)} points)" if np.ndim(mask) else "")


def nominal_vapor(strat: OperatingStrategy, p: ProcessParams) -> tuple[float, float]:
    """Vapor composition (cAv, cBv) at the nominal flash liquid composition."""
    return vapor_fractions(strat.xi1_nom, strat.xi2_nom, p)


def bottom_flow(rho: float, cA1: float, strat: OperatingStrategy,
                p: ProcessParams) -> float:
    """FB from the steady flash A-balance; depends on rho (and cA1) only."""
    cAv, _ = nominal_vapor(strat, p)
    return rho * ((cAv - strat.xi1_nom) / (cA1 - strat.xi1_nom) - 1.0)


def _constants(strat: OperatingStrategy,
               p: ProcessParams) -> tuple[float, float, float, float, float]:
    """(cAv, s, A1, B1, den): nominal vapor fraction, s = dcB1/dcA1 along the
    constant-flash-composition manifold, the constant Fp-slopes A1, B1 of
    the reactor A and B balances and the purge denominator s*A1 - B1."""
    cAv, cBv = nominal_vapor(strat, p)
    s = (cBv - strat.xi2_nom) / (cAv - strat.xi1_nom)
    A1 = (p.cA0 - strat.xi1_nom) / p.V1
    B1 = (p.cB0 - strat.xi2_nom) / p.V1
    den = s * A1 - B1
    if abs(den) < 1e-12:
        raise SingularTransformError("vanishing structural coefficient s*A1 - B1")
    return cAv, s, A1, B1, den


def _flat_step(target, rho, weights: tuple, k: tuple, strat: OperatingStrategy,
               p: ProcessParams):
    """(rho, flows, step) of the T1 root of (wA*A0 + wB*B0)/den = target at
    rho, for weights (wA, wB, den) and the _constants k.

    rho comes back as a Python float for a scalar point, the fast type, or
    as an array with NaN for a non-finite rho.  flows = (cA1, cB1, FB, A0f,
    B0f) along the strategy at rho: cB1 pinned by the steady flash
    B-balance, FB as in bottom_flow, and the parts of the Fp-intercepts of
    the reactor A and B balances that do not depend on T1,
    A0 = A0f - r1 and B0 = B0f + r1 - r2.  step(T1) gives (f, f_T1, r1, r2)
    from one expression on constants read once: the residual
    (wA*A0 + wB*B0)/den - target, its exact T1 partial (through the
    Arrhenius factors only: dA0 = -dr1, dB0 = dr1 - dr2) and the reaction
    rates r1 = k1*cA1*exp(-E1/(R*T1)), r2 likewise, with math.exp on a
    scalar T1 (about six times faster than np.exp on one value; the two may
    differ in the last bit), as process._rhs takes them.
    """
    if _is_batch(target, rho):       # NaN, unlike inf, passes the residual silently
        rho = np.where(np.isfinite(rho), rho, np.nan)
    else:                            # so does inf on Python floats, also the fast type
        target, rho = float(target), float(rho)
    x1, x2, V1 = strat.xi1_nom, strat.xi2_nom, p.V1
    cA1 = strat.a0_xi4 + strat.a1_xi4 * rho                  # pi4
    cB1 = x2 + k[1] * (cA1 - x1)
    FB = rho * ((k[0] - x1) / (cA1 - x1) - 1.0)
    A0f = rho * (p.cA0 - cA1) / V1 + FB * (x1 - cA1) / V1
    B0f = rho * (p.cB0 - cB1) / V1 + FB * (x2 - cB1) / V1
    wA, wB, den = weights
    kA, kB, E1, E2, R = p.k1 * cA1, p.k2 * cB1, p.E1, p.E2, p.R
    nE1, nE2 = -E1, -E2

    def step(T1):
        RT = R * T1
        exp = math.exp if isinstance(RT, float) else np.exp
        r1, r2 = kA * exp(nE1 / RT), kB * exp(nE2 / RT)
        RTT = RT * T1
        d1, d2 = r1 * E1 / RTT, r2 * E2 / RTT
        return ((wB * (B0f + r1 - r2) + wA * (A0f - r1)) / den - target,
                (wB * (d1 - d2) - wA * d1) / den, r1, r2)
    return rho, (cA1, cB1, FB, A0f, B0f), step


def psi_Fp(rho: float, T1: float, strat: OperatingStrategy,
           p: ProcessParams) -> float:
    """Purge stream enforcing d2cB2/dt2 = 0, as a function of (rho, T1)."""
    if _any(T1 <= 0):
        raise ValueError("psi_Fp: T1 must be positive")
    k = _constants(strat, p)
    return _flat_step(0.0, rho, (-k[1], 1.0, k[4]), k, strat, p)[2](T1)[0]


T1_BRACKET = (300.0, 600.0)
T1_XTOL = 1e-10                 # K, both root paths
_NEWTON_MAX_ITER = 100          # bisection alone needs 42 halvings of 300 K


def _newton(step):
    """T1 in T1_BRACKET with step(T1)[0] = 0 (see _flat_step), NaN where
    there is none.

    A safeguarded Newton iteration on the exact T1 partial: each step keeps
    the bracket [T_neg, T_pos] on which the residual changes sign and falls
    back to its midpoint when the Newton step leaves it, until a step moves
    T1 by at most T1_XTOL.  An array residual steps every point at once; a
    scalar one takes the same steps on Python floats, over ten times faster
    than a size-1 array.
    """
    lo, hi = T1_BRACKET
    f_lo, f_hi = step(lo)[0], step(hi)[0]
    if not isinstance(f_lo, np.ndarray):
        if not f_lo * f_hi <= 0:
            return math.nan
        t_neg, t_pos = (lo, hi) if f_lo < f_hi else (hi, lo)
        T1, xtol = 0.5 * (lo + hi), T1_XTOL
        for _ in range(_NEWTON_MAX_ITER):
            f, d, _, _ = step(T1)
            t_neg, t_pos = T1 if f < 0 else t_neg, T1 if f > 0 else t_pos
            nxt = T1 - f / d if d else math.nan
            if not (t_neg <= nxt <= t_pos or t_pos <= nxt <= t_neg):
                nxt = 0.5 * (t_neg + t_pos)
            if abs(nxt - T1) <= xtol:
                return nxt
            T1 = nxt
        raise RuntimeError(f"T1 Newton did not converge in {_NEWTON_MAX_ITER} steps")
    ok = f_lo * f_hi <= 0
    t_neg, t_pos = np.where(f_lo < f_hi, lo, hi), np.where(f_lo < f_hi, hi, lo)
    T1 = np.full(np.shape(ok), 0.5 * (lo + hi))
    active = ok.copy()
    for _ in range(_NEWTON_MAX_ITER):
        f, d, _, _ = step(T1)
        t_neg, t_pos = np.where(f < 0, T1, t_neg), np.where(f > 0, T1, t_pos)
        with np.errstate(divide="ignore", invalid="ignore"):
            nxt = T1 - f / d
        inside = (nxt >= np.minimum(t_neg, t_pos)) & (nxt <= np.maximum(t_neg, t_pos))
        nxt = np.where(inside, nxt, 0.5 * (t_neg + t_pos))
        converged = np.abs(nxt - T1) <= T1_XTOL
        T1 = np.where(active, nxt, T1)
        active &= ~converged
        if not active.any():
            return np.where(ok, T1, np.nan)
    raise RuntimeError(f"T1 Newton did not converge in {_NEWTON_MAX_ITER} steps")


def _found(T1, rho, rho_dot):
    """T1, or OutsideFlatRegionError naming the first point without a root."""
    miss = T1 != T1                  # NaN, without np.isnan's cost on a float
    if _any(miss):
        raise OutsideFlatRegionError(f"no reactor temperature in {list(T1_BRACKET)} K "
                                     f"for {_where(miss, rho, rho_dot)}")
    return T1


def solve_T1(rho: float, rho_dot: float, strat: OperatingStrategy,
             p: ProcessParams) -> float:
    """Reactor temperature along the strategy at (rho, rho_dot).

    The T1 of _flat_point: the root of the rate residual = a1*rho_dot on
    T1_BRACKET, which is wider than the temperature operating bounds so
    that bound-violating points are detected by value rather than by solver
    failure.  Broadcasts over arrays; one point outside the flat region
    fails the whole call.
    """
    if strat.a1_xi4 == 0:
        raise SingularTransformError("solve_T1: strategy slope a1 is zero")
    return _found(_flat_point(rho, rho_dot, strat, p)[0], rho, rho_dot)


def rho_dot_limit_from_bound(rho: float, variable: str, bound_value: float,
                             strat: OperatingStrategy, p: ProcessParams) -> float:
    """Rate derivative at which `variable` (T1, Fp or Q2) sits exactly on
    `bound_value`; broadcasts over an array rho.

    The rate residual divided by a1, evaluated at T1 = bound for T1, at the
    T1 where the steady flash energy balance puts Q2 on its bound for Q2,
    and at the T1 root of psi_Fp = bound for Fp.  Returns +/-inf where an
    Fp bound cannot be attained at rho (it does not constrain there).
    """
    if variable not in ("T1", "Fp", "Q2"):
        raise ValueError(f"unsupported variable {variable!r}")
    a1 = strat.a1_xi4
    if a1 == 0:
        raise SingularTransformError("rho_dot_limit_from_bound: strategy slope a1 is zero")
    k = _, s, A1, B1, den = _constants(strat, p)
    r, flows, rate = _flat_step(0.0, rho, (-B1, A1, den), k, strat, p)
    if variable == "T1":
        return rate(bound_value)[0] / a1
    if variable == "Q2":
        T1 = strat.xi3_nom + (p.dHV * r - bound_value) / (p.rhoF * p.Cp * (r + flows[2]))
        return rate(T1)[0] / a1
    purge = _flat_step(bound_value, rho, (-s, 1.0, den), k, strat, p)[2]
    T1 = _newton(purge)
    miss, lo = np.isnan(T1), T1_BRACKET[0]
    # out of reach: +inf where psi_Fp stays below the bound, -inf where
    # above; neither constrains
    unreached = np.where(purge(lo)[0] < 0, math.inf, -math.inf)
    return np.where(miss, unreached, rate(np.where(miss, lo, T1))[0] / a1)[()]


def _flat_point(rho, rho_dot, strat: OperatingStrategy, p: ProcessParams):
    """(T1, cA1, cB1, FB, Fp, Q2, c0, psi_q1) at (rho, rho_dot), Q1 = c0 +
    a1/psi_q1*nu, in one pass on Python floats for a scalar point or on
    arrays: NaN where T1_BRACKET holds no root, and any slope a1.

    The _constants and the flows of _flat_step are computed once; the T1
    root of solve_T1 and one more step at it share them.  That step gives
    the T1 partial, the rates, the purge Fp = psi_Fp, the flash duty Q2 of
    the steady flash energy balance and the drift: the dT1/dt of flows and
    reactions, everything except Q1.  Q1 follows from the total time
    derivative of the strategy residual,
    0 = Psi_rho*rho_dot + Psi_rhodot*nu + Psi_T1*dT1/dt, in which dT1/dt is
    the reactor energy balance, affine in Q1.  Psi_rhodot = -a1, Psi_T1 is
    the step's T1 partial, and Psi_rho is closed form (the residual is
    affine in A0 and B0, which differentiate exactly).  A steady state is
    the point of a constant strategy (a1 = 0) at rho_dot = 0, with Q1 = c0;
    the ramping callers raise where a point has no root (_ramp_point).
    """
    a1 = strat.a1_xi4
    k = cAv, s, A1, B1, den = _constants(strat, p)
    r, flows, step = _flat_step(a1 * rho_dot, rho, (-B1, A1, den), k, strat, p)
    T1 = _newton(step)
    _, P_T1, r1, r2 = step(T1)
    cA1, cB1, FB, A0f, B0f = flows
    V1, x1, xi3 = p.V1, strat.xi1_nom, strat.xi3_nom
    Fp = (B0f + r1 - r2 - s * (A0f - r1)) / den              # bitwise psi_Fp
    drift = ((r + Fp) / V1 * (p.T0 - T1) + (FB - Fp) / V1 * (xi3 - T1)
             - p.dH1 / p.Cp * r1 - p.dH2 / p.Cp * r2)
    Q2 = -p.rhoF * p.Cp * (r + FB) * (T1 - xi3) + p.dHV * r
    # d/drho through cA1 = a0 + a1*rho, cB1 = xi2 + s*(cA1 - xi1) and FB
    dcB1 = s * a1
    m = (cAv - x1) / (cA1 - x1)
    dFB = m - 1.0 - r * m * a1 / (cA1 - x1)
    dr1, dr2 = r1 / cA1 * a1, r2 / cB1 * dcB1
    dA0 = ((p.cA0 - cA1) - r * a1 + dFB * (x1 - cA1) - FB * a1) / V1 - dr1
    dB0 = (((p.cB0 - cB1) - r * dcB1 + dFB * (strat.xi2_nom - cB1) - FB * dcB1) / V1
           + dr1 - dr2)
    P_rho = (A1 * dB0 - B1 * dA0) / den
    psi_q1 = P_T1 / (p.rhoF * p.Cp * V1)
    return T1, cA1, cB1, FB, Fp, Q2, -(P_rho * rho_dot + P_T1 * drift) / psi_q1, psi_q1


def _ramp_point(rho, rho_dot, strat: OperatingStrategy, p: ProcessParams):
    """(T1, cA1, cB1, FB, Fp, Q2, c0, c1) of _flat_point on a ramping
    strategy, Q1 = c0 + c1*nu, for backtransform and q1_affine_in_nu.
    Raises on a zero slope a1, then OutsideFlatRegionError naming the first
    point without a root, then on a vanishing Q1 coefficient."""
    a1 = strat.a1_xi4
    if a1 == 0:
        raise SingularTransformError("solve_T1: strategy slope a1 is zero")
    T1, cA1, cB1, FB, Fp, Q2, c0, psi_q1 = _flat_point(rho, rho_dot, strat, p)
    _found(T1, rho, rho_dot)
    if _any(abs(psi_q1) < 1e-12):
        raise SingularTransformError("q1_affine_in_nu: vanishing Q1 coefficient")
    return T1, cA1, cB1, FB, Fp, Q2, c0, a1 / psi_q1


def q1_affine_in_nu(rho: float, rho_dot: float, strat: OperatingStrategy,
                    p: ProcessParams) -> tuple[float, float, float]:
    """Coefficients (c0, c1, T1) with Q1 = c0 + c1*nu at the given (rho, rho_dot).

    Obtained from the total time derivative of the strategy residual,
    0 = Psi_rho*rho_dot + Psi_rhodot*nu + Psi_T1*dT1/dt, where dT1/dt is the
    reactor energy balance and Q1 enters it linearly.
    """
    T1, *_, c0, c1 = _ramp_point(rho, rho_dot, strat, p)
    return c0, c1, T1


_point_bits = struct.Struct("3d").pack
_NO_POINT = ((b"", None, None), None)
# ((bits, strat, p), (StateVec, InputVec)), replaced in one assignment and
# read once per call, so a caller in another thread sees a whole entry
_last_point = _NO_POINT


def backtransform(pt: RampingPoint, strat: OperatingStrategy,
                  p: ProcessParams) -> tuple[StateVec, InputVec]:
    """Map a ramping point (rho, rho_dot, nu) to full states and inputs.

    One _flat_point pass: with array fields in pt, every state and input
    field is an array of their common shape; a scalar point runs on Python
    floats, with the strategy constants computed once and every Newton
    step one expression.  A non-finite rho or rho_dot raises
    OutsideFlatRegionError, a non-finite nu ValueError.

    The scalar path keeps the last point that solved.  A call with the same
    (rho, rho_dot, nu) bits and the same strat and p objects (by identity)
    returns the same two frozen objects.  A zero's sign counts, and a point
    that fails, a NaN among them, is never kept."""
    global _last_point
    batch = _is_batch(pt.rho, pt.rho_dot, pt.nu)
    rho, rho_dot, nu = ((pt.rho, pt.rho_dot, pt.nu) if batch
                        else (float(pt.rho), float(pt.rho_dot), float(pt.nu)))
    if not batch:
        bits = _point_bits(rho, rho_dot, nu)
        (last_bits, last_strat, last_p), pair = _last_point
        if last_bits == bits and last_strat is strat and last_p is p:
            return pair
    if not (np.isfinite(nu).all() if batch else math.isfinite(nu)):
        raise ValueError("backtransform: nu must be finite")
    T1, cA1, cB1, FB, Fp, Q2, c0, c1 = _ramp_point(rho, rho_dot, strat, p)
    x = (cA1, cB1, T1, strat.xi1_nom, strat.xi2_nom, strat.xi3_nom)
    u = (FB, Fp, c0 + c1 * nu, Q2)
    if batch:
        fields = np.broadcast_arrays(*x, *u)
        return StateVec(*fields[:6]), InputVec(*fields[6:])
    pair = StateVec(*x), InputVec(*u)
    _last_point = (bits, strat, p), pair
    return pair


def strategy_outputs(rho: float, rho_dot: float, nu: float,
                     strat: OperatingStrategy) -> dict[str, np.ndarray]:
    """Output values and their first two time derivatives under the strategy."""
    xi = np.array([strat.xi1_nom, strat.xi2_nom, strat.xi3_nom, strat.pi4(rho)])
    xi_dot = np.array([0.0, 0.0, 0.0, strat.a1_xi4 * rho_dot])
    xi_ddot = np.array([0.0, 0.0, 0.0, strat.a1_xi4 * nu])
    return {"xi": xi, "xi_dot": xi_dot, "xi_ddot": xi_ddot}


# ---------------------------------------------------------------------------
# Steady states and the operating-strategy fit
# ---------------------------------------------------------------------------

class SteadyStateError(RuntimeError):
    pass


def _steady_batch(rho, cA1, strat: OperatingStrategy, p: ProcessParams,
                  b: Bounds) -> tuple[StateVec, InputVec, np.ndarray]:
    """Steady states with nominal flash conditions at the given (rho, cA1)
    pairs; broadcasts.  Each is the _flat_point of the constant strategy
    cA1 = a0 at rest (rho_dot = 0), with Q1 = c0.  A scalar pair stays on
    Python floats: its fields are floats, its fail code a 0-d array.

    Returns (x, u, fail): fail is 0 where the point solved, else the first
    check it failed: 1 rho outside its bounds, 2 cA1 outside the FB-feasible
    window, 3 no root in the bracket, 4 a scaled residual of the six
    balances above 1e-9.  The fields of a failed point are placeholders.
    """
    lo, hi = b.rho
    rho_ok = np.asarray((lo <= rho) & (rho <= hi))
    cAv, _ = nominal_vapor(strat, p)
    win_ok = np.asarray((strat.xi1_nom < cA1) & (cA1 <= cAv))
    a0 = np.where(win_ok, cA1, cAv)
    const = replace(strat, a0_xi4=a0 if a0.ndim else float(a0), a1_xi4=0.0)
    T1, cA1, cB1, FB, Fp, Q2, Q1, _ = _flat_point(rho, 0.0, const, p)
    fields = (cA1, cB1, T1, const.xi1_nom, const.xi2_nom, const.xi3_nom, FB, Fp, Q1, Q2)
    if _is_batch(rho, cA1):
        fields = np.broadcast_arrays(*fields)
    x, u = StateVec(*fields[:6]), InputVec(*fields[6:])
    res_ok = scaled_residual(x, u, rho, p) <= 1e-9
    # the first failed check, as np.select gives it, at a quarter of its cost on one point
    fail = np.where(~rho_ok, 1, np.where(~win_ok, 2, np.where(np.isnan(x.T1), 3,
                                                              np.where(res_ok, 0, 4))))
    return x, u, fail


def steady_state_point(rho: float, cA1: float, strat: OperatingStrategy | None = None,
                       p: ProcessParams | None = None,
                       bounds: Bounds | None = None) -> tuple[StateVec, InputVec]:
    """Steady state with nominal flash conditions and the given reactor cA1.

    The scalar case of _steady_batch, so T1 is one Newton root on Python
    floats; raises SteadyStateError naming the first check the point
    failed."""
    p = p or ProcessParams()
    b = bounds or Bounds()
    x, u, fail = _steady_batch(rho, cA1, strat or OperatingStrategy(0.0, 0.0), p, b)
    if fail == 1:
        raise SteadyStateError(f"rho={rho} outside [{b.rho[0]}, {b.rho[1]}]")
    if fail == 2:
        raise SteadyStateError(f"cA1={cA1} outside the FB-feasible window")
    if fail == 3:
        raise SteadyStateError(
            f"no reactor temperature in {list(T1_BRACKET)} K at rho={rho}, cA1={cA1}")
    if fail == 4:
        resid = scaled_residual(x, u, rho, p)
        raise SteadyStateError(f"steady residual {resid:.2e} exceeds 1e-9")
    return x, u


_RES_SCALE = np.array([1.0, 1.0, 100.0, 1.0, 1.0, 100.0])


def scaled_residual(x: StateVec, u: InputVec, rho: float, p: ProcessParams) -> float:
    """Max-norm of the ODE right-hand side, temperatures scaled by 100 K;
    broadcasts over array fields of equal shape (NaN where one is NaN)."""
    rhs = _rhs_array(x.as_array(), u.as_array(), rho, p)
    return np.max(np.abs(rhs).T / _RES_SCALE, axis=-1).T


_CA1_SLACK = 1e-12               # lift of the fitted strategy off the FB edge
STRATEGY_GRID = 21               # rho points of the strategy fit's objective


def _window(rho: float, strat: OperatingStrategy, p: ProcessParams,
            b: Bounds) -> tuple[float, float]:
    """cA1 interval with 0 <= FB <= FB_max at the given rho."""
    cAv, _ = nominal_vapor(strat, p)
    lo = strat.xi1_nom + rho * (cAv - strat.xi1_nom) / (b.FB[1] + rho)
    return lo, cAv


def _steady_feasible(x: StateVec, u: InputVec, b: Bounds):
    """Whether every reactor state and input lies within its bounds;
    elementwise over array fields."""
    vals = {"cA1": x.cA1, "cB1": x.cB1, "T1": x.T1, "FB": u.FB, "Fp": u.Fp,
            "Q1": u.Q1, "Q2": u.Q2}
    return np.logical_and.reduce([(getattr(b, k)[0] <= v) & (v <= getattr(b, k)[1])
                                  for k, v in vals.items()])


@dataclass
class StrategyFitReport:
    rho_grid: list[float]
    free_ca1: list[float]
    free_objective: float
    const_value: float
    const_degradation_pct: float
    linear_degradation_pct: float


def fit_operating_strategy(
        p: ProcessParams | None = None,
        bounds: Bounds | None = None) -> tuple[OperatingStrategy, StrategyFitReport]:
    """Fit the linear strategy cA1 = a0 + a1*rho by steady-state optimization.

    The objective is Q1+Q2 summed over STRATEGY_GRID rho.  Its free optimum
    at each rho is the FB edge of _window, lo(rho) = xi1 + rho*k/(FB_max +
    rho) with k = cAv - xi1, because Q1+Q2 rises with cA1 across the
    feasible window.  lo is concave, so every line that holds FB <= FB_max on the whole band
    lies on or above a tangent to lo at some t in the band, and that tangent
    costs no more.  The line is therefore the best tangent,
    a1 = k*FB_max/(FB_max + t)**2, a0 = lo(t) - t*a1, found by one bounded
    scalar search over t, each evaluation one steady batch over the grid.
    lo rises with rho, so the best constant strategy is lo(rho_max).  Both
    are lifted by _CA1_SLACK, so that FB rounds to at most FB_max where they
    touch the edge.

    One steady batch over a 161-point cA1 scan per grid rho checks the
    premise: the edge is feasible, and Q1+Q2 never falls as cA1 rises over
    the feasible scan points.  One steady batch over 2 001 rho then checks
    that the line meets every bound (T1, Fp, Q1, Q2 as well as FB).  Either
    failure raises SteadyStateError naming the rho: bounds that make an
    interior cA1 optimal, or put the edge outside another bound, have no
    tangent solution.
    """
    p = p or ProcessParams()
    b = bounds or Bounds()
    base = OperatingStrategy(a0_xi4=0.0, a1_xi4=0.0)
    rhos = np.linspace(*b.rho, STRATEGY_GRID)
    k, fb_max = nominal_vapor(base, p)[0] - base.xi1_nom, b.FB[1]

    def objective(rho: np.ndarray, cA1: np.ndarray) -> np.ndarray:
        x, u, fail = _steady_batch(rho, cA1, base, p, b)
        return np.where((fail == 0) & _steady_feasible(x, u, b), u.Q1 + u.Q2, np.inf)

    def require(ok: np.ndarray, rho: np.ndarray, what: str) -> None:
        if not np.all(ok):
            raise SteadyStateError(f"{what} at rho={rho[np.argmin(ok)]:.4g}")

    lo, hi = _window(rhos, base, p, b)
    grid = np.linspace(lo + _CA1_SLACK, hi, 161, axis=1)
    vals = objective(np.repeat(rhos, 161), grid.ravel()).reshape(grid.shape)
    # feasible at the edge, and never below a feasible value nearer to it
    q = np.where(np.isfinite(vals), vals, np.nan)
    require(np.isfinite(q[:, 0]) & ~np.any(q < np.fmax.accumulate(q, axis=1), axis=1),
            rhos, "the FB edge is not the feasible minimum of Q1+Q2")
    free_total = float(np.sum(vals[:, 0]))

    def total(a0: float, a1: float) -> float:
        return float(np.sum(objective(rhos, a0 + a1 * rhos)))

    def tangent(t: float) -> tuple[float, float]:
        a1 = k * fb_max / (fb_max + t) ** 2
        return _window(t, base, p, b)[0] - t * a1 + _CA1_SLACK, a1

    res = minimize_scalar(lambda t: total(*tangent(t)), bounds=b.rho, method="bounded")
    a0, a1 = (float(v) for v in tangent(res.x))
    dense = np.linspace(*b.rho, 2001)
    require(np.isfinite(objective(dense, a0 + a1 * dense)), dense,
            "the tangent strategy violates a bound")
    const = _window(b.rho[1], base, p, b)[0] + _CA1_SLACK
    report = StrategyFitReport(
        rho_grid=[float(r) for r in rhos],
        free_ca1=[float(v) for v in grid[:, 0]],
        free_objective=free_total,
        const_value=float(const),
        const_degradation_pct=100.0 * (total(const, 0.0) - free_total) / free_total,
        linear_degradation_pct=100.0 * (float(res.fun) - free_total) / free_total,
    )
    return OperatingStrategy(a0_xi4=a0, a1_xi4=a1), report
