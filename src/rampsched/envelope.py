"""Dynamic ramping envelopes: true nonlinear limits, conservative fits,
heat-demand model, and the linear closed-loop (set-point filter) comparison.

The first rate derivative is limited by the bounds of the variables that
respond to it (T1, Fp, Q2); the second derivative nu is limited by the
reactor duty bounds through the affine relation Q1(nu).  True limits are
evaluated by inverting the backtransformation over whole grids at once: the
rate-derivative band in closed form for T1 and Q2 and by the one T1 root of
transform._flat_root for Fp, the nu band by one q1_affine_in_nu call.  One
conservative plane fitter, _fit_planes, fits both: a linear program per
Magnani-Boyd round (Optim. Eng. 10, 2009) with per-point conservativeness
constraints plus a curvature margin so that the guarantee survives grid
refinement, on the design matrix [1, rho] of an n x 1 grid for the two
rate-derivative lines and [1, rho, rho_dot] of the band grid for the nu
planes.  Both true nu limits are concave on the rate-derivative band, so
every nu plane holds on the whole band: the upper limit is the minimum of
N_UPPER planes, and the lower limit is any one of N_LOWER planes, each above
the true lower limit everywhere.  The heat-demand model shares the
Magnani-Boyd alternation.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag
from scipy.optimize import linprog

from .process import Bounds, ProcessParams
from .transform import (T1_BRACKET, OperatingStrategy, RampingPoint, _flat_root,
                        _purge_weights, backtransform, bottom_flow, psi_Fp,
                        q1_affine_in_nu, theta_T1)

INF = float("inf")


# ---------------------------------------------------------------------------
# True limits on the first rate derivative
# ---------------------------------------------------------------------------

def rho_dot_limit_from_bound(rho: float, variable: str, bound_value: float,
                             strat: OperatingStrategy, p: ProcessParams) -> float:
    """Rate derivative at which `variable` sits exactly on `bound_value`;
    broadcasts over an array rho.

    T1 bounds evaluate the strategy's rate equation directly; Q2 bounds are
    inverted for T1 (linear); Fp bounds are one T1 root of psi_Fp.  Returns
    +/-inf where the bound cannot be attained at rho (it does not constrain
    there).
    """
    if variable == "T1":
        return theta_T1(rho, bound_value, strat, p)
    if variable == "Q2":
        FB = bottom_flow(rho, strat.pi4(rho), strat, p)
        T1 = strat.xi3_nom + (p.dHV * rho - bound_value) / (p.rhoF * p.Cp * (rho + FB))
        return theta_T1(rho, T1, strat, p)
    if variable == "Fp":
        T1 = _flat_root(bound_value, rho, _purge_weights(strat, p), strat, p)
        miss, lo = np.isnan(T1), T1_BRACKET[0]
        # out of reach: +inf where psi_Fp stays below the bound, -inf where
        # above; neither constrains
        unreached = np.where(psi_Fp(rho, lo, strat, p) < bound_value, INF, -INF)
        return np.where(miss, unreached, theta_T1(rho, np.where(miss, lo, T1), strat, p))[()]
    raise ValueError(f"unsupported variable {variable!r}")


_RD_SOURCES = (("T1", 0), ("T1", 1), ("Fp", 0), ("Fp", 1), ("Q2", 0), ("Q2", 1))


def true_rho_dot_limits(rho: float, strat: OperatingStrategy, p: ProcessParams,
                        b: Bounds) -> tuple[float, float, str, str]:
    """(lower, upper, lower_source, upper_source) of the feasible rate
    derivative at `rho`; an array rho gives arrays.  Steady operation (rate
    derivative zero) is feasible by construction of the strategy, so
    candidates below zero bound from below and candidates above zero from
    above."""
    cand = np.array([rho_dot_limit_from_bound(rho, var, getattr(b, var)[side], strat, p)
                     for var, side in _RD_SOURCES])
    neg, pos = np.where(cand < 0, cand, -INF), np.where(cand > 0, cand, INF)
    lo, hi = neg.max(axis=0), pos.min(axis=0)
    unbounded = ~(np.isfinite(lo) & np.isfinite(hi))
    if np.any(unbounded):
        rho_bad = np.broadcast_to(rho, lo.shape)[unbounded][0]
        raise RuntimeError(f"unbounded rate-derivative range at rho={rho_bad}")
    names = np.array([f"{var}_{'max' if side else 'min'}" for var, side in _RD_SOURCES])
    lo_src, hi_src = names[neg.argmax(axis=0)], names[pos.argmin(axis=0)]
    if np.ndim(rho) == 0:
        return float(lo), float(hi), str(lo_src), str(hi_src)
    return lo, hi, lo_src, hi_src


def nu_limits_true(rho: float, rho_dot: float, strat: OperatingStrategy,
                   p: ProcessParams, b: Bounds) -> tuple[float, float]:
    """True limits on the second rate derivative from the reactor duty
    bounds, via the affine relation Q1 = c0 + c1*nu; the orientation follows
    the sign of c1 rather than being assumed.  Broadcasts over arrays."""
    c0, c1, _ = q1_affine_in_nu(rho, rho_dot, strat, p)
    q_lo, q_hi = b.Q1
    if np.any(np.abs(c1) < 1e-12):
        raise RuntimeError(f"vanishing nu coefficient at rho={rho}, rho_dot={rho_dot}")
    nu_a = (q_lo - c0) / c1
    nu_b = (q_hi - c0) / c1
    return np.minimum(nu_a, nu_b), np.maximum(nu_a, nu_b)


def detect_regions(xs: np.ndarray, feasible: np.ndarray) -> list[tuple[float, float]]:
    """Maximal intervals of feasible samples along a 1-D scan."""
    xs = np.asarray(xs, dtype=float)
    feasible = np.asarray(feasible, dtype=bool)
    if len(xs) < 3:
        raise ValueError("detect_regions needs at least 3 samples")
    regions = []
    start = None
    for i, ok in enumerate(feasible):
        if ok and start is None:
            start = xs[i]
        elif not ok and start is not None:
            regions.append((start, xs[i - 1]))
            start = None
    if start is not None:
        regions.append((start, xs[-1]))
    return regions


def im_input_u2(rho: float, rho_dot: float, a: float, b: float) -> float:
    """Second input of the illustrative three-state model: quadratic in the
    rate derivative, so its bounds can carve two disjoint feasible regions."""
    return b * rho_dot - (a * rho_dot - rho) ** 2


# ---------------------------------------------------------------------------
# Conservative fits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearLimit:
    a0: float
    a1: float
    side: str                 # "lower" | "upper"
    source: str               # dominating bound, e.g. "Fp_min"
    margin: float = 0.0       # curvature margin applied during the fit

    def __call__(self, rho):
        return self.a0 + self.a1 * np.asarray(rho)


def _curvature_margin(values: np.ndarray, side: str, safety: float) -> float:
    """Margin covering the sagitta between nodes of a 2-D grid (an n x 1
    grid for a 1-D scan): midpoint deviation of a smooth function from its
    chord is bounded by the second difference / 8 along each axis.  Only
    curvature toward the feasible side needs a margin."""
    bad = [np.maximum(0.0, d2 if side == "upper" else -d2)
           for d2 in (np.diff(values, 2, axis=0), np.diff(values, 2, axis=1))]
    return safety * (float(bad[0].max(initial=0.0)) + float(bad[1].max(initial=0.0))) / 8.0


class EnvelopeFitError(RuntimeError):
    pass


def fit_rho_dot_limits(strat: OperatingStrategy, p: ProcessParams, b: Bounds,
                       n_grid: int = 51) -> tuple[LinearLimit, LinearLimit]:
    """Conservative linear limits (lower, upper) on the rate derivative.

    Per side, one line fitted by _fit_planes on the n_grid x 1 rho grid: as
    close to the true limit in total as conservativeness (with curvature
    margin) at every grid point allows.
    """
    rho = np.linspace(*b.rho, n_grid)
    los, his, lo_srcs, hi_srcs = true_rho_dot_limits(rho, strat, p, b)
    Z = np.column_stack([np.ones_like(rho), rho])[:, None]
    labels = np.zeros((n_grid, 1), dtype=int)
    limits = []
    for vals, srcs, side, sign in ((los, lo_srcs, "lower", -1.0), (his, hi_srcs, "upper", 1.0)):
        coef, margin = _fit_planes(Z, vals[:, None], side, labels, safety=1.5)
        a0, a1 = map(float, coef[0])
        # named after the bound it comes closest to
        src = str(srcs[np.argmin(sign * (vals - (a0 + a1 * rho)))])
        limits.append(LinearLimit(a0, a1, side, src, margin))
    return tuple(limits)


N_LOWER = 2   # lower nu planes; the MILP selects one per hour, ceil(log2 N_LOWER) binaries
N_UPPER = 4   # upper nu planes; nu lies below all of them, no binaries
PWA_FIT_MAX_ITER = 100


@dataclass(frozen=True)
class PwaSide:
    a0: float
    a_rho: float
    a_rho_dot: float

    def __call__(self, rho, rho_dot):
        return self.a0 + self.a_rho * np.asarray(rho) + self.a_rho_dot * np.asarray(rho_dot)


@dataclass(frozen=True)
class PwaEnvelope:
    """Piecewise-affine limits on the second rate derivative, each plane
    valid on the whole rate-derivative band.

    The true limits are concave on the band.  `upper` is a min-affine inner
    fit of the upper limit: nu lies below every upper plane.  Every `lower`
    plane lies above the true lower limit everywhere, so nu need only lie
    above one of them, chosen freely (in the scheduler by binary code,
    Vielma, SIAM Rev. 57, 2015).  The admissible band is therefore
    [min over lower, min over upper]."""

    lower: tuple
    upper: tuple
    # the benchmark gate reads this before its quadrant-segment fallback,
    # which whole-band planes never need
    n_segments = 1

    def nu_range(self, rho, rho_dot):
        """(lower, upper) limit on nu; broadcasts over array arguments."""
        return (np.min([pl(rho, rho_dot) for pl in self.lower], axis=0),
                np.min([pu(rho, rho_dot) for pu in self.upper], axis=0))


@dataclass
class CoverageReport:
    values: np.ndarray       # per-point coverage on the fitting grid
    mean: float
    min: float

    def summary(self) -> str:
        return f"coverage mean={self.mean:.3f} min={self.min:.3f}"


def _nu_grid(b: Bounds, lower: LinearLimit, upper: LinearLimit, n: int):
    """n x n grid over the rate-derivative band: rho along axis 0, the
    fraction of the band at that rho along axis 1."""
    rho = np.linspace(*b.rho, n)[:, None]
    frac = np.linspace(0.0, 1.0, n)[None, :]
    lo, hi = lower(rho), upper(rho)
    return np.broadcast_to(rho, (n, n)), lo + frac * (hi - lo)


def _true_nu_surfaces(R, D, strat, p, b):
    NLO, NHI = nu_limits_true(R, D, strat, p, b)
    if np.any(NLO >= NHI):
        raise EnvelopeFitError("true nu limits cross inside the band")
    return NLO, NHI


def _magnani_boyd(fit, score, labels: np.ndarray) -> np.ndarray:
    """Magnani-Boyd alternation (Optim. Eng. 10, 2009) for a max- or
    min-affine fit: `fit(labels)` returns one plane per label in use, then
    `score(planes) -> (value, labels)` relabels each point from the planes,
    lower value better.  A label left without points drops its plane.
    Stops at a labelling seen before or at the first iterate that does not
    improve, and returns the best planes."""
    seen, best, best_value = set(), None, INF
    for _ in range(PWA_FIT_MAX_ITER):
        seen.add(labels.tobytes())
        coef = fit(labels)
        value, labels = score(coef)
        if value >= best_value:
            return best
        best, best_value = coef, value
        if labels.tobytes() in seen:
            return best
    raise EnvelopeFitError(f"piecewise-affine fit did not settle in {PWA_FIT_MAX_ITER} "
                           "iterations")


def _cells_touching(mask: np.ndarray) -> np.ndarray:
    """Nodes of every grid cell with a node in `mask`: its 3 x 3 dilation."""
    pad = np.pad(mask, 1)
    n, m = mask.shape
    return np.any([pad[i:i + n, j:j + m] for i in range(3) for j in range(3)], axis=0)


def _blocks(m: int, k: int) -> np.ndarray:
    """Labels splitting an m x m grid into k blocks, as square as k allows
    and finer along axis 1."""
    rows = max(d for d in range(1, math.isqrt(k) + 1) if k % d == 0)
    i, j = np.indices((m, m))
    return (i * rows // m) * (k // rows) + j * (k // rows) // m


def _fit_planes(Z: np.ndarray, limit: np.ndarray, side: str, labels: np.ndarray,
                safety: float) -> tuple[np.ndarray, float]:
    """Conservative planes for one side of a limit sampled on a 2-D grid:
    one plane per label, coefficients on the columns of the design matrix
    Z (grid shape + (k,)), fitted in one block-diagonal LP per
    Magnani-Boyd round that pushes each plane toward the limit on its
    partition.  Returns (coefficients, one row per plane; curvature margin).

    A lower plane is at least the limit plus the curvature margin at every
    node; an upper plane is at most the limit minus the margin at every node
    of every cell that touches its partition, so each cell has one upper
    plane that holds at all four of its corners."""
    upper = side == "upper"
    sign = 1.0 if upper else -1.0
    margin = _curvature_margin(limit, side, safety)
    bound = (limit - sign * margin).ravel()
    shape, Z = limit.shape, Z.reshape(limit.size, -1)

    def fit(labels):
        c, blocks, rhs = [], [], []
        for k in np.unique(labels):
            mask = labels == k
            rows = _cells_touching(mask.reshape(shape)).ravel() if upper else slice(None)
            c.append(-sign * Z[mask].sum(axis=0))
            blocks.append(sign * Z[rows])
            rhs.append(sign * bound[rows])
        res = linprog(np.concatenate(c), A_ub=block_diag(*blocks), b_ub=np.concatenate(rhs),
                      bounds=(None, None), method="highs")
        if not res.success:
            raise EnvelopeFitError(f"{side} limit fit infeasible: {res.message}")
        return res.x.reshape(len(c), -1)

    def score(coef):
        v = Z @ coef.T
        return -sign * float(v.min(axis=1).sum()), np.argmin(v, axis=1)

    return _magnani_boyd(fit, score, labels.ravel()), margin


def fit_nu_pwa(strat: OperatingStrategy, p: ProcessParams, b: Bounds,
               lower: LinearLimit, upper: LinearLimit, n_grid: int = 51
               ) -> tuple[PwaEnvelope, CoverageReport]:
    """Fit conservative piecewise-affine limits for the second rate
    derivative over the fitted rate-derivative band: N_LOWER lower and
    N_UPPER upper planes, each valid on the whole band.

    The planes are fitted on the (n_grid // 2 + 1)^2 grid of the band, with
    its curvature margin guarding points between grid nodes; coverage, the
    fitted band width over the true one, is evaluated on the n_grid^2 grid."""
    m = n_grid // 2 + 1
    R, D = _nu_grid(b, lower, upper, m)
    NLO, NHI = _true_nu_surfaces(R, D, strat, p, b)
    Z = np.stack([np.ones_like(R), R, D], axis=-1)
    lower_coef, _ = _fit_planes(Z, NLO, "lower", _blocks(m, N_LOWER), safety=2.0)
    upper_coef, _ = _fit_planes(Z, NHI, "upper", _blocks(m, N_UPPER), safety=2.0)
    env = PwaEnvelope(lower=tuple(PwaSide(*map(float, row)) for row in lower_coef),
                      upper=tuple(PwaSide(*map(float, row)) for row in upper_coef))
    R, D = _nu_grid(b, lower, upper, n_grid)
    NLO, NHI = _true_nu_surfaces(R, D, strat, p, b)
    lo, hi = env.nu_range(R, D)
    cov = (hi - lo) / (NHI - NLO)
    return env, CoverageReport(cov, float(cov.mean()), float(cov.min()))


# ---------------------------------------------------------------------------
# Ramping envelope artifact
# ---------------------------------------------------------------------------

@dataclass
class RampingEnvelope:
    rho_bounds: tuple[float, float]
    rho_nom: float
    rd_lower: LinearLimit
    rd_upper: LinearLimit
    nu_pwa: PwaEnvelope
    coverage: CoverageReport
    fingerprint: str

    def rho_dot_range(self, rho: float) -> tuple[float, float]:
        return float(self.rd_lower(rho)), float(self.rd_upper(rho))

    def nu_range(self, rho: float, rho_dot: float) -> tuple[float, float]:
        return self.nu_pwa.nu_range(rho, rho_dot)

    def rho_dot_box(self) -> tuple[float, float]:
        r = np.array(self.rho_bounds)
        return float(min(self.rd_lower(r).min(), 0.0)), \
            float(max(self.rd_upper(r).max(), 0.0))

    def nu_box(self) -> tuple[float, float]:
        planes = self.nu_pwa.lower + self.nu_pwa.upper
        corners = [float(pl(rho, rd)) for rho in self.rho_bounds
                   for rd in self.rho_dot_box() for pl in planes]
        return min(corners), max(corners)

    def contains(self, rho: float, rho_dot: float, nu: float,
                 tol: float = 1e-9) -> bool:
        lo, hi = self.rho_bounds
        if not lo - tol <= rho <= hi + tol:
            return False
        rl, rh = self.rho_dot_range(rho)
        if not rl - tol <= rho_dot <= rh + tol:
            return False
        nl, nh = self.nu_range(rho, rho_dot)
        return nl - tol <= nu <= nh + tol


def _fingerprint(*parts) -> str:
    """Digest of the reprs of `parts`."""
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def derive_envelope(strat: OperatingStrategy, p: ProcessParams, b: Bounds,
                    n_grid: int = 51) -> RampingEnvelope:
    """Envelope fingerprinted by the strategy, plant and bounds it is fitted
    from together with its own fitted limits and planes."""
    lower, upper = fit_rho_dot_limits(strat, p, b, n_grid)
    pwa, cov = fit_nu_pwa(strat, p, b, lower, upper, n_grid)
    return RampingEnvelope(b.rho, b.rho_nom, lower, upper, pwa, cov,
                           _fingerprint(strat, p, b, b.rho, b.rho_nom, lower, upper, pwa))


# ---------------------------------------------------------------------------
# Heat-demand model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DemandSide:
    c0: float
    c_rho: float
    c_rho_dot: float
    c_nu: float

    def __call__(self, rho, rho_dot, nu):
        return (self.c0 + self.c_rho * np.asarray(rho)
                + self.c_rho_dot * np.asarray(rho_dot) + self.c_nu * np.asarray(nu))


@dataclass
class PwaDemandModel:
    """Convex piecewise-affine process heat demand in kJ/h over
    (rho, rho_dot, nu): the maximum over a few planes.

    The scheduler models it as the epigraph `q_dem >= plane` for every plane,
    which equals the maximum only while heat beyond the process demand never
    pays (as when CHP electricity earns more than its gas costs);
    `scheduler.extract_result` raises when a solution leaves surplus.  Mean
    absolute errors are relative to the nominal steady demand;
    `mae_single_rel` is the one-plane least-squares baseline."""

    planes: tuple
    q_nominal: float
    mae_single_rel: float
    mae_pwa_rel: float
    fingerprint: str

    def predict(self, rho, rho_dot, nu):
        """Maximum plane value; broadcasts over array arguments."""
        return np.max([pl(rho, rho_dot, nu) for pl in self.planes], axis=0)


def fit_demand_pwa(strat: OperatingStrategy, p: ProcessParams, b: Bounds,
                   env: RampingEnvelope, n: int = 11) -> PwaDemandModel:
    """Fit the process heat demand Q1+Q2 on an n^3 grid nested inside the
    envelope (corners with an empty nu band skipped; every other point must
    backtransform, or the envelope is at fault and the call raises
    OutsideFlatRegionError) as the maximum of four planes, by
    Magnani-Boyd alternation (Optim. Eng. 10, 2009): starting from the split
    at rho_dot = 0 and nu = 0, fit each partition by least squares, then give
    each point to its largest plane, while the squared error falls."""
    R, D = _nu_grid(b, env.rd_lower, env.rd_upper, n)
    nl, nh = env.nu_range(R, D)
    keep = nl <= nh
    nu = nl[keep, None] + np.linspace(0.0, 1.0, n) * (nh - nl)[keep, None]
    pts = np.column_stack([np.repeat(R[keep], n), np.repeat(D[keep], n), nu.ravel()])
    _, u = backtransform(RampingPoint(*pts.T), strat, p)
    q = u.Q1 + u.Q2
    _, u_nom = backtransform(RampingPoint(b.rho_nom, 0.0, 0.0), strat, p)
    q_nom = u_nom.Q1 + u_nom.Q2
    A = np.column_stack([np.ones(len(q)), pts])

    def ls(mask) -> np.ndarray:
        return np.linalg.lstsq(A[mask], q[mask], rcond=None)[0]

    mae_single = float(np.mean(np.abs(A @ ls(slice(None)) - q))) / q_nom

    def score(coef):
        fit = A @ coef.T
        return float(np.sum((fit.max(axis=1) - q) ** 2)), np.argmax(fit, axis=1)

    def fit(labels):
        return np.array([ls(labels == k) for k in np.unique(labels)])

    coef = _magnani_boyd(fit, score, 2 * (pts[:, 1] >= 0) + (pts[:, 2] >= 0))
    fit = A @ coef.T
    mae_pwa = float(np.mean(np.abs(fit.max(axis=1) - q))) / q_nom
    return PwaDemandModel(planes=tuple(DemandSide(*[float(c) for c in row]) for row in coef),
                          q_nominal=float(q_nom), mae_single_rel=mae_single,
                          mae_pwa_rel=mae_pwa, fingerprint=env.fingerprint)


# ---------------------------------------------------------------------------
# Linear closed-loop (set-point filter) comparison
# ---------------------------------------------------------------------------

def sbm_limits(rho: float, tau: float, rho_sp_min: float,
               rho_sp_max: float) -> tuple[float, float]:
    """Rate-derivative band of a first-order set-point-tracking surrogate."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    return (rho_sp_min - rho) / tau, (rho_sp_max - rho) / tau


def max_tau(strat: OperatingStrategy, p: ProcessParams, b: Bounds,
            n_grid: int = 51) -> float:
    """Smallest time constant whose surrogate band stays inside the true
    rate-derivative limits at every grid point.

    The band (rho_min - rho)/tau .. (rho_max - rho)/tau lies inside
    lower(rho) < 0 < upper(rho) exactly when tau is at least
    (rho_min - rho)/lower(rho) and (rho_max - rho)/upper(rho), so tau is the
    largest of those ratios over the grid."""
    rho = np.linspace(*b.rho, n_grid)
    lower, upper, *_ = true_rho_dot_limits(rho, strat, p, b)
    return float(max(np.max((b.rho[0] - rho) / lower), np.max((b.rho[1] - rho) / upper)))
