"""Dynamic ramping envelopes: true nonlinear limits, conservative fits,
heat-demand model, and the linear closed-loop (set-point filter) comparison.

The first rate derivative is limited by the bounds of the variables that
respond to it (T1, Fp, Q2); the second derivative nu is limited by the
reactor duty bounds through the affine relation Q1(nu).  True limits are
evaluated by inverting the backtransformation; conservative linear and
piecewise-affine approximations are fitted by linear programming with
per-point conservativeness constraints plus a curvature margin so that the
guarantee survives grid refinement.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, linprog

from .process import Bounds, ProcessParams
from .transform import (T1_BRACKET, OperatingStrategy, RampingPoint,
                        backtransform, bottom_flow, psi_Fp, q1_affine_in_nu,
                        theta_T1)

INF = float("inf")


# ---------------------------------------------------------------------------
# True limits on the first rate derivative
# ---------------------------------------------------------------------------

def rho_dot_limit_from_bound(rho: float, variable: str, bound_value: float,
                             strat: OperatingStrategy, p: ProcessParams) -> float:
    """Rate derivative at which `variable` sits exactly on `bound_value`.

    T1 bounds evaluate the strategy's rate equation directly; Q2 bounds are
    inverted for T1 (linear); Fp bounds require a numeric root solve.
    Returns +/-inf when the bound cannot be attained at this rho (it does
    not constrain there).
    """
    if variable == "T1":
        return theta_T1(rho, bound_value, strat, p)
    if variable == "Q2":
        FB = bottom_flow(rho, strat.pi4(rho), strat, p)
        T1 = strat.xi3_nom + (p.dHV * rho - bound_value) / (p.rhoF * p.Cp * (rho + FB))
        return theta_T1(rho, T1, strat, p)
    if variable == "Fp":
        def f(T1):
            return psi_Fp(rho, T1, strat, p) - bound_value
        lo, hi = T1_BRACKET
        if f(lo) * f(hi) > 0:
            # bound not reachable: report a non-constraining sentinel
            return INF if f(lo) < 0 else -INF
        T1 = brentq(f, lo, hi, xtol=1e-10, rtol=1e-14)
        return theta_T1(rho, T1, strat, p)
    raise ValueError(f"unsupported variable {variable!r}")


_RD_SOURCES = (("T1", 0), ("T1", 1), ("Fp", 0), ("Fp", 1), ("Q2", 0), ("Q2", 1))


def true_rho_dot_limits(rho: float, strat: OperatingStrategy, p: ProcessParams,
                        b: Bounds) -> tuple[float, float, str, str]:
    """(lower, upper, lower_source, upper_source) of the feasible rate
    derivative at `rho`.  Steady operation (rate derivative zero) is feasible
    by construction of the strategy, so candidates below zero bound from
    below and candidates above zero from above."""
    lo, lo_src = -INF, "none"
    hi, hi_src = INF, "none"
    for var, side in _RD_SOURCES:
        bound = getattr(b, var)[side]
        cand = rho_dot_limit_from_bound(rho, var, bound, strat, p)
        name = f"{var}_{'max' if side else 'min'}"
        if 0 > cand > lo:
            lo, lo_src = cand, name
        elif 0 < cand < hi:
            hi, hi_src = cand, name
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise RuntimeError(f"unbounded rate-derivative range at rho={rho}")
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


def _curvature_margin(values: np.ndarray, side: str, axis: int | None = None,
                      safety: float = 1.5) -> float:
    """Margin covering the sagitta between grid points: midpoint deviation of
    a smooth function from its chord is bounded by the second difference / 8.
    Only curvature toward the feasible side needs a margin."""
    v = np.asarray(values, dtype=float)
    if v.ndim == 1:
        d2 = np.diff(v, 2)
        bad = np.maximum(0.0, d2 if side == "upper" else -d2)
        return safety * float(bad.max(initial=0.0)) / 8.0
    d2a = np.diff(v, 2, axis=0)
    d2b = np.diff(v, 2, axis=1)
    bad_a = np.maximum(0.0, d2a if side == "upper" else -d2a)
    bad_b = np.maximum(0.0, d2b if side == "upper" else -d2b)
    return safety * (float(bad_a.max(initial=0.0)) + float(bad_b.max(initial=0.0))) / 8.0


class EnvelopeFitError(RuntimeError):
    pass


def fit_rho_dot_limits(strat: OperatingStrategy, p: ProcessParams, b: Bounds,
                       n_grid: int = 51,
                       dominate: tuple[np.ndarray, np.ndarray] | None = None
                       ) -> tuple[LinearLimit, LinearLimit, dict]:
    """Conservative linear limits on the rate derivative.

    Per side, a linear program minimizes the total gap to the true limit
    subject to conservativeness (with curvature margin) at every grid point.
    `dominate` optionally supplies per-grid-point (lower, upper) values the
    fit must enclose, used to show the fit can cover a set-point-filter
    parallelogram.
    """
    rho = np.linspace(*b.rho, n_grid)
    los, his, lo_srcs, hi_srcs = [], [], [], []
    for r in rho:
        lo, hi, ls, hs = true_rho_dot_limits(r, strat, p, b)
        if lo >= hi:
            raise EnvelopeFitError(f"true rate-derivative limits cross at rho={r}")
        los.append(lo)
        his.append(hi)
        lo_srcs.append(ls)
        hi_srcs.append(hs)
    los, his = np.array(los), np.array(his)

    def fit_side(vals: np.ndarray, side: str, extra: np.ndarray | None) -> tuple[float, float, float]:
        margin = _curvature_margin(vals, side)
        sign = 1.0 if side == "upper" else -1.0
        # maximize sum(a0 + a1*rho_i) for the upper side (minimize negative),
        # subject to a0 + a1*rho_i <= vals_i - margin
        A = np.column_stack([np.ones_like(rho), rho])
        c = -sign * A.sum(axis=0)
        A_ub = sign * A
        b_ub = sign * vals - margin
        if extra is not None:
            A_ub = np.vstack([A_ub, -sign * A])
            b_ub = np.concatenate([b_ub, -sign * extra])
        res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=[(None, None)] * 2,
                      method="highs")
        if not res.success:
            raise EnvelopeFitError(f"{side} rate-limit fit infeasible: {res.message}")
        return float(res.x[0]), float(res.x[1]), margin

    dom_lo = dominate[0] if dominate else None
    dom_hi = dominate[1] if dominate else None
    a0l, a1l, ml = fit_side(los, "lower", dom_lo)
    a0u, a1u, mu = fit_side(his, "upper", dom_hi)
    fit_lo = a0l + a1l * rho
    fit_hi = a0u + a1u * rho
    src_lo = lo_srcs[int(np.argmin(fit_lo - los))]
    src_hi = hi_srcs[int(np.argmin(his - fit_hi))]
    lower = LinearLimit(a0l, a1l, "lower", src_lo, ml)
    upper = LinearLimit(a0u, a1u, "upper", src_hi, mu)
    grid = dict(rho=rho, true_lower=los, true_upper=his,
                lower_sources=lo_srcs, upper_sources=hi_srcs)
    return lower, upper, grid


SEGMENT_KEYS = ((False, False), (False, True), (True, False), (True, True))


@dataclass(frozen=True)
class PwaSide:
    a0: float
    a_rho: float
    a_rho_dot: float

    def __call__(self, rho, rho_dot):
        return self.a0 + self.a_rho * np.asarray(rho) + self.a_rho_dot * np.asarray(rho_dot)


@dataclass(frozen=True)
class PwaEnvelope:
    """Piecewise-affine limits on the second rate derivative.

    Segments are indexed by (rho above nominal, rate derivative above zero);
    selection in the scheduling problem uses one binary per split.  Each
    segment's planes are fitted conservatively over its own quadrant.  With
    n_segments = 1 a single affine pair covers the whole band.
    """

    rho_nom: float
    n_segments: int
    seg_min: dict
    seg_max: dict

    def key(self, rho: float, rho_dot: float) -> tuple[bool, bool]:
        if self.n_segments == 1:
            return (False, False)
        return (rho >= self.rho_nom, rho_dot >= 0.0)

    def nu_range(self, rho: float, rho_dot: float) -> tuple[float, float]:
        k = self.key(rho, rho_dot)
        return (float(self.seg_min[k](rho, rho_dot)),
                float(self.seg_max[k](rho, rho_dot)))


@dataclass
class CoverageReport:
    values: np.ndarray       # per-point coverage on the fitting grid
    mean: float
    min: float

    def summary(self) -> str:
        return f"coverage mean={self.mean:.3f} min={self.min:.3f}"


def _nu_grid(strat, p, b, lower: LinearLimit, upper: LinearLimit, n: int):
    rho = np.linspace(*b.rho, n)
    frac = np.linspace(0.0, 1.0, n)
    R = np.repeat(rho, n).reshape(n, n)
    D = np.empty((n, n))
    for i, r in enumerate(rho):
        lo, hi = float(lower(r)), float(upper(r))
        D[i] = lo + frac * (hi - lo)
    return R, D


def _fit_nu_segment(R: np.ndarray, D: np.ndarray, NLO: np.ndarray,
                    NHI: np.ndarray) -> tuple[PwaSide, PwaSide]:
    """Joint LP for one segment: hug the true limits from inside, keep a
    strictly positive band width."""
    m_lo = _curvature_margin(NLO, "lower", safety=2.0)
    m_hi = _curvature_margin(NHI, "upper", safety=2.0)
    z = np.column_stack([np.ones(R.size), R.ravel(), D.ravel()])
    lo_v, hi_v = NLO.ravel(), NHI.ravel()
    # variables [amin(3), amax(3)]
    c = np.concatenate([z.sum(axis=0), -z.sum(axis=0)])
    A_ub = np.vstack([
        np.hstack([-z, np.zeros_like(z)]),    # amin >= lo + margin
        np.hstack([np.zeros_like(z), z]),     # amax <= hi - margin
        np.hstack([z, -z]),                   # amin <= amax - eps
    ])
    b_ub = np.concatenate([-(lo_v + m_lo), hi_v - m_hi,
                           -1e-9 * np.ones(z.shape[0])])
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=[(None, None)] * 6,
                  method="highs")
    if not res.success:
        raise EnvelopeFitError(f"nu fit infeasible: {res.message}")
    return (PwaSide(*[float(v) for v in res.x[:3]]),
            PwaSide(*[float(v) for v in res.x[3:]]))


def _true_nu_surfaces(R, D, strat, p, b):
    NLO, NHI = nu_limits_true(R, D, strat, p, b)
    if np.any(NLO >= NHI):
        raise EnvelopeFitError("true nu limits cross inside the band")
    return NLO, NHI


def fit_nu_pwa(strat: OperatingStrategy, p: ProcessParams, b: Bounds,
               lower: LinearLimit, upper: LinearLimit, n_grid: int = 51,
               segments: int = 4) -> tuple[PwaEnvelope, CoverageReport]:
    """Fit conservative piecewise-affine limits for the second rate
    derivative over the fitted rate-derivative band.

    Each segment is fit on its own regular grid spanning its quadrant, with
    a curvature margin guarding points between grid nodes.  Coverage is
    evaluated on the common n x n grid with strict segment selection."""
    if segments not in (1, 4):
        raise ValueError("segments must be 1 or 4")
    rho_nom = b.rho_nom
    rho_lo, rho_hi = b.rho
    seg_min, seg_max = {}, {}
    if segments == 1:
        R, D = _nu_grid(strat, p, b, lower, upper, n_grid)
        NLO, NHI = _true_nu_surfaces(R, D, strat, p, b)
        smin, smax = _fit_nu_segment(R, D, NLO, NHI)
        seg_min[(False, False)] = smin
        seg_max[(False, False)] = smax
    else:
        m = n_grid // 2 + 1
        for key in SEGMENT_KEYS:
            rho_seg = np.linspace(*((rho_nom, rho_hi) if key[0] else (rho_lo, rho_nom)), m)
            R = np.repeat(rho_seg, m).reshape(m, m)
            D = np.empty((m, m))
            for i, r in enumerate(rho_seg):
                lo_r, hi_r = float(lower(r)), float(upper(r))
                if key[1]:
                    D[i] = np.linspace(max(lo_r, 0.0), hi_r, m)
                else:
                    D[i] = np.linspace(lo_r, min(hi_r, 0.0), m)
            NLO, NHI = _true_nu_surfaces(R, D, strat, p, b)
            seg_min[key], seg_max[key] = _fit_nu_segment(R, D, NLO, NHI)
    env = PwaEnvelope(rho_nom=rho_nom, n_segments=segments,
                      seg_min=seg_min, seg_max=seg_max)
    R, D = _nu_grid(strat, p, b, lower, upper, n_grid)
    NLO, NHI = _true_nu_surfaces(R, D, strat, p, b)
    cov = np.empty_like(R)
    for i in range(n_grid):
        for j in range(n_grid):
            plo, phi = env.nu_range(R[i, j], D[i, j])
            cov[i, j] = (phi - plo) / (NHI[i, j] - NLO[i, j])
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
    fingerprint: str = ""

    def rho_dot_range(self, rho: float) -> tuple[float, float]:
        return float(self.rd_lower(rho)), float(self.rd_upper(rho))

    def nu_range(self, rho: float, rho_dot: float) -> tuple[float, float]:
        return self.nu_pwa.nu_range(rho, rho_dot)

    def rho_dot_box(self) -> tuple[float, float]:
        r = np.array(self.rho_bounds)
        return float(min(self.rd_lower(r).min(), 0.0)), \
            float(max(self.rd_upper(r).max(), 0.0))

    def nu_box(self) -> tuple[float, float]:
        corners = []
        rd_box = self.rho_dot_box()
        for rho in self.rho_bounds:
            for rd in rd_box:
                for seg in self.nu_pwa.seg_min.values():
                    corners.append(float(seg(rho, rd)))
                for seg in self.nu_pwa.seg_max.values():
                    corners.append(float(seg(rho, rd)))
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


def _side_doc(s: PwaSide) -> dict:
    return {"a0": s.a0, "a_rho": s.a_rho, "a_rho_dot": s.a_rho_dot}


def envelope_to_json(env: RampingEnvelope, path) -> None:
    doc = {
        "rho_bounds": list(env.rho_bounds),
        "rho_nom": env.rho_nom,
        "rd_lower": vars(env.rd_lower).copy(),
        "rd_upper": vars(env.rd_upper).copy(),
        "n_segments": env.nu_pwa.n_segments,
        "segments": {
            f"{int(k[0])}{int(k[1])}": {"min": _side_doc(env.nu_pwa.seg_min[k]),
                                        "max": _side_doc(env.nu_pwa.seg_max[k])}
            for k in env.nu_pwa.seg_min
        },
        "coverage_mean": env.coverage.mean,
        "coverage_min": env.coverage.min,
        "fingerprint": env.fingerprint,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def envelope_from_json(path) -> RampingEnvelope:
    with open(path) as fh:
        doc = json.load(fh)
    seg_min, seg_max = {}, {}
    for ks, sides in doc["segments"].items():
        key = (bool(int(ks[0])), bool(int(ks[1])))
        seg_min[key] = PwaSide(**sides["min"])
        seg_max[key] = PwaSide(**sides["max"])
    pwa = PwaEnvelope(rho_nom=doc["rho_nom"], n_segments=doc["n_segments"],
                      seg_min=seg_min, seg_max=seg_max)
    cov = CoverageReport(np.zeros((0, 0)), doc["coverage_mean"], doc["coverage_min"])
    return RampingEnvelope(tuple(doc["rho_bounds"]), doc["rho_nom"],
                           LinearLimit(**doc["rd_lower"]),
                           LinearLimit(**doc["rd_upper"]),
                           pwa, cov, doc.get("fingerprint", ""))


def strategy_fingerprint(strat: OperatingStrategy, p: ProcessParams) -> str:
    blob = repr(strat) + repr(p)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def derive_envelope(strat: OperatingStrategy, p: ProcessParams, b: Bounds,
                    n_grid: int = 51, segments: int = 4) -> RampingEnvelope:
    lower, upper, _ = fit_rho_dot_limits(strat, p, b, n_grid)
    pwa, cov = fit_nu_pwa(strat, p, b, lower, upper, n_grid, segments)
    return RampingEnvelope(b.rho, b.rho_nom, lower, upper, pwa, cov,
                           strategy_fingerprint(strat, p))


# ---------------------------------------------------------------------------
# Heat-demand model
# ---------------------------------------------------------------------------

DEMAND_FIT_MAX_ITER = 100


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
    fingerprint: str = ""

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
    each point to its largest plane, until no point moves.  A plane left
    without points is dropped."""
    rho_g = np.linspace(*b.rho, n)
    frac = np.linspace(0.0, 1.0, n)
    pts = []
    for rho in rho_g:
        rl, rh = env.rho_dot_range(rho)
        for fr in frac:
            rd = rl + fr * (rh - rl)
            nl, nh = env.nu_range(rho, rd)
            if nl <= nh:
                pts += [(rho, rd, nl + fn * (nh - nl)) for fn in frac]
    pts = np.array(pts)
    _, u = backtransform(RampingPoint(*pts.T), strat, p)
    q = u.Q1 + u.Q2
    _, u_nom = backtransform(RampingPoint(b.rho_nom, 0.0, 0.0), strat, p)
    q_nom = u_nom.Q1 + u_nom.Q2
    A = np.column_stack([np.ones(len(q)), pts])

    def ls(mask) -> np.ndarray:
        return np.linalg.lstsq(A[mask], q[mask], rcond=None)[0]

    mae_single = float(np.mean(np.abs(A @ ls(slice(None)) - q))) / q_nom

    labels = 2 * (pts[:, 1] >= 0) + (pts[:, 2] >= 0)
    for _ in range(DEMAND_FIT_MAX_ITER):
        coef = np.array([ls(labels == k) for k in np.unique(labels)])
        fit = A @ coef.T
        new = np.argmax(fit, axis=1)
        if np.array_equal(new, labels):
            break
        labels = new
    else:
        raise EnvelopeFitError(f"demand fit did not settle in {DEMAND_FIT_MAX_ITER} "
                               "iterations")
    mae_pwa = float(np.mean(np.abs(fit.max(axis=1) - q))) / q_nom
    return PwaDemandModel(planes=tuple(DemandSide(*[float(c) for c in row]) for row in coef),
                          q_nominal=float(q_nom), mae_single_rel=mae_single,
                          mae_pwa_rel=mae_pwa, fingerprint=env.fingerprint)


def demand_to_json(model: PwaDemandModel, path) -> None:
    doc = {
        "planes": [vars(s).copy() for s in model.planes],
        "q_nominal": model.q_nominal,
        "mae_single_rel": model.mae_single_rel,
        "mae_pwa_rel": model.mae_pwa_rel,
        "fingerprint": model.fingerprint,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def demand_from_json(path) -> PwaDemandModel:
    with open(path) as fh:
        doc = json.load(fh)
    return PwaDemandModel(
        planes=tuple(DemandSide(**v) for v in doc["planes"]),
        q_nominal=doc["q_nominal"], mae_single_rel=doc["mae_single_rel"],
        mae_pwa_rel=doc["mae_pwa_rel"], fingerprint=doc.get("fingerprint", ""))


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
    rate-derivative limits at every grid point (bisection on tau)."""
    rho = np.linspace(*b.rho, n_grid)
    true = [true_rho_dot_limits(r, strat, p, b)[:2] for r in rho]
    sp_lo, sp_hi = b.rho

    def contained(tau: float) -> bool:
        for r, (lo, hi) in zip(rho, true):
            s_lo, s_hi = sbm_limits(r, tau, sp_lo, sp_hi)
            if s_lo < lo - 1e-12 or s_hi > hi + 1e-12:
                return False
        return True

    lo_t, hi_t = 1e-3, 1e4
    if not contained(hi_t):
        raise RuntimeError("no admissible time constant found")
    for _ in range(200):
        mid = 0.5 * (lo_t + hi_t)
        if contained(mid):
            hi_t = mid
        else:
            lo_t = mid
    return hi_t
