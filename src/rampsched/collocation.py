"""Orthogonal collocation on finite elements with Radau nodes.

Radau points include the right element endpoint, so element-boundary
continuity reduces to sharing the endpoint variable with the next element's
start.  The differentiation matrix expresses state derivatives at the
collocation points from the element's node values; the quadrature weights
integrate polynomials of degree 2K-2 exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
from numpy.polynomial import polynomial as P

_RADAU = {
    2: (1.0 / 3.0, 1.0),
    3: ((4.0 - np.sqrt(6.0)) / 10.0, (4.0 + np.sqrt(6.0)) / 10.0, 1.0),
}


def radau_points(pts: int) -> np.ndarray:
    if pts not in _RADAU:
        raise ValueError("pts must be 2 or 3")
    return np.array(_RADAU[pts])


def _lagrange_coeffs(nodes: np.ndarray, i: int) -> np.ndarray:
    c = np.array([1.0])
    for k, xk in enumerate(nodes):
        if k == i:
            continue
        c = P.polymul(c, np.array([-xk, 1.0]))
        c /= (nodes[i] - xk)
    return c


@cache
def diff_matrix(pts: int) -> np.ndarray:
    """D[j, i] = dL_i/dtau at collocation point j, nodes = [0, tau_1..K];
    built once per `pts` and read-only."""
    tau = radau_points(pts)
    nodes = np.concatenate([[0.0], tau])
    D = np.empty((pts, pts + 1))
    for i in range(pts + 1):
        dcoef = P.polyder(_lagrange_coeffs(nodes, i))
        for j, tj in enumerate(tau):
            D[j, i] = P.polyval(tj, dcoef)
    D.setflags(write=False)
    return D


@cache
def quad_weights(pts: int) -> np.ndarray:
    """Weights over the collocation points with int_0^1 f = sum w_j f(tau_j);
    built once per `pts` and read-only."""
    tau = radau_points(pts)
    w = np.array([P.polyval(1.0, P.polyint(_lagrange_coeffs(tau, j))) for j in range(pts)])
    w.setflags(write=False)
    return w


@dataclass(frozen=True)
class CollocationGrid:
    horizon: float
    elems_per_hour: int
    pts: int

    @property
    def n_elem(self) -> int:
        return int(round(self.horizon * self.elems_per_hour))

    @property
    def h(self) -> float:
        return 1.0 / self.elems_per_hour

    # built once per grid: every collocation row reads D
    @cached_property
    def tau(self) -> np.ndarray:
        return radau_points(self.pts)

    @cached_property
    def D(self) -> np.ndarray:
        return diff_matrix(self.pts)

    @cached_property
    def weights(self) -> np.ndarray:
        return quad_weights(self.pts)

    def all_times(self) -> np.ndarray:
        """t = 0 plus every collocation point time (e + tau_j) * h, increasing."""
        return np.r_[0.0, ((np.arange(self.n_elem)[:, None] + self.tau) * self.h).ravel()]


def collocation_grid(horizon: float, elems_per_hour: int,
                     pts: int) -> CollocationGrid:
    if pts not in (2, 3):
        raise ValueError("pts must be 2 or 3")
    if horizon <= 0 or elems_per_hour <= 0:
        raise ValueError("horizon and elems_per_hour must be positive")
    if abs(round(horizon * elems_per_hour) - horizon * elems_per_hour) > 1e-9:
        raise ValueError("horizon must be a whole number of elements")
    return CollocationGrid(float(horizon), int(elems_per_hour), int(pts))
