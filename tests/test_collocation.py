import numpy as np
import pytest

from rampsched import collocation
from rampsched.collocation import collocation_grid, diff_matrix, quad_weights, radau_points
from rampsched.scheduler import ramp_problem


@pytest.mark.parametrize("pts", [2, 3])
def test_diff_matrix_exact_up_to_degree_pts(pts):
    tau = radau_points(pts)
    nodes = np.concatenate([[0.0], tau])
    D = diff_matrix(pts)
    for deg in range(pts + 1):
        assert D @ nodes ** deg == pytest.approx(deg * tau ** max(deg - 1, 0), abs=1e-12)


@pytest.mark.parametrize("pts", [2, 3])
def test_quad_weights_exact_up_to_degree_2pts_minus_2(pts):
    tau, w = radau_points(pts), quad_weights(pts)
    for deg in range(2 * pts - 1):
        assert w @ tau ** deg == pytest.approx(1.0 / (deg + 1), abs=1e-14)
    # one degree more is beyond Radau quadrature
    assert abs(w @ tau ** (2 * pts - 1) - 1.0 / (2 * pts)) > 1e-3


@pytest.mark.parametrize("horizon, elems_per_hour, pts, match", [
    (2.0, 1, 4, "pts must be 2 or 3"),
    (0.0, 1, 2, "must be positive"),
    (-1.0, 1, 2, "must be positive"),
    (2.5, 1, 2, "whole number of elements"),
    (1.3, 2, 2, "whole number of elements"),
])
def test_collocation_grid_rejects(horizon, elems_per_hour, pts, match):
    with pytest.raises(ValueError, match=match):
        collocation_grid(horizon, elems_per_hour, pts)


@pytest.mark.parametrize("horizon, elems_per_hour, pts", [
    (2.5, 10, 2), (8 / 3, 3, 3), (24.0, 2, 2), (4.0, 5, 3)])
def test_all_times_are_the_collocation_points(horizon, elems_per_hour, pts):
    """t = 0, then (e + tau_j) * h for every element e and point j, bitwise."""
    g = collocation_grid(horizon, elems_per_hour, pts)
    points = [(e + g.tau[j]) * g.h for e in range(g.n_elem) for j in range(pts)]
    assert g.all_times().tolist() == [0.0, *points]


def test_grid_builds_its_matrices_once(envelope, monkeypatch):
    calls = []

    def counted(fn):
        def wrapper(pts):
            calls.append(fn.__name__)
            return fn(pts)
        return wrapper

    monkeypatch.setattr(collocation, "diff_matrix", counted(diff_matrix))
    monkeypatch.setattr(collocation, "quad_weights", counted(quad_weights))
    ramp_problem("up", envelope, 2.5, elem_h=0.1)
    assert sorted(calls) == ["diff_matrix", "quad_weights"]


@pytest.mark.parametrize("pts", [2, 3])
def test_radau_matrices_built_once_per_pts_and_read_only(pts):
    g1, g2 = collocation_grid(1.0, 2, pts), collocation_grid(3.0, 5, pts)
    assert g1.D is g2.D is diff_matrix(pts)
    assert g1.weights is g2.weights is quad_weights(pts)
    for a in (g1.D, g1.weights):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0
