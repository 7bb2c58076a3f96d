import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rampsched import milp as milp_module
from rampsched.milp import (INF, MixedIntegerProgram, Solution,
                            branch_and_bound, check_solution, export_mps,
                            import_mps, simplex_solve, write_solution_csv)


def small_lp(c, A, b, ub, senses=None):
    mip = MixedIntegerProgram()
    n = len(c)
    for j in range(n):
        mip.add_variable(f"x{j}", 0.0, ub[j])
    for i, row in enumerate(A):
        sense = "<=" if senses is None else senses[i]
        mip.add_constraint({j: row[j] for j in range(n) if row[j] != 0},
                           sense, b[i])
    mip.set_objective({j: c[j] for j in range(n)})
    return mip


def enumerate_vertices(c, A, b, ub):
    """Brute-force optimum over all basic feasible points of
    min c'x s.t. Ax <= b, 0 <= x <= ub (independent oracle)."""
    n = len(c)
    A = np.asarray(A, dtype=float)
    rows = [(A[i], b[i]) for i in range(len(b))]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        rows.append((e, ub[j]))          # x_j <= ub_j
        rows.append((-e, 0.0))           # -x_j <= 0
    best = math.inf
    for combo in itertools.combinations(range(len(rows)), n):
        M = np.array([rows[i][0] for i in combo])
        rhs = np.array([rows[i][1] for i in combo])
        try:
            x = np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError:
            continue
        if np.all(A @ x <= np.asarray(b) + 1e-9) and \
           np.all(x >= -1e-9) and np.all(x <= np.asarray(ub) + 1e-9):
            best = min(best, float(np.dot(c, x)))
    return best


# --- simplex ------------------------------------------------------------------

def test_single_bound_lp():
    mip = MixedIntegerProgram()
    mip.add_variable("x", 0.0, 10.0)
    mip.add_constraint({0: 1.0}, ">=", 1.0)
    mip.set_objective({0: 1.0})
    sol = simplex_solve(mip)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0, abs=1e-9)
    assert sol.x[0] == pytest.approx(1.0, abs=1e-9)


def test_textbook_facet_lp():
    mip = MixedIntegerProgram()
    mip.add_variable("x")
    mip.add_variable("y")
    mip.add_constraint({0: 1.0, 1: 1.0}, "<=", 1.0)
    mip.set_objective({0: -1.0, 1: -1.0})
    sol = simplex_solve(mip)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-1.0, abs=1e-9)


def test_infeasible_lp():
    mip = MixedIntegerProgram()
    mip.add_variable("x", 0.0, 1.0)
    mip.add_constraint({0: 1.0}, ">=", 2.0)
    sol = simplex_solve(mip)
    assert sol.status == "infeasible"


def test_unbounded_lp():
    mip = MixedIntegerProgram()
    mip.add_variable("x", 0.0, INF)
    mip.add_constraint({0: 1.0}, ">=", 1.0)
    mip.set_objective({0: -1.0})
    sol = simplex_solve(mip)
    assert sol.status == "unbounded"


def test_free_variable_lp():
    mip = MixedIntegerProgram()
    mip.add_variable("x", -INF, INF)
    mip.add_constraint({0: 1.0}, ">=", -5.0)
    mip.set_objective({0: 1.0})
    sol = simplex_solve(mip)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-5.0, abs=1e-8)


def test_equality_rows():
    mip = MixedIntegerProgram()
    mip.add_variable("x")
    mip.add_variable("y")
    mip.add_constraint({0: 1.0, 1: 1.0}, "=", 2.0)
    mip.add_constraint({0: 1.0, 1: -1.0}, "=", 0.5)
    mip.set_objective({0: 1.0, 1: 3.0})
    sol = simplex_solve(mip)
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(1.25, abs=1e-9)
    assert sol.x[1] == pytest.approx(0.75, abs=1e-9)


def test_random_lps_against_vertex_enumeration():
    rng = np.random.default_rng(42)
    for trial in range(20):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 7))
        c = rng.normal(size=n)
        A = rng.normal(size=(m, n))
        b = rng.uniform(0.5, 3.0, size=m)     # x = 0 feasible
        ub = rng.uniform(0.5, 5.0, size=n)
        mip = small_lp(c, A, b, ub)
        sol = simplex_solve(mip)
        assert sol.status == "optimal", f"trial {trial}"
        oracle = enumerate_vertices(c, A, b, ub)
        assert sol.objective == pytest.approx(oracle, abs=1e-7), f"trial {trial}"
        assert not check_solution(mip, sol.x)


def test_solver_point_failing_the_check_raises(monkeypatch):
    mip = MixedIntegerProgram()
    mip.add_variable("x", 0.0, 10.0)
    mip.add_constraint({0: 1.0}, ">=", 1.0)
    mip.set_objective({0: 1.0})
    solve = milp_module.optimize.milp

    def corrupted(*args, **kwargs):
        res = solve(*args, **kwargs)
        res.x = np.zeros_like(res.x)       # violates x >= 1
        return res

    monkeypatch.setattr(milp_module.optimize, "milp", corrupted)
    with pytest.raises(RuntimeError, match="violation"):
        simplex_solve(mip)


# --- branch and bound ------------------------------------------------------------

def knapsack(values, weights, cap):
    mip = MixedIntegerProgram()
    for j, _ in enumerate(values):
        mip.add_variable(f"z{j}", 0.0, 1.0, integer=True)
    mip.add_constraint({j: w for j, w in enumerate(weights)}, "<=", cap)
    mip.set_objective({j: -v for j, v in enumerate(values)})   # maximize value
    return mip


def test_knapsack_against_enumeration():
    rng = np.random.default_rng(3)
    values = rng.uniform(1, 10, size=10)
    weights = rng.uniform(1, 8, size=10)
    cap = 0.4 * weights.sum()
    mip = knapsack(values, weights, cap)
    sol = branch_and_bound(mip, gap_tol=1e-9)
    assert sol.status == "optimal"
    best = min(
        -values @ np.array(bits)
        for bits in itertools.product([0, 1], repeat=10)
        if weights @ np.array(bits) <= cap
    )
    assert sol.objective == pytest.approx(best, abs=1e-7)


def test_lp_relaxation_of_a_mip_ignores_integrality():
    rng = np.random.default_rng(3)
    values = rng.uniform(1, 10, size=10)
    weights = rng.uniform(1, 8, size=10)
    cap = 0.4 * weights.sum()
    mip = knapsack(values, weights, cap)
    relaxed = simplex_solve(mip)
    assert relaxed.status == "optimal"
    assert np.any(np.abs(relaxed.x - np.round(relaxed.x)) > 1e-6)
    # Dantzig's bound: fill by value density, the last item fractionally
    order = np.argsort(-values / weights)
    room, dantzig = cap, 0.0
    for j in order:
        take = min(1.0, room / weights[j])
        dantzig -= take * values[j]
        room -= take * weights[j]
    assert relaxed.objective == pytest.approx(dantzig, abs=1e-7)
    assert relaxed.objective <= branch_and_bound(mip, gap_tol=1e-9).objective + 1e-9


def test_integral_relaxation_solves_at_root():
    # totally unimodular: assignment-like rows
    mip = MixedIntegerProgram()
    for j in range(4):
        mip.add_variable(f"z{j}", 0.0, 1.0, integer=True)
    mip.add_constraint({0: 1.0, 1: 1.0}, "=", 1.0)
    mip.add_constraint({2: 1.0, 3: 1.0}, "=", 1.0)
    mip.set_objective({0: 1.0, 1: 2.0, 2: 3.0, 3: 1.0})
    sol = branch_and_bound(mip)
    assert sol.status == "optimal"
    assert sol.node_count <= 1          # no branching (HiGHS may finish in presolve)
    assert sol.objective == pytest.approx(2.0, abs=1e-9)


def test_infeasible_binary_system():
    mip = MixedIntegerProgram()
    mip.add_variable("z", 0.0, 1.0, integer=True)
    mip.add_constraint({0: 1.0}, "<=", 0.0)
    mip.add_constraint({0: 1.0}, ">=", 1.0)
    sol = branch_and_bound(mip)
    assert sol.status == "infeasible"


def test_random_binary_programs_against_enumeration():
    rng = np.random.default_rng(11)
    for trial in range(50):
        n = int(rng.integers(3, 13))
        m = int(rng.integers(1, 5))
        c = rng.normal(size=n)
        A = rng.normal(size=(m, n))
        b = rng.uniform(-1.0, float(n) / 2, size=m)
        mip = MixedIntegerProgram()
        for j in range(n):
            mip.add_variable(f"z{j}", 0.0, 1.0, integer=True)
        for i in range(m):
            mip.add_constraint({j: A[i, j] for j in range(n)}, "<=", b[i])
        mip.set_objective({j: c[j] for j in range(n)})
        sol = branch_and_bound(mip, gap_tol=1e-9)
        best = math.inf
        for bits in itertools.product([0, 1], repeat=n):
            z = np.array(bits, dtype=float)
            if np.all(A @ z <= b + 1e-9):
                best = min(best, float(c @ z))
        if best is math.inf:
            assert sol.status == "infeasible", f"trial {trial}"
        else:
            assert sol.status == "optimal", f"trial {trial}"
            assert sol.objective == pytest.approx(best, abs=1e-7), f"trial {trial}"
            # weak duality and monotone bound on every solve
            assert sol.best_bound <= sol.objective + 1e-9
            hist = sol.bound_history
            assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(hist, hist[1:])), \
                f"trial {trial}"


def test_gap_tolerance_terminates_early():
    rng = np.random.default_rng(5)
    values = rng.uniform(1, 10, size=14)
    weights = rng.uniform(1, 8, size=14)
    mip = knapsack(values, weights, 0.5 * weights.sum())
    sol = branch_and_bound(mip, gap_tol=0.2)
    assert sol.status in ("optimal", "feasible-with-gap")
    assert sol.gap <= 0.2 + 1e-12
    assert sol.best_bound <= sol.objective + 1e-9


def test_incumbents_satisfy_constraints():
    rng = np.random.default_rng(9)
    values = rng.uniform(1, 10, size=12)
    weights = rng.uniform(1, 8, size=12)
    mip = knapsack(values, weights, 0.45 * weights.sum())
    sol = branch_and_bound(mip, gap_tol=1e-9)
    assert not check_solution(mip, sol.x, tol=1e-7)
    assert all(abs(v - round(v)) <= 1e-6 for v in sol.x)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.data())
def test_bnb_matches_enumeration_property(n, data):
    c = [data.draw(st.floats(-5, 5, allow_nan=False)) for _ in range(n)]
    w = [data.draw(st.floats(0.1, 5, allow_nan=False)) for _ in range(n)]
    cap = data.draw(st.floats(0.5, 10, allow_nan=False))
    mip = MixedIntegerProgram()
    for j in range(n):
        mip.add_variable(f"z{j}", 0.0, 1.0, integer=True)
    mip.add_constraint({j: w[j] for j in range(n)}, "<=", cap)
    mip.set_objective({j: c[j] for j in range(n)})
    sol = branch_and_bound(mip, gap_tol=1e-9)
    best = min(
        float(np.dot(c, bits))
        for bits in itertools.product([0, 1], repeat=n)
        if float(np.dot(w, bits)) <= cap + 1e-12
    )
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(best, abs=1e-7)


# --- MPS ---------------------------------------------------------------------

def example_mip():
    mip = MixedIntegerProgram("EXAMPLE")
    mip.add_variable("x_continuous_long_name", 0.0, 4.5)
    mip.add_variable("z1", 0.0, 1.0, integer=True)
    mip.add_variable("free", -INF, INF)
    mip.add_variable("neg", -3.0, -1.0)
    mip.add_constraint({0: 1.25, 1: -2.0}, "<=", 3.5, name="cap#1")
    mip.add_constraint({1: 1.0, 2: 1.0}, ">=", 0.25)
    mip.add_constraint({0: 1.0, 2: -1.0, 3: 0.5}, "=", 1.0)
    mip.set_objective({0: 2.0, 1: -1.0, 2: 0.125}, constant=7.5)
    return mip


def test_mps_roundtrip_byte_identical():
    mip = example_mip()
    text1 = export_mps(mip)
    text2 = export_mps(import_mps(text1))
    assert text1 == text2


def test_mps_roundtrip_reproduces_program():
    mip = example_mip()
    back = import_mps(export_mps(mip))
    assert back.n_vars == mip.n_vars
    for v1, v2 in zip(mip.variables, back.variables):
        assert (v1.lb, v1.ub, v1.integer) == (v2.lb, v2.ub, v2.integer)
    assert len(back.rows) == len(mip.rows)
    for r1, r2 in zip(mip.rows, back.rows):
        assert r1.sense == r2.sense and r1.rhs == r2.rhs
        assert r1.coeffs == r2.coeffs
    assert back.objective == mip.objective
    assert back.obj_constant == mip.obj_constant


def test_mps_solutions_agree():
    mip = example_mip()
    s1 = branch_and_bound(mip, gap_tol=1e-9)
    s2 = branch_and_bound(import_mps(export_mps(mip)), gap_tol=1e-9)
    assert s1.objective == pytest.approx(s2.objective, abs=1e-9)


def test_mps_empty_program():
    mip = MixedIntegerProgram("EMPTY")
    text = export_mps(mip)
    for section in ("ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "ENDATA"):
        assert section in text
    back = import_mps(text)
    assert back.n_vars == 0 and len(back.rows) == 0


def test_mps_long_names_hashed():
    mip = MixedIntegerProgram()
    mip.add_variable("averyveryverylongvariablename", 0.0, 1.0)
    mip.add_variable("averyveryverylongvariablenam2", 0.0, 1.0)
    text = export_mps(mip)
    names = {ln.split()[0] for ln in text.splitlines()
             if ln.startswith("    ave") or ln.startswith("    AVE")}
    for line in text.splitlines():
        for token in line.split():
            if token not in ("'MARKER'", "'INTORG'", "'INTEND'"):
                assert len(token) <= 14   # numbers; names are <= 8
    assert text == export_mps(import_mps(text))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_mps_roundtrip_property(data):
    mip = MixedIntegerProgram("RND")
    n = data.draw(st.integers(1, 6))
    for j in range(n):
        integer = data.draw(st.booleans())
        lb = data.draw(st.sampled_from([0.0, -1.0, -2.5, 1.5]))
        ub = lb + data.draw(st.sampled_from([1.0, 2.0, 7.25]))
        mip.add_variable(f"v{j}", lb, ub, integer=integer)
    for i in range(data.draw(st.integers(0, 4))):
        coeffs = {j: data.draw(st.sampled_from([-2.0, -1.0, 1.0, 0.5]))
                  for j in range(n) if data.draw(st.booleans())}
        if not coeffs:
            continue
        mip.add_constraint(coeffs, data.draw(st.sampled_from(["<=", ">=", "="])),
                           data.draw(st.sampled_from([0.0, 1.0, -3.5])))
    mip.set_objective({j: 1.0 for j in range(n)})
    text = export_mps(mip)
    assert export_mps(import_mps(text)) == text


def test_solution_csv(tmp_path):
    mip = MixedIntegerProgram()
    mip.add_variable("a", 0, 2)
    mip.add_variable("b", 0, 2)
    mip.add_constraint({0: 1, 1: 1}, ">=", 1)
    mip.set_objective({0: 1, 1: 2})
    sol = simplex_solve(mip)
    path = tmp_path / "sol.csv"
    write_solution_csv(path, mip, sol)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "name,value"
    assert len(lines) == 3
