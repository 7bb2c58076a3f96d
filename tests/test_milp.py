import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rampsched import milp as milp_module
from rampsched.milp import (INF, MixedIntegerProgram, branch_and_bound,
                            check_solution, simplex_solve)


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


def test_pair_rows_sum_repeated_vars_and_drop_zeros():
    """A row given as (var, coefficient) pairs is the row given as the dict
    of their sums: sorted by var, zero coefficients dropped."""
    mip = MixedIntegerProgram()
    for j in range(4):
        mip.add_variable(f"x{j}")
    mip.add_constraint([(2, 1.5), (0, 2.0), (3, 0.0), (2, -0.5), (1, 1.0), (1, -1.0)],
                       "<=", 1.0)
    mip.add_constraint({2: 1.0, 0: 2.0, 3: 0.0}, "<=", 1.0)
    assert mip.rows[0].coeffs == mip.rows[1].coeffs == [(0, 2.0), (2, 1.0)]


# --- check_solution -------------------------------------------------------------

def reference_check(mip, x, tol=1e-7, int_tol=1e-6):
    """The per-variable, per-row loop check_solution replaced: the same
    messages, in the same order."""
    problems = []
    for j, v in enumerate(mip.variables):
        if x[j] < v.lb - tol * max(1.0, abs(v.lb)) or \
           x[j] > v.ub + tol * max(1.0, abs(v.ub)):
            problems.append(f"bound violated: {v.name}={x[j]!r}")
        if v.integer and abs(x[j] - round(x[j])) > int_tol:
            problems.append(f"integrality violated: {v.name}={x[j]!r}")
    for row in mip.rows:
        scale = max((abs(c) for _, c in row.coeffs), default=1.0)
        scale = max(scale, abs(row.rhs), 1.0)
        act = float(sum(c * x[j] for j, c in row.coeffs))
        resid = act - row.rhs
        if row.sense == "<=" and resid > tol * scale:
            problems.append(f"{row.name}: {act} > {row.rhs}")
        elif row.sense == ">=" and resid < -tol * scale:
            problems.append(f"{row.name}: {act} < {row.rhs}")
        elif row.sense == "=" and abs(resid) > tol * scale:
            problems.append(f"{row.name}: {act} != {row.rhs}")
    return problems


def random_program(rng, n, m):
    """A program around a point x0 that satisfies it: integer, finite,
    one-sided and free variables, some at a bound; rows of every sense,
    some tight, some empty, coefficients over six decades."""
    x0 = rng.normal(size=n) * 4.0
    mip = MixedIntegerProgram()
    for j in range(n):
        kind = int(rng.integers(4))
        if kind == 0:
            x0[j] = round(x0[j])
        lo, hi = x0[j] - rng.choice([0.0, 1.5]), x0[j] + rng.choice([0.0, 2.5])
        mip.add_variable(f"v{j}", -INF if kind == 1 else lo, INF if kind == 2 else hi,
                         integer=kind == 0)
    for _ in range(m):
        cols = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
        coefs = rng.normal(size=len(cols)) * 10.0 ** rng.integers(-3, 4, size=len(cols))
        terms = dict(zip(cols.tolist(), coefs.tolist()))
        act = sum(c * x0[j] for j, c in sorted(terms.items()))
        sense = ["<=", ">=", "="][rng.integers(3)]
        slack = rng.choice([0.0, 1.0]) * {"<=": 1.0, ">=": -1.0, "=": 0.0}[sense]
        mip.add_constraint(terms, sense, act + slack)
    return mip, x0


def test_check_solution_matches_reference_on_random_points():
    rng = np.random.default_rng(17)
    flagged = 0
    for trial in range(200):
        mip, x0 = random_program(rng, int(rng.integers(1, 13)), int(rng.integers(0, 9)))
        x = x0 + rng.normal(size=mip.n_vars) * rng.choice([0.0, 1e-7, 1e-3, 1.0])
        for int_tol in (1e-6, INF):
            got = check_solution(mip, x, int_tol=int_tol)
            assert got == reference_check(mip, x, int_tol=int_tol), f"trial {trial}"
            flagged += len(got)
    assert flagged > 300


def test_check_solution_matches_reference_past_a_bound_a_row_and_integrality():
    """A feasible point passes; pushed 3 tolerances past one bound, one row
    or off integrality it fails with the reference's messages, in order;
    pushed a third of a tolerance past a bound or off integrality, that
    variable is not flagged."""
    rng = np.random.default_rng(23)
    tol = 1e-7
    for trial in range(60):
        mip, x0 = random_program(rng, int(rng.integers(2, 9)), int(rng.integers(1, 9)))
        assert check_solution(mip, x0) == reference_check(mip, x0) == [], f"trial {trial}"
        for push, fails in ((3.0, True), (1 / 3, False)):
            for j, v in enumerate(mip.variables):
                for bound, sign in ((v.lb, -1.0), (v.ub, 1.0)):
                    if math.isfinite(bound):
                        x = x0.copy()
                        x[j] = bound + sign * push * tol * max(1.0, abs(bound))
                        got = check_solution(mip, x)
                        assert got == reference_check(mip, x), f"trial {trial}"
                        assert any(m.startswith(f"bound violated: {v.name}=")
                                   for m in got) == fails
                if v.integer:
                    x = x0.copy()
                    x[j] += push * 1e-6
                    got = check_solution(mip, x)
                    assert got == reference_check(mip, x), f"trial {trial}"
                    assert any(m.startswith(f"integrality violated: {v.name}=")
                               for m in got) == fails
            for row in mip.rows:
                a = np.zeros(mip.n_vars)
                for j, c in row.coeffs:
                    a[j] = c
                if not a.any():
                    continue
                scale = max(np.abs(a).max(), abs(row.rhs), 1.0)
                # activity moved to rhs + push tolerances on the violating side
                sign = -1.0 if row.sense == ">=" else 1.0
                x = x0 + (row.rhs - a @ x0 + sign * push * tol * scale) * a / (a @ a)
                got = check_solution(mip, x)
                assert got == reference_check(mip, x), f"trial {trial}"
                if fails:
                    assert any(m.startswith(f"{row.name}: ") for m in got)


def test_check_solution_flags_nan():
    """A NaN value violates its bound and a NaN activity its row (the loop
    accepted a NaN continuous value and raised on a NaN integer one)."""
    mip = MixedIntegerProgram()
    mip.add_variable("x", 0.0, INF)
    mip.add_variable("z", 0.0, 1.0, integer=True)
    mip.add_constraint({0: 1.0, 1: 1.0}, "<=", 2.0, name="cap")
    got = check_solution(mip, np.array([np.nan, np.nan]))
    assert got == ["bound violated: x=np.float64(nan)", "bound violated: z=np.float64(nan)",
                   "cap: nan > 2.0"]


def test_check_after_a_row_is_added_sees_that_row():
    """The rows' CSR arrays are built once per set of rows: a solve and the
    checks after it share them, and a check made after add_constraint, or
    after a row appended to mip.rows directly, sees the new row."""
    mip = small_lp([-1.0, -1.0], [[1.0, 1.0]], [4.0], [10.0, 10.0])
    sol = simplex_solve(mip)
    arrays = milp_module._rows_csr(mip)
    assert milp_module._rows_csr(mip) is arrays
    assert check_solution(mip, sol.x) == []
    mip.add_constraint({0: 1.0}, "<=", 1.0, name="cut")
    assert milp_module._rows_csr(mip) is not arrays
    assert check_solution(mip, np.array([4.0, 0.0])) == ["cut: 4.0 > 1.0"]
    mip.rows.append(milp_module.Row("late", [(1, 1.0)], "<=", 1.0))
    assert check_solution(mip, np.array([1.0, 3.0])) == ["late: 3.0 > 1.0"]
    assert simplex_solve(mip).objective == pytest.approx(-2.0, abs=1e-9)


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


def test_highs_runs_without_feasibility_jump(monkeypatch):
    """The heuristic took about half of each benchmark MILP's HiGHS time and
    changed no returned point; an option HiGHS does not know would raise."""
    seen = []
    solve = milp_module.optimize.milp

    def recorded(*args, **kwargs):
        seen.append(kwargs["options"])
        return solve(*args, **kwargs)

    monkeypatch.setattr(milp_module.optimize, "milp", recorded)
    assert branch_and_bound(knapsack([3.0, 2.0], [2.0, 1.0], 2.0)).status == "optimal"
    assert seen[0]["mip_heuristic_run_feasibility_jump"] is False


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
