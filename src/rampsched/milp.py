"""MILP container and HiGHS solves with an independent check.

`MixedIntegerProgram` holds a minimization problem as sparse rows.
`branch_and_bound` solves it with HiGHS (`scipy.optimize.milp`) and
`simplex_solve` solves its LP relaxation; both map the HiGHS result to a
`Solution` and accept a point only after `check_solution`, which re-checks
every bound, row and integrality independently of the solver.

HiGHS runs without its feasibility-jump primal heuristic.  On the ramp and
market MILPs, from the benchmark's 51-74 columns to the 48 h days, it never
supplied the point HiGHS returned, yet it took about half of the HiGHS time
of a benchmark MILP; without it every MILP tried gave the same x, objective,
gap and node count.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize, sparse

INF = float("inf")

INT_TOL = 1e-6
HIGHS_TOL = 1e-9          # HiGHS primal and MIP feasibility tolerance


@dataclass
class Variable:
    name: str
    lb: float = 0.0
    ub: float = INF
    integer: bool = False


@dataclass
class Row:
    name: str
    coeffs: list            # sorted [(var_index, coefficient)]
    sense: str              # '<=', '>=', '='
    rhs: float


class MixedIntegerProgram:
    """Sparse-row MILP container with a linear minimization objective."""

    def __init__(self, name: str = "MIP"):
        self.name = name
        self.variables: list[Variable] = []
        self.rows: list[Row] = []
        self.objective: list = []          # sorted [(var_index, coefficient)]
        self._csr = None                   # (row count, _rows_csr of those rows)

    # -- construction -------------------------------------------------------
    def add_variable(self, name: str, lb: float = 0.0, ub: float = INF,
                     integer: bool = False) -> int:
        if lb > ub:
            raise ValueError(f"variable {name}: lb > ub")
        if integer and not (math.isfinite(lb) and math.isfinite(ub)):
            raise ValueError(f"integer variable {name} must have finite bounds")
        self.variables.append(Variable(name, float(lb), float(ub), integer))
        return len(self.variables) - 1

    @staticmethod
    def _normalize(coeffs) -> list:
        """Sorted (var, coefficient) terms, zeros dropped, from a dict or from
        (var, coefficient) pairs, whose repeated vars are summed."""
        if not isinstance(coeffs, dict):
            merged: dict[int, float] = {}
            for j, c in coeffs:
                merged[j] = merged[j] + c if j in merged else c
            coeffs = merged
        return sorted((int(j), float(c)) for j, c in coeffs.items() if c != 0.0)

    def add_constraint(self, coeffs, sense: str, rhs: float,
                       name: str | None = None) -> int:
        if sense not in ("<=", ">=", "="):
            raise ValueError(f"bad sense {sense!r}")
        row = Row(name or f"R{len(self.rows)}", self._normalize(coeffs),
                  sense, float(rhs))
        for j, _ in row.coeffs:
            if not 0 <= j < len(self.variables):
                raise ValueError(f"row {row.name}: unknown variable index {j}")
        self.rows.append(row)
        return len(self.rows) - 1

    def set_objective(self, coeffs) -> None:
        self.objective = self._normalize(coeffs)

    @property
    def n_vars(self) -> int:
        return len(self.variables)

    @property
    def n_integer(self) -> int:
        return sum(v.integer for v in self.variables)

    # -- evaluation ---------------------------------------------------------
    def objective_value(self, x: np.ndarray) -> float:
        return float(sum(c * x[j] for j, c in self.objective))


def _rows_csr(mip: MixedIntegerProgram):
    """The rows of `mip` in scipy's CSR form (data, indices, indptr) and the lower
    and upper bounds of their activities (-inf / inf on the open side).

    Built once per set of rows: the result is kept on `mip` (a solve and the
    checks after it read the same arrays) and rebuilt whenever the row count
    has changed, whether the row came from `add_constraint` or was appended
    to `mip.rows` directly."""
    rows = mip.rows
    if mip._csr is None or mip._csr[0] != len(rows):
        indptr = np.cumsum([0] + [len(r.coeffs) for r in rows])
        indices = np.array([j for r in rows for j, _ in r.coeffs], dtype=np.intp)
        data = np.array([a for r in rows for _, a in r.coeffs], dtype=float)
        lower = np.array([-INF if r.sense == "<=" else r.rhs for r in rows])
        upper = np.array([INF if r.sense == ">=" else r.rhs for r in rows])
        for a in (indptr, indices, data, lower, upper):
            a.flags.writeable = False
        mip._csr = len(rows), ((data, indices, indptr), lower, upper)
    return mip._csr[1]


_VIOLATED = {"<=": ">", ">=": "<", "=": "!="}


def check_solution(mip: MixedIntegerProgram, x: np.ndarray,
                   tol: float = 1e-7, int_tol: float = INT_TOL) -> list[str]:
    """Independent feasibility check; returns a list of violation messages.

    Row residuals are measured relative to the largest coefficient or RHS
    magnitude so the tolerance is meaningful across row scalings.  Messages
    come per variable (bound, then integrality), then per row, in index
    order; a NaN value violates its bound and a NaN activity its row.
    """
    xa = np.asarray(x, dtype=float)
    lb = np.array([v.lb for v in mip.variables])
    ub = np.array([v.ub for v in mip.variables])
    integer = np.array([v.integer for v in mip.variables], dtype=bool)
    (data, indices, indptr), lower, upper = _rows_csr(mip)
    m = len(lower)
    row = np.arange(m).repeat(indptr[1:] - indptr[:-1])
    # |rhs| is the finite one of the two bounds (both, for '=')
    scale = np.maximum(np.minimum(np.abs(lower), np.abs(upper)), 1.0)
    np.maximum.at(scale, row, np.abs(data))
    with np.errstate(invalid="ignore"):         # inf - inf or 0 * inf: a violation
        bound = ~((xa >= lb - tol * np.maximum(1.0, np.abs(lb)))
                  & (xa <= ub + tol * np.maximum(1.0, np.abs(ub))))
        integral = integer & (np.abs(xa - np.rint(xa)) > int_tol)
        # each row's terms summed in order from 0.0, as a loop over them would
        act = np.bincount(row, weights=data * xa[indices], minlength=m)
        bad = ~((act - upper <= tol * scale) & (act - lower >= -tol * scale))
    problems = []
    for j in (bound | integral).nonzero()[0].tolist():
        name = mip.variables[j].name
        if bound[j]:
            problems.append(f"bound violated: {name}={x[j]!r}")
        if integral[j]:
            problems.append(f"integrality violated: {name}={x[j]!r}")
    for i in bad.nonzero()[0].tolist():
        r = mip.rows[i]
        problems.append(f"{r.name}: {float(act[i])} {_VIOLATED[r.sense]} {r.rhs}")
    return problems


@dataclass
class Solution:
    x: np.ndarray
    objective: float
    status: str     # optimal | feasible-with-gap | infeasible | time-limit | unbounded (LPs)
    gap: float = 0.0
    node_count: int = 0
    best_bound: float = -INF
    bound_history: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# Solving
# ---------------------------------------------------------------------------

def _highs_solve(mip: MixedIntegerProgram, integral: bool, gap_tol: float = 0.0,
                 time_limit: float | None = None) -> Solution:
    """Solve `mip` with HiGHS (`scipy.optimize.milp`), or its LP relaxation
    when `integral` is false, and check the returned point independently."""
    n = mip.n_vars
    c = np.zeros(n)
    for j, cj in mip.objective:
        c[j] = cj
    lb = np.array([v.lb for v in mip.variables])
    ub = np.array([v.ub for v in mip.variables])
    integrality = np.array([integral and v.integer for v in mip.variables], dtype=int)
    constraints = None
    if mip.rows:
        csr, lower, upper = _rows_csr(mip)
        constraints = optimize.LinearConstraint(
            sparse.csr_array(csr, shape=(len(mip.rows), n)), lower, upper)
    # HiGHS' default MIP feasibility tolerance, 1e-6, is looser than
    # check_solution's 1e-7; feasibility jump is off (see the module
    # docstring); scipy passes these HiGHS options on, with a warning
    options = dict(disp=False, mip_rel_gap=gap_tol, mip_feasibility_tolerance=HIGHS_TOL,
                   primal_feasibility_tolerance=HIGHS_TOL,
                   mip_heuristic_run_feasibility_jump=False)
    if time_limit is not None:
        options["time_limit"] = time_limit
    # HiGHS writes some MIP messages to fd 1 even with disp=False (the
    # up-ramp at 20 elements/h and the 24 h paper flexible day do)
    sys.stdout.flush()
    saved_stdout = os.dup(1)
    try:
        with open(os.devnull, "wb") as devnull, warnings.catch_warnings():
            warnings.filterwarnings("ignore", "Unrecognized options", RuntimeWarning)
            os.dup2(devnull.fileno(), 1)
            res = optimize.milp(c, integrality=integrality, bounds=optimize.Bounds(lb, ub),
                                constraints=constraints, options=options)
    finally:
        os.dup2(saved_stdout, 1)
        os.close(saved_stdout)
    if res.status not in (0, 1, 2, 3):
        raise RuntimeError(f"HiGHS failed: {res.message}")

    nodes = res.mip_node_count or 0
    if res.x is None or res.status > 1:
        # infeasible, unbounded, or cut by the time limit before an incumbent
        status = {1: "time-limit", 2: "infeasible", 3: "unbounded"}[res.status]
        dual = res.mip_dual_bound
        return Solution(np.full(n, np.nan), -INF if status == "unbounded" else INF,
                        status, gap=INF, node_count=nodes,
                        best_bound=-INF if dual is None else dual)
    x = np.asarray(res.x, dtype=float)
    violations = check_solution(mip, x, int_tol=INT_TOL if integral else INF)
    if violations:
        raise RuntimeError(f"HiGHS returned an infeasible point: {len(violations)} "
                           f"violation(s), first {violations[0]}")
    objective = mip.objective_value(x)
    gap = res.mip_gap or 0.0            # None for an LP
    if res.status == 1:
        status = "time-limit"
    else:
        status = "optimal" if gap == 0 else "feasible-with-gap"
    bound = objective if res.mip_dual_bound is None else res.mip_dual_bound
    return Solution(x, objective, status, gap=gap, node_count=nodes,
                    best_bound=bound, bound_history=[bound])


def simplex_solve(mip: MixedIntegerProgram) -> Solution:
    """Optimal solution of the LP relaxation (integrality ignored)."""
    return _highs_solve(mip, integral=False)


def branch_and_bound(mip: MixedIntegerProgram, gap_tol: float = 1e-6,
                     time_limit: float | None = None) -> Solution:
    """Solve the MILP with HiGHS' branch and cut.

    Stops at a relative gap of `gap_tol` or after `time_limit` seconds.  The
    status is `optimal` at zero gap, `feasible-with-gap` when stopped by the
    gap tolerance, `time-limit` when cut by the limit (objective inf and x
    NaN if no incumbent was found), or `infeasible`.  HiGHS reports an
    unbounded MIP as "unbounded or infeasible", which raises RuntimeError;
    only an LP (`simplex_solve`) returns `unbounded`.  Every returned point
    has passed `check_solution`; a violation raises.
    """
    return _highs_solve(mip, integral=True, gap_tol=gap_tol, time_limit=time_limit)
