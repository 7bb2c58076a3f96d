"""MILP container, HiGHS solves with an independent check, and MPS I/O.

`MixedIntegerProgram` holds a minimization problem as sparse rows.
`branch_and_bound` solves it with HiGHS (`scipy.optimize.milp`) and
`simplex_solve` solves its LP relaxation; both map the HiGHS result to a
`Solution` and accept a point only after `check_solution`, which re-checks
every bound, row and integrality independently of the solver.  MPS export
and import round-trip byte-identically.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
import sys
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize, sparse

INF = float("inf")

INT_TOL = 1e-6


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
        self.obj_constant: float = 0.0

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
        if isinstance(coeffs, dict):
            items = coeffs.items()
        else:
            merged: dict[int, float] = {}
            for j, c in coeffs:
                merged[j] = merged.get(j, 0.0) + c
            items = merged.items()
        return sorted((int(j), float(c)) for j, c in items if c != 0.0)

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

    def set_objective(self, coeffs, constant: float = 0.0) -> None:
        self.objective = self._normalize(coeffs)
        self.obj_constant = float(constant)

    @property
    def n_vars(self) -> int:
        return len(self.variables)

    @property
    def n_integer(self) -> int:
        return sum(v.integer for v in self.variables)

    # -- evaluation ---------------------------------------------------------
    def row_activity(self, row: Row, x: np.ndarray) -> float:
        return float(sum(c * x[j] for j, c in row.coeffs))

    def objective_value(self, x: np.ndarray) -> float:
        return float(sum(c * x[j] for j, c in self.objective)) + self.obj_constant


def check_solution(mip: MixedIntegerProgram, x: np.ndarray,
                   tol: float = 1e-7, int_tol: float = INT_TOL) -> list[str]:
    """Independent feasibility check; returns a list of violation messages.

    Row residuals are measured relative to the largest coefficient or RHS
    magnitude so the tolerance is meaningful across row scalings.
    """
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
        act = mip.row_activity(row, x)
        resid = act - row.rhs
        if row.sense == "<=" and resid > tol * scale:
            problems.append(f"{row.name}: {act} > {row.rhs}")
        elif row.sense == ">=" and resid < -tol * scale:
            problems.append(f"{row.name}: {act} < {row.rhs}")
        elif row.sense == "=" and abs(resid) > tol * scale:
            problems.append(f"{row.name}: {act} != {row.rhs}")
    return problems


@dataclass
class Solution:
    x: np.ndarray
    objective: float
    status: str               # optimal | feasible-with-gap | infeasible | unbounded | time-limit
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
    n, m = mip.n_vars, len(mip.rows)
    c = np.zeros(n)
    for j, cj in mip.objective:
        c[j] = cj
    lb = np.array([v.lb for v in mip.variables])
    ub = np.array([v.ub for v in mip.variables])
    integrality = np.array([integral and v.integer for v in mip.variables], dtype=int)
    constraints = None
    if m:
        indptr = np.cumsum([0] + [len(r.coeffs) for r in mip.rows])
        indices = [j for r in mip.rows for j, _ in r.coeffs]
        data = [a for r in mip.rows for _, a in r.coeffs]
        rhs = np.array([r.rhs for r in mip.rows])
        senses = np.array([r.sense for r in mip.rows])
        constraints = optimize.LinearConstraint(
            sparse.csr_array((data, indices, indptr), shape=(m, n)),
            np.where(senses == "<=", -INF, rhs), np.where(senses == ">=", INF, rhs))
    options = dict(disp=False, mip_rel_gap=gap_tol)
    if time_limit is not None:
        options["time_limit"] = time_limit
    # HiGHS writes some MIP messages to fd 1 even with disp=False
    sys.stdout.flush()
    saved_stdout = os.dup(1)
    try:
        with open(os.devnull, "wb") as devnull:
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
                        best_bound=-INF if dual is None else dual + mip.obj_constant)
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
    bound = objective if res.mip_dual_bound is None else \
        res.mip_dual_bound + mip.obj_constant
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
    NaN if no incumbent was found), or `infeasible` / `unbounded`.  Every
    returned point has passed `check_solution`; a violation raises.
    """
    return _highs_solve(mip, integral=True, gap_tol=gap_tol, time_limit=time_limit)


# ---------------------------------------------------------------------------
# MPS export / import
# ---------------------------------------------------------------------------

def _sanitize(names: list[str]) -> list[str]:
    out, seen = [], set()
    for name in names:
        clean = re.sub(r"[^A-Za-z0-9_]", "_", name)
        if len(clean) > 8:
            digest = hashlib.sha1(name.encode()).hexdigest()[:5].upper()
            clean = clean[:3] + digest
        cand, k = clean, 0
        while cand in seen:
            k += 1
            suffix = str(k)
            cand = clean[:8 - len(suffix)] + suffix
        seen.add(cand)
        out.append(cand)
    return out


def _num(v: float) -> str:
    return f"{v:.12g}"


def export_mps(mip: MixedIntegerProgram) -> str:
    """Fixed-layout MPS text with MARKER records for integer variables.

    Field columns follow the classic template (start columns 2/5/15/25);
    numeric fields may extend past the historical widths to keep full
    precision.  Names longer than 8 characters are deterministically hashed.
    """
    vnames = _sanitize([v.name for v in mip.variables])
    rnames = _sanitize([r.name for r in mip.rows])
    sense_code = {"<=": "L", ">=": "G", "=": "E"}
    lines = [f"NAME          {re.sub(r'[^A-Za-z0-9_]', '_', mip.name)[:8]}"]
    lines.append("ROWS")
    lines.append(" N  COST")
    for r, row in zip(rnames, mip.rows):
        lines.append(f" {sense_code[row.sense]}  {r}")
    lines.append("COLUMNS")
    obj = {j: c for j, c in mip.objective}
    col_rows: list[list[tuple[str, float]]] = [[] for _ in mip.variables]
    for r, row in zip(rnames, mip.rows):
        for j, c in row.coeffs:
            col_rows[j].append((r, c))
    in_int = False
    marker_id = 0
    for j, v in enumerate(mip.variables):
        if v.integer != in_int:
            tag = "INTORG" if v.integer else "INTEND"
            lines.append(f"    MARK{marker_id:<4}  'MARKER'                 '{tag}'")
            marker_id += 1
            in_int = v.integer
        entries = ([("COST", obj[j])] if j in obj else []) + col_rows[j]
        if not entries:
            entries = [("COST", 0.0)]
        for rname, c in entries:
            lines.append(f"    {vnames[j]:<8}  {rname:<8}  {_num(c)}")
    if in_int:
        lines.append(f"    MARK{marker_id:<4}  'MARKER'                 'INTEND'")
    lines.append("RHS")
    if mip.obj_constant != 0.0:
        lines.append(f"    RHS       COST      {_num(-mip.obj_constant)}")
    for r, row in zip(rnames, mip.rows):
        if row.rhs != 0.0:
            lines.append(f"    RHS       {r:<8}  {_num(row.rhs)}")
    lines.append("RANGES")
    lines.append("BOUNDS")
    for j, v in enumerate(mip.variables):
        name = vnames[j]
        if v.lb == v.ub:
            lines.append(f" FX BND       {name:<8}  {_num(v.lb)}")
            continue
        if v.lb == 0.0 and v.ub == INF and not v.integer:
            continue
        if not math.isfinite(v.lb) and not math.isfinite(v.ub):
            lines.append(f" FR BND       {name:<8}")
            continue
        if not math.isfinite(v.lb):
            lines.append(f" MI BND       {name:<8}")
        elif v.lb != 0.0 or v.integer:
            lines.append(f" LO BND       {name:<8}  {_num(v.lb)}")
        if math.isfinite(v.ub):
            lines.append(f" UP BND       {name:<8}  {_num(v.ub)}")
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"


def import_mps(text: str) -> MixedIntegerProgram:
    """Parse MPS text produced by export_mps (whitespace-tokenized fields)."""
    mip = MixedIntegerProgram()
    section = None
    senses: dict[str, str] = {}
    order: list[str] = []
    rows_coeffs: dict[str, dict[int, float]] = {}
    rhs: dict[str, float] = {}
    obj: dict[int, float] = {}
    obj_const = 0.0
    var_idx: dict[str, int] = {}
    integer_flags: dict[int, bool] = {}
    integer_mode = False
    explicit_lo: set[int] = set()

    for raw in text.splitlines():
        if not raw.strip() or raw.startswith("*"):
            continue
        if not raw.startswith(" "):
            head = raw.split()
            section = head[0]
            if section == "NAME" and len(head) > 1:
                mip.name = head[1]
            continue
        tk = raw.split()
        if section == "ROWS":
            code, rname = tk[0], tk[1]
            if code == "N":
                senses[rname] = "N"
            else:
                senses[rname] = {"L": "<=", "G": ">=", "E": "="}[code]
                order.append(rname)
                rows_coeffs[rname] = {}
        elif section == "COLUMNS":
            if len(tk) >= 3 and tk[1] == "'MARKER'":
                integer_mode = tk[2].strip("'") == "INTORG"
                continue
            cname = tk[0]
            if cname not in var_idx:
                var_idx[cname] = mip.add_variable(cname, 0.0, INF)
                integer_flags[var_idx[cname]] = integer_mode
            j = var_idx[cname]
            for rname, val in zip(tk[1::2], tk[2::2]):
                v = float(val)
                if senses.get(rname) == "N":
                    obj[j] = obj.get(j, 0.0) + v
                else:
                    rows_coeffs[rname][j] = rows_coeffs[rname].get(j, 0.0) + v
        elif section == "RHS":
            for rname, val in zip(tk[1::2], tk[2::2]):
                if senses.get(rname) == "N":
                    obj_const = -float(val)
                else:
                    rhs[rname] = float(val)
        elif section == "RANGES":
            raise ValueError("RANGES entries are not supported")
        elif section == "BOUNDS":
            btype, cname = tk[0], tk[2]
            j = var_idx[cname]
            v = mip.variables[j]
            val = float(tk[3]) if len(tk) > 3 else 0.0
            if btype == "UP":
                v.ub = val
                if val < 0 and j not in explicit_lo:
                    v.lb = -INF
            elif btype == "LO":
                v.lb = val
                explicit_lo.add(j)
            elif btype == "FX":
                v.lb = v.ub = val
            elif btype == "FR":
                v.lb, v.ub = -INF, INF
            elif btype == "MI":
                v.lb = -INF
            elif btype == "PL":
                v.ub = INF
            elif btype == "BV":
                v.lb, v.ub = 0.0, 1.0
                integer_flags[j] = True
            else:
                raise ValueError(f"unsupported bound type {btype}")
    for j, flag in integer_flags.items():
        mip.variables[j].integer = flag
    for rname in order:
        mip.add_constraint(rows_coeffs[rname], senses[rname],
                           rhs.get(rname, 0.0), name=rname)
    mip.set_objective(obj, obj_const)
    return mip

