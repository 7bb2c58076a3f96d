"""Necessary-condition checks for flat-output candidates.

Two structural tests on the process sparsity graph:

* a graph covering test — the candidate passes when each input can be routed
  to its paired output component along vertex-disjoint directed paths whose
  union visits every state, and
* structural solvability — the equation system obtained by differentiating
  the candidate outputs admits a perfect matching between equations and
  unknowns.

Both are necessary conditions only; a passing candidate is reported as
"admissible", never as flat.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np


@dataclass(frozen=True)
class SparsityModel:
    """Directed dependency graph of an ODE model.

    Edges run from a source vertex (state, input, or the production-rate
    vertex) to the state whose derivative it enters.
    """

    states: tuple[str, ...]
    inputs: tuple[str, ...]
    edges: frozenset[tuple[str, str]]
    rho: str | None = "rho"

    def __post_init__(self):
        names = set(self.states) | set(self.inputs) | ({self.rho} if self.rho else set())
        for src, tgt in self.edges:
            if src not in names:
                raise ValueError(f"edge source {src!r} is not a declared vertex")
            if tgt not in self.states:
                raise ValueError(f"edge target {tgt!r} is not a state")

    @property
    def n(self) -> int:
        return len(self.states)

    @property
    def m(self) -> int:
        return len(self.inputs)

    def successors(self, v: str) -> list[str]:
        return sorted(t for s, t in self.edges if s == v)

    def sources_of(self, state: str) -> list[str]:
        """Vertices feeding the derivative of `state` (its dependency set)."""
        return sorted(s for s, t in self.edges if t == state)


@dataclass(frozen=True)
class OutputCandidate:
    """A flat-output candidate: per component the states it reads, plus
    the differentiation orders used in the backtransformation system."""

    components: tuple[tuple[str, ...], ...]
    orders: tuple[int, ...]

    def __post_init__(self):
        if len(self.components) != len(self.orders):
            raise ValueError("components and orders must have equal length")
        if any(o < 0 for o in self.orders):
            raise ValueError("orders must be non-negative")


# ---------------------------------------------------------------------------
# Disjoint path cover
# ---------------------------------------------------------------------------

@dataclass
class DisjointCoverResult:
    passed: bool
    paths: list[list[str]] = field(default_factory=list)
    uncovered: tuple[str, ...] = ()
    note: str = ""

    def __str__(self) -> str:
        if self.passed:
            body = "; ".join(" -> ".join(p) for p in self.paths)
            return f"pass ({body})"
        return f"fail ({self.note})"


def check_disjoint_cover(g: SparsityModel,
                         pairing: list[tuple[str, tuple[str, ...]]]) -> DisjointCoverResult:
    """Search for vertex-disjoint input-to-output paths covering all states.

    `pairing` lists (input name, states read by the paired output component).
    Passes iff there are m vertex-disjoint directed paths, one per pair, from
    each input to a state its paired output reads, whose union visits every
    state.  An exact depth-first search certifies the cover and returns
    witness paths (deterministic order); on failure it reports the states
    left uncovered by the best partial cover.
    """
    if len(pairing) != g.m:
        raise ValueError(f"pairing has {len(pairing)} pairs, expected m={g.m}")
    for u, reads in pairing:
        if u not in g.inputs:
            raise ValueError(f"{u!r} is not an input")
        for x in reads:
            if x not in g.states:
                raise ValueError(f"output read {x!r} is not a state")

    best_cover: tuple[int, list[list[str]]] = (-1, [])

    def extend(k: int, used: set[str], paths: list[list[str]]):
        nonlocal best_cover
        if k == len(pairing):
            covered = len(used & set(g.states))
            if covered > best_cover[0]:
                best_cover = (covered, [list(p) for p in paths])
            return covered == g.n
        u, reads = pairing[k]
        # enumerate simple paths from u through unused state vertices
        stack = [[u]]
        while stack:
            path = stack.pop()
            tail = path[-1]
            if tail in reads and len(path) > 1:
                taken = set(path[1:])
                if extend(k + 1, used | taken, paths + [path]):
                    return True
            for nxt in g.successors(tail):
                if nxt in g.states and nxt not in used and nxt not in path:
                    stack.append(path + [nxt])
        return False

    if extend(0, set(), []):
        _, paths = best_cover
        return DisjointCoverResult(True, paths=paths)
    covered = best_cover[1]
    missing = tuple(x for x in g.states
                    if all(x not in p[1:] for p in covered))
    note = ", ".join(missing) + " uncovered" if missing else "no pairing-consistent cover"
    return DisjointCoverResult(False, paths=covered, uncovered=missing, note=note)


# ---------------------------------------------------------------------------
# Occurrence propagation and structural solvability
# ---------------------------------------------------------------------------

def _deriv_name(base: str, order: int) -> str:
    return base + "'" * order


@dataclass
class OccurrenceMatrix:
    """Boolean occurrence pattern of unknowns in the backtransformation system."""

    row_labels: list[str]
    col_labels: list[str]
    marks: np.ndarray    # bool, rows x cols

    @property
    def square(self) -> bool:
        return len(self.row_labels) == len(self.col_labels)

    def mark_set(self, i: int) -> set[str]:
        return {self.col_labels[j] for j in np.flatnonzero(self.marks[i])}

    def to_ascii(self, matching: dict[int, int] | None = None) -> str:
        """Aligned cross table; matched entries are circled as (x)."""
        width = max((len(c) for c in self.col_labels), default=1) + 2
        lead = max(len(r) for r in self.row_labels) + 1
        lines = [" " * lead + "".join(c.center(width) for c in self.col_labels)]
        for i, rl in enumerate(self.row_labels):
            cells = []
            for j in range(len(self.col_labels)):
                if matching and matching.get(i) == j:
                    cells.append("(x)".center(width))
                elif self.marks[i, j]:
                    cells.append("x".center(width))
                else:
                    cells.append(".".center(width))
            lines.append(rl.ljust(lead) + "".join(cells))
        return "\n".join(lines)


def propagate_occurrence(g: SparsityModel, cand: OutputCandidate) -> OccurrenceMatrix:
    """Build the occurrence matrix of the candidate's differentiated outputs.

    Row xi_k^(0) marks the states the component reads.  Each differentiation
    replaces a marked state by the sources feeding its derivative (per the
    sparsity graph, the production-rate vertex excluded from the unknowns)
    and augments a marked input u^(d) with u^(d+1).
    """
    state_set = set(g.states)
    input_set = set(g.inputs)
    per_comp_rows: list[list[set[str]]] = []
    for reads, order in zip(cand.components, cand.orders):
        rows = [set(reads)]
        for _ in range(order):
            nxt: set[str] = set()
            for sym in rows[-1]:
                if sym in state_set:
                    nxt.update(s for s in g.sources_of(sym) if s != g.rho)
                else:
                    base = sym.rstrip("'")
                    d = len(sym) - len(base)
                    if base in input_set:
                        nxt.add(sym)
                        nxt.add(_deriv_name(base, d + 1))
            rows.append(nxt)
        per_comp_rows.append(rows)

    max_order = max(cand.orders)
    row_labels, row_marks = [], []
    for d in range(max_order + 1):
        for k, rows in enumerate(per_comp_rows):
            if d <= cand.orders[k]:
                row_labels.append(_deriv_name(f"xi{k + 1}", d))
                row_marks.append(rows[d])

    deriv_cols = sorted({s for marks in row_marks for s in marks
                         if s not in state_set and s not in input_set},
                        key=lambda s: (g.inputs.index(s.rstrip("'")), len(s)))
    col_labels = list(g.states) + list(g.inputs) + deriv_cols
    col_idx = {c: j for j, c in enumerate(col_labels)}
    marks = np.zeros((len(row_labels), len(col_labels)), dtype=bool)
    for i, row in enumerate(row_marks):
        for s in row:
            marks[i, col_idx[s]] = True
    return OccurrenceMatrix(row_labels, col_labels, marks)


@dataclass
class SolvabilityResult:
    matching: dict[int, int] | None      # row -> column
    deficient_rows: tuple[int, ...] = ()

    @property
    def solvable(self) -> bool:
        return self.matching is not None


def _matching(adj: list[list[int]], n_cols: int) -> list[int]:
    """Maximum bipartite matching by augmenting paths (Kuhn): adj[i] lists
    the columns row i may take, in the order they are tried (lowest index
    first gives a deterministic result).  Returns the row matched to each
    column, -1 where none is; a row left unmatched when its turn comes stays
    unmatched."""
    match_col = [-1] * n_cols

    def try_row(i: int, seen: list[bool]) -> bool:
        for j in adj[i]:
            if not seen[j]:
                seen[j] = True
                if match_col[j] < 0 or try_row(match_col[j], seen):
                    match_col[j] = i
                    return True
        return False

    for i in range(len(adj)):
        try_row(i, [False] * n_cols)
    return match_col


def check_structural_solvability(M: OccurrenceMatrix) -> SolvabilityResult:
    """Perfect matching of equations to unknowns through marked entries.

    Augmenting-path bipartite matching (_matching), lowest column index
    first so the result is deterministic.  On failure, returns the
    Hall-violating row set of maximum deficiency (rows reachable from an
    unmatched row by alternating paths).
    """
    if not M.square:
        raise ValueError(f"occurrence matrix is {len(M.row_labels)}x"
                         f"{len(M.col_labels)}, expected square")
    n = len(M.row_labels)
    adj = [np.flatnonzero(row).tolist() for row in M.marks]
    match_col = _matching(adj, n)
    unmatched_rows = sorted(set(range(n)) - set(match_col))
    if not unmatched_rows:
        return SolvabilityResult({match_col[j]: j for j in range(n)})
    # alternating reachability from the unmatched rows gives the Hall violator
    reach_rows = set(unmatched_rows)
    frontier = list(unmatched_rows)
    reach_cols: set[int] = set()
    while frontier:
        i = frontier.pop()
        for j in adj[i]:
            if j not in reach_cols:
                reach_cols.add(j)
                i2 = match_col[j]
                if i2 >= 0 and i2 not in reach_rows:
                    reach_rows.add(i2)
                    frontier.append(i2)
    return SolvabilityResult(None, tuple(sorted(reach_rows)))


def input_rank_condition(g: SparsityModel) -> bool:
    """Structural analogue of rank(df/du) = m: the input-to-equation
    incidence admits a matching saturating every input (_matching, lowest
    state index first)."""
    col = {x: j for j, x in enumerate(g.states)}
    adj = [sorted(col[x] for x in g.successors(u) if x in col) for u in g.inputs]
    return set(range(g.m)) <= set(_matching(adj, g.n))


def search_orders(g: SparsityModel, components: tuple[tuple[str, ...], ...],
                  max_total: int = 14) -> tuple[int, ...] | None:
    """Smallest square structurally-solvable system whose unknowns include
    every state and input, incrementing orders breadth-first over the total
    differentiation count."""
    m = len(components)
    need = set(g.states) | set(g.inputs)
    for total in range(m, max_total + 1):
        for orders in sorted(product(range(total + 1), repeat=m)):
            if sum(orders) != total:
                continue
            M = propagate_occurrence(g, OutputCandidate(components, tuple(orders)))
            if (M.square and need <= set(M.col_labels)
                    and check_structural_solvability(M).solvable):
                return tuple(orders)
    return None


# ---------------------------------------------------------------------------
# Bundled example models
# ---------------------------------------------------------------------------

def example_e() -> tuple[SparsityModel, dict[str, tuple[OutputCandidate, list]]]:
    """Three-state, two-input linear example used to illustrate both checks:
    the graph and {name: (output candidate, input pairing)}."""
    g = SparsityModel(
        states=("x1", "x2", "x3"),
        inputs=("u1", "u2"),
        edges=frozenset({("x1", "x1"), ("u1", "x1"),
                         ("x2", "x2"), ("x1", "x2"), ("u2", "x2"),
                         ("x3", "x3"), ("x1", "x3"), ("u2", "x3")}),
        rho=None,
    )
    candidates = {
        "x1x2": (OutputCandidate((("x1",), ("x2",)), (2, 2)),
                 [("u1", ("x1",)), ("u2", ("x2",))]),
        "x3x2": (OutputCandidate((("x3",), ("x2",)), (2, 2)),
                 [("u1", ("x3",)), ("u2", ("x2",))]),
    }
    return g, candidates


def illustrative_model() -> tuple[SparsityModel, dict[str, tuple[OutputCandidate, list]]]:
    """Three-state model whose second input is quadratic in the rate
    derivative; used for the disconnected-feasible-region study.  Returns
    the graph and {name: (output candidate, input pairing)}."""
    g = SparsityModel(
        states=("x1", "x2", "x3"),
        inputs=("u1", "u2"),
        edges=frozenset({("x2", "x1"), ("rho", "x1"),
                         ("x2", "x2"), ("u1", "x2"),
                         ("x2", "x3"), ("u2", "x3")}),
        rho="rho",
    )
    candidates = {
        "x1x3": (OutputCandidate((("x1",), ("x3",)), (2, 1)),
                 [("u1", ("x1",)), ("u2", ("x3",))]),
    }
    return g, candidates


def case_study_graph() -> tuple[SparsityModel, OutputCandidate,
                                list[tuple[str, tuple[str, ...]]]]:
    """Dependency graph of the reactor-separator model with the output
    candidate (cA2, cB2, T2, cA1) and its input pairing."""
    g = SparsityModel(
        states=("cA1", "cB1", "T1", "cA2", "cB2", "T2"),
        inputs=("FB", "Fp", "Q1", "Q2"),
        edges=frozenset({
            ("cA1", "cA1"), ("cA2", "cA1"), ("T1", "cA1"),
            ("FB", "cA1"), ("Fp", "cA1"), ("rho", "cA1"),
            ("cB1", "cB1"), ("cA1", "cB1"), ("cB2", "cB1"), ("T1", "cB1"),
            ("FB", "cB1"), ("Fp", "cB1"), ("rho", "cB1"),
            ("T1", "T1"), ("T2", "T1"), ("cA1", "T1"), ("cB1", "T1"),
            ("FB", "T1"), ("Fp", "T1"), ("Q1", "T1"), ("rho", "T1"),
            ("cA2", "cA2"), ("cA1", "cA2"), ("cB2", "cA2"),
            ("FB", "cA2"), ("rho", "cA2"),
            ("cB2", "cB2"), ("cB1", "cB2"), ("cA2", "cB2"),
            ("FB", "cB2"), ("rho", "cB2"),
            ("T2", "T2"), ("T1", "T2"), ("FB", "T2"), ("Q2", "T2"),
            ("rho", "T2"),
        }),
        rho="rho",
    )
    cand = OutputCandidate(
        components=(("cA2",), ("cB2",), ("T2",), ("cA1",)),
        orders=(3, 3, 1, 2),
    )
    pairing = [("FB", ("cA2",)), ("Fp", ("cB2",)),
               ("Q2", ("T2",)), ("Q1", ("cA1",))]
    return g, cand, pairing
