from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rampsched.flatness import (OccurrenceMatrix, OutputCandidate, case_study_graph,
                                check_disjoint_cover, check_structural_solvability,
                                example_e, illustrative_model, input_rank_condition,
                                propagate_occurrence, search_orders)


# --- graph covering ---------------------------------------------------------

def test_example_e_x1x2_fails_x3_uncovered():
    g, cands = example_e()
    res = check_disjoint_cover(g, cands["x1x2"][1])
    assert not res.passed
    assert "x3" in res.uncovered


def test_example_e_x3x2_passes():
    g, cands = example_e()
    res = check_disjoint_cover(g, cands["x3x2"][1])
    assert res.passed
    visited = {v for p in res.paths for v in p[1:]}
    assert visited == {"x1", "x2", "x3"}
    # disjointness
    all_states = [v for p in res.paths for v in p[1:]]
    assert len(all_states) == len(set(all_states))


def test_illustrative_model_candidate_passes():
    g, cands = illustrative_model()
    res = check_disjoint_cover(g, cands["x1x3"][1])
    assert res.passed


def test_case_study_pairing_passes():
    g, cand, pairing = case_study_graph()
    res = check_disjoint_cover(g, pairing)
    assert res.passed
    visited = [v for p in res.paths for v in p[1:]]
    assert set(visited) == set(g.states)
    assert len(visited) == len(set(visited))


def test_pairing_size_checked():
    g, cands = example_e()
    with pytest.raises(ValueError, match="pairs"):
        check_disjoint_cover(g, [("u1", ("x1",))])


def test_input_rank_condition():
    g, _ = example_e()
    assert input_rank_condition(g)
    gc, _, _ = case_study_graph()
    assert input_rank_condition(gc)


@pytest.mark.parametrize("edges", [set(), {("u3", "x1")}],
                         ids=["no successor", "successor of u1 only"])
def test_input_rank_condition_fails_without_a_state_per_input(edges):
    """A third input of example E that reaches no state, or only the one
    state u1 alone reaches, leaves the inputs without a saturating
    matching."""
    g, _ = example_e()
    g3 = replace(g, inputs=g.inputs + ("u3",), edges=g.edges | edges)
    assert not input_rank_condition(g3)


# --- occurrence propagation: frozen cross patterns --------------------------

TABLE_E = {
    "xi1": {"x3"},
    "xi2": {"x2"},
    "xi1'": {"x1", "x3", "u2"},
    "xi2'": {"x1", "x2", "u2"},
    "xi1''": {"x1", "x3", "u1", "u2", "u2'"},
    "xi2''": {"x1", "x2", "u1", "u2", "u2'"},
}


def test_example_e_occurrence_pattern():
    g, cands = example_e()
    M = propagate_occurrence(g, cands["x3x2"][0])
    assert M.row_labels == ["xi1", "xi2", "xi1'", "xi2'", "xi1''", "xi2''"]
    for i, label in enumerate(M.row_labels):
        assert M.mark_set(i) == TABLE_E[label], label
    assert M.square and len(M.col_labels) == 6


ALL_STATES = {"cA1", "cB1", "T1", "cA2", "cB2", "T2"}
TABLE_CASE = {
    "xi1": {"cA2"},
    "xi2": {"cB2"},
    "xi3": {"T2"},
    "xi4": {"cA1"},
    "xi1'": {"cA1", "cA2", "cB2", "FB"},
    "xi2'": {"cB1", "cA2", "cB2", "FB"},
    "xi3'": {"T1", "T2", "FB", "Q2"},
    "xi4'": {"cA1", "cA2", "T1", "FB", "Fp"},
    "xi1''": {"cA1", "cB1", "T1", "cA2", "cB2", "FB", "Fp", "FB'"},
    "xi2''": {"cA1", "cB1", "T1", "cA2", "cB2", "FB", "Fp", "FB'"},
    "xi4''": ALL_STATES | {"FB", "Fp", "Q1", "FB'", "Fp'"},
    "xi1'''": ALL_STATES | {"FB", "Fp", "Q1", "FB'", "Fp'", "FB''"},
    "xi2'''": ALL_STATES | {"FB", "Fp", "Q1", "FB'", "Fp'", "FB''"},
}


def test_case_study_occurrence_pattern():
    g, cand, _ = case_study_graph()
    M = propagate_occurrence(g, cand)
    assert len(M.row_labels) == 13 and len(M.col_labels) == 13
    for i, label in enumerate(M.row_labels):
        assert M.mark_set(i) == TABLE_CASE[label], label


def test_order_zero_is_raw_sparsity():
    g, cand, _ = case_study_graph()
    M = propagate_occurrence(g, OutputCandidate(cand.components, (0, 0, 0, 0)))
    for i, reads in enumerate(cand.components):
        assert M.mark_set(i) == set(reads)


# --- structural solvability -------------------------------------------------

def test_example_e_matrix_has_perfect_matching():
    g, cands = example_e()
    M = propagate_occurrence(g, cands["x3x2"][0])
    res = check_structural_solvability(M)
    assert res.solvable
    # every matched entry is marked; bijection
    assert sorted(res.matching.keys()) == list(range(6))
    assert sorted(res.matching.values()) == list(range(6))
    assert all(M.marks[i, j] for i, j in res.matching.items())


def test_case_study_matrix_has_perfect_matching():
    g, cand, _ = case_study_graph()
    M = propagate_occurrence(g, cand)
    res = check_structural_solvability(M)
    assert res.solvable
    assert all(M.marks[i, j] for i, j in res.matching.items())


def test_identity_pattern_matches_diagonally():
    M = OccurrenceMatrix([f"r{i}" for i in range(4)],
                         [f"c{i}" for i in range(4)], np.eye(4, dtype=bool))
    res = check_structural_solvability(M)
    assert res.matching == {i: i for i in range(4)}


def test_non_square_rejected():
    M = OccurrenceMatrix(["r0"], ["c0", "c1"], np.ones((1, 2), dtype=bool))
    with pytest.raises(ValueError, match="1x2"):
        check_structural_solvability(M)


def test_hall_violator_reported():
    # rows 0 and 1 both depend only on column 0
    marks = np.array([[True, False], [True, False]])
    res = check_structural_solvability(OccurrenceMatrix(["a", "b"], ["c", "d"], marks))
    assert not res.solvable
    assert set(res.deficient_rows) == {0, 1}


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.data())
def test_matching_validity_property(n, data):
    marks = np.array(data.draw(
        st.lists(st.lists(st.booleans(), min_size=n, max_size=n),
                 min_size=n, max_size=n)))
    M = OccurrenceMatrix([f"r{i}" for i in range(n)],
                         [f"c{i}" for i in range(n)], marks)
    res = check_structural_solvability(M)
    if res.solvable:
        assert sorted(res.matching) == list(range(n))
        assert sorted(res.matching.values()) == list(range(n))
        assert all(marks[i, j] for i, j in res.matching.items())
    else:
        rows = res.deficient_rows
        cols = {j for i in rows for j in range(n) if marks[i, j]}
        assert len(cols) < len(rows)   # Hall violation certificate


def test_order_monotonicity():
    g, cand, _ = case_study_graph()
    M1 = propagate_occurrence(g, cand)
    bumped = OutputCandidate(cand.components,
                             tuple(o + 1 for o in cand.orders))
    M2 = propagate_occurrence(g, bumped)
    for lbl in M1.row_labels:
        i1 = M1.row_labels.index(lbl)
        i2 = M2.row_labels.index(lbl)
        assert M1.mark_set(i1) <= M2.mark_set(i2)


def test_search_orders_example_e():
    g, cands = example_e()
    comps = cands["x3x2"][0].components
    assert search_orders(g, comps) == (2, 2)


def test_search_orders_requires_full_coverage():
    # the found system must include every state and input among its columns
    g, cands = example_e()
    comps = cands["x3x2"][0].components
    orders = search_orders(g, comps)
    M = propagate_occurrence(g, OutputCandidate(comps, orders))
    assert set(g.states) | set(g.inputs) <= set(M.col_labels)


# --- ASCII rendering -------------------------------------------------------

def test_ascii_table_contains_circles():
    g, cands = example_e()
    M = propagate_occurrence(g, cands["x3x2"][0])
    res = check_structural_solvability(M)
    text = M.to_ascii(res.matching)
    assert "(x)" in text and "xi1''" in text
    assert len(text.splitlines()) == 7
