"""Exact elimination and interpolation."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusvass.errors import DegreeExceeded
from torusvass.linalg import (ExactMatrix, ExactPoly, LinearSolution, eliminate,
                              interpolate_poly, solve_exact)


def system(rows, rhs):
    return ExactMatrix.augmented(rows, rhs)


def test_identity_system():
    res = solve_exact(system([[1, 0], [0, 1]], [4, 8]))
    assert res.solution == (4, 8) and res.rank == 2 and res.consistent


def test_dependent_rows():
    res = solve_exact(system([[1, 1], [2, 2]], [2, 4]))
    assert res.solution is None and res.rank == 1 and res.consistent


def test_consistent_redundancy():
    res = solve_exact(system([[1], [2], [3]], [5, 10, 15]))
    assert res.solution == (5,) and res.rank == 1 and res.consistent


def test_inconsistent():
    res = solve_exact(system([[1, 1], [1, 1]], [2, 3]))
    assert res.solution is None and not res.consistent


def test_exact_fractions_survive():
    res = solve_exact(system([[F(1, 3), F(1, 7)], [F(2, 5), F(1, 2)]], [1, 0]))
    a, b = res.solution
    assert a / 3 + b / 7 == 1 and 2 * a / 5 + b / 2 == 0


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=3),
                         min_size=3, max_size=3), min_size=3, max_size=3),
       st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=3),
                min_size=3, max_size=3))
def test_solver_recovers_random_vector(rows, v):
    rhs = [sum(c * x for c, x in zip(row, v)) for row in rows]
    res = solve_exact(system(rows, rhs))
    assert res.consistent
    if res.rank == 3:
        assert res.solution == tuple(v)


def test_interpolate_collinear():
    poly = interpolate_poly([(0, 1), (1, 2), (2, 3)], 1)
    assert poly.coefficients == (1, 1)


def test_interpolate_squares():
    poly = interpolate_poly([(1, 1), (2, 4), (3, 9), (4, 16)], 2)
    assert poly.coefficients == (0, 0, 1)


def test_interpolate_refit():
    samples = [(N, F(N * N - 1, 24)) for N in range(2, 6)]
    poly = interpolate_poly(samples, 2, variable="N")
    assert poly.coefficients == (F(-1, 24), 0, F(1, 24))
    assert all(poly.evaluate(x) == y for x, y in samples)


def test_interpolate_degree_exceeded():
    with pytest.raises(DegreeExceeded):
        interpolate_poly([(0, 0), (1, 1), (2, 8), (3, 27)], 2)


def test_interpolate_duplicate_abscissae():
    with pytest.raises(ValueError):
        interpolate_poly([(1, 1), (1, 2), (2, 3)], 1)


def test_poly_zero_degree_none():
    assert ExactPoly.make([]).degree is None
    assert ExactPoly.make([0, 0]).degree is None
    assert ExactPoly.make([3, 0]).degree == 0


@settings(max_examples=30, deadline=None)
@given(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=3),
                min_size=1, max_size=5))
def test_interpolate_reproduces_samples(coeffs):
    poly = ExactPoly.make(coeffs)
    degree = poly.degree if poly.degree is not None else 0
    points = [(x, poly.evaluate(x)) for x in range(degree + 3)]
    refit = interpolate_poly(points, degree)
    assert all(refit.evaluate(x) == y for x, y in points)


# ----------------------------------------------------------------------
# factor-then-apply against one-pass elimination
# ----------------------------------------------------------------------

def _reference_solve(system):
    """One-pass Gaussian elimination of the augmented system in Fractions."""
    m = [list(row) for row in system.entries]
    nrows, ncols = len(m), system.unknowns
    pivots = []
    prow = 0
    for pcol in range(ncols):
        pivot = None
        for i in range(prow, nrows):
            if m[i][pcol] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[prow], m[pivot] = m[pivot], m[prow]
        lead = m[prow][pcol]
        for i in range(prow + 1, nrows):
            if m[i][pcol] != 0:
                f = m[i][pcol] / lead
                for c in range(pcol, ncols + 1):
                    m[i][c] -= f * m[prow][c]
        pivots.append(pcol)
        prow += 1
    rank = prow
    consistent = all(m[i][ncols] == 0 for i in range(rank, nrows))
    if not consistent or rank < ncols:
        return LinearSolution(None, rank, consistent)
    sol = [F(0)] * ncols
    for i in range(rank - 1, -1, -1):
        pc = pivots[i]
        acc = m[i][ncols]
        for c in range(pc + 1, ncols):
            acc -= m[i][c] * sol[c]
        sol[pc] = acc / m[i][pc]
    return LinearSolution(tuple(sol), rank, consistent)


ENTRIES = st.one_of(st.just(F(0)), st.fractions(min_value=-4, max_value=4,
                                                max_denominator=4))


@st.composite
def linear_systems(draw):
    """Random rational systems: zero columns, more rows than unknowns, rows
    that are combinations of others, right-hand sides inside or outside the
    column space."""
    unknowns = draw(st.integers(0, 4))
    nrows = draw(st.integers(1, 7))
    rows = draw(st.lists(st.lists(ENTRIES, min_size=unknowns, max_size=unknowns),
                         min_size=nrows, max_size=nrows))
    zero_col = draw(st.integers(-1, unknowns - 1))
    for row in rows:
        if zero_col >= 0:
            row[zero_col] = F(0)
    for i in range(2, nrows):
        if draw(st.booleans()):  # rank deficiency
            a, b = draw(ENTRIES), draw(ENTRIES)
            rows[i] = [a * u + b * v for u, v in zip(rows[0], rows[1])]
    if draw(st.booleans()):
        x = draw(st.lists(ENTRIES, min_size=unknowns, max_size=unknowns))
        rhs = [sum((c * v for c, v in zip(row, x)), F(0)) for row in rows]
        if draw(st.booleans()):  # push one row off the column space
            rhs[draw(st.integers(0, nrows - 1))] += draw(ENTRIES)
    else:
        rhs = draw(st.lists(ENTRIES, min_size=nrows, max_size=nrows))
    return ExactMatrix.augmented(rows, rhs) if unknowns else ExactMatrix(
        tuple((b,) for b in rhs), 0)


@settings(max_examples=150, deadline=None)
@given(linear_systems())
def test_factor_then_apply_equals_one_pass(system):
    assert solve_exact(system) == _reference_solve(system)


def test_one_elimination_serves_many_right_hand_sides():
    lhs = [[F(1), F(2)], [F(3), F(4)], [F(5), F(6)]]
    elimination = eliminate(lhs, 2)
    for rhs in ([F(1), F(1), F(1)], [F(1), F(2), F(3)], [F(0), F(1, 3), F(2, 3)]):
        assert elimination.solve(rhs) == _reference_solve(ExactMatrix.augmented(lhs, rhs))
    with pytest.raises(ValueError, match="2 right-hand entries for 3 rows"):
        elimination.solve([F(1), F(2)])
