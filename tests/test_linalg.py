import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlc import linalg
from tlc.errors import DimensionMismatch, NotFullRank
from tlc.linalg import (
    hnf,
    lattice_coords,
    lattice_determinant_rect,
    lattice_member,
    lp_feasible,
    rank,
    solve,
)

F = Fraction


def test_rank_identity():
    assert rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3


def test_rank_zero_matrix():
    assert rank([[0, 0, 0, 0], [0, 0, 0, 0]]) == 0


def test_rank_slack_rows():
    # rows 000, 010, 001, 011: two independent directions
    assert rank([[0, 0, 0], [0, 1, 0], [0, 0, 1], [0, 1, 1]]) == 2


def test_rank_rational_entries():
    assert rank([[F(1, 2), F(1, 3)], [F(1, 4), F(1, 6)]]) == 1


def test_solve_identity():
    assert solve([[1, 0], [0, 1]], [3, 5]) == (F(3), F(5))


def test_solve_inconsistent():
    assert solve([[1, 1], [1, 1]], [0, 1]) is None


def test_solve_overdetermined():
    assert solve([[1, 1], [1, 0], [0, 1]], [1, 1, 0]) == (F(1), F(0))


def test_solve_checks_dimensions():
    with pytest.raises(DimensionMismatch):
        solve([[1, 0]], [1, 2])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rank_transpose_invariant(data):
    m = data.draw(st.integers(1, 8))
    n = data.draw(st.integers(1, 8))
    rows = [[data.draw(st.integers(0, 1)) for _ in range(n)] for _ in range(m)]
    cols = [list(c) for c in zip(*rows)]
    assert rank(rows) == rank(cols)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_solve_solution_substitutes(data):
    m = data.draw(st.integers(1, 5))
    n = data.draw(st.integers(1, 5))
    rows = [[data.draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(m)]
    y = [data.draw(st.integers(-3, 3)) for _ in range(m)]
    x = solve(rows, y)
    if x is not None:
        for r, yi in zip(rows, y):
            assert sum(F(a) * b for a, b in zip(r, x)) == yi


# --- Hermite normal form ---------------------------------------------------


def _mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))] for i in range(len(a))]


def _det(rows):
    rows = [list(r) for r in rows]
    n = len(rows)
    det = F(1)
    for c in range(n):
        p = next((i for i in range(c, n) if rows[i][c]), None)
        if p is None:
            return F(0)
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            det = -det
        det *= rows[c][c]
        pv = rows[c][c]
        rows[c] = [F(x) / pv for x in rows[c]]
        for i in range(c + 1, n):
            f = rows[i][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return det


def test_hnf_already_diagonal():
    h, u = hnf([[2, 0], [0, 3]])
    assert h == [[2, 0], [0, 3]]
    assert abs(_det(u)) == 1


def test_hnf_row_swap():
    h, u = hnf([[0, 1], [1, 0]])
    assert h == [[1, 0], [0, 1]]


def test_hnf_determinant_two():
    m = [[1, 1, 0], [1, 0, 1], [0, 1, 1]]
    h, u = hnf(m)
    diag = [h[i][i] for i in range(3)]
    assert diag[0] * diag[1] * diag[2] == 2
    assert _mat_mul(u, m) == h
    assert abs(_det(u)) == 1


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_hnf_properties(data):
    m = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(1, 4))
    mat = [[data.draw(st.integers(-4, 4)) for _ in range(n)] for _ in range(m)]
    h, u = hnf(mat)
    assert _mat_mul(u, mat) == h
    assert abs(_det(u)) == 1
    # re-application leaves H unchanged
    h2, _ = hnf(h)
    assert h2 == h
    # pivots positive; entries above each pivot reduced mod pivot
    r = 0
    for row in h:
        c = next((j for j, x in enumerate(row) if x), None)
        if c is None:
            continue
        assert row[c] > 0
        for above in range(r):
            assert 0 <= h[above][c] < row[c]
        r += 1


# --- lattices ---------------------------------------------------------------


def test_lattice_member_examples():
    basis = [(2, 0), (0, 2)]
    assert not lattice_member(basis, (1, 1))
    assert lattice_member(basis, (2, 2))
    assert not lattice_member([(1, 1, 0), (1, 0, 1), (0, 1, 1)], (1, 1, 1))


def test_lattice_member_empty_basis():
    assert lattice_member([], (0, 0))


def test_lattice_member_brute_force_agreement():
    rng = random.Random(7)
    tried = 0
    while tried < 25:
        vecs = [tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(3)]
        if rank(vecs) != 3:
            continue
        tried += 1
        basis = [list(v) for v in vecs]
        combos = set()
        for c in product(range(-3, 4), repeat=3):
            combos.add(tuple(sum(c[i] * vecs[i][j] for i in range(3)) for j in range(3)))
        for _ in range(20):
            v = tuple(rng.randint(-4, 4) for _ in range(3))
            # skip vectors whose unique rational coefficients exceed the oracle box
            coeff = solve([list(col) for col in zip(*vecs)], v)
            if coeff is not None and any(abs(x) > 3 for x in coeff):
                continue
            assert lattice_member(basis, v) == (v in combos)
        for c in product(range(-3, 4), repeat=3):
            v = tuple(sum(c[i] * vecs[i][j] for i in range(3)) for j in range(3))
            assert lattice_member(basis, v)
            # the basis is independent, so the coordinates are c itself
            assert lattice_coords(basis, v) == c


def test_check_int_matrix_takes_int_rows_and_converts_the_rest():
    rows = [(1, 2), [3, 4]]
    out = linalg._check_int_matrix(rows)
    assert out == [[1, 2], [3, 4]] and all(type(x) is int for r in out for x in r)
    assert out[1] is not rows[1]
    out = linalg._check_int_matrix([(F(2), True), (F(6, 3), "5")])
    assert out == [[2, 1], [2, 5]] and all(type(x) is int for r in out for x in r)
    out = linalg._check_int_matrix([iter((F(4, 2), "3")), map(int, "12")])
    assert out == [[2, 3], [1, 2]]
    for bad in ([(F(1, 2), 1)], [(1, "1/3")], [(1, 0.5)]):
        with pytest.raises(ValueError, match="integer matrix required"):
            linalg._check_int_matrix(bad)
    with pytest.raises(DimensionMismatch, match="ragged rows"):
        linalg._check_int_matrix([(1, 2), (3,)])


def test_lattice_determinant_examples():
    assert lattice_determinant_rect([(1, 0, 0), (0, 1, 0), (0, 0, 1)]) == 1
    assert lattice_determinant_rect([(2, 0), (0, 3)]) == 6
    assert lattice_determinant_rect([(1, 1, 0), (1, 0, 1), (0, 1, 1)]) == 2
    # extra generators refine the lattice: (1,1,1) halves the last one
    assert lattice_determinant_rect([(1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)]) == 1


def test_lattice_determinant_rect_requires_spanning():
    for gens in ([(1, 0, 0), (0, 1, 0)], [(1, 2), (2, 4)], []):
        with pytest.raises(NotFullRank):
            lattice_determinant_rect(gens)


# --- LP feasibility ---------------------------------------------------------


def test_lp_basic_feasible():
    x = lp_feasible([[1, 0], [0, 1]], [1, 1], [True, True])
    assert x == (F(1), F(1))


def test_lp_infeasible():
    assert lp_feasible([[1, 0], [0, 1]], [-1, 0], [True, True]) is None


def test_lp_lifted_combination():
    cols = [(1, 0, 0, 0, 1, 0), (1, 1, 1, 1, 1, 1)]
    rows = [[cols[0][i], cols[1][i]] for i in range(6)]
    lam = lp_feasible(rows, [2, 1, 1, 1, 2, 1], [True, True])
    assert lam == (F(1), F(1))


def test_lp_free_variables():
    # c with <c,(1,1)> = 0 and c_1 >= 1 exists (c = (1,-1))
    x = lp_feasible([[1, 1, 0], [1, 0, -1]], [0, 1], [False, False, True])
    assert x is not None
    assert x[0] + x[1] == 0 and x[0] - x[2] == 1


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_lp_answers_substitute_exactly(data):
    m = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(1, 5))
    rows = [[data.draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(m)]
    b = [data.draw(st.integers(-3, 3)) for _ in range(m)]
    nonneg = [data.draw(st.booleans()) for _ in range(n)]
    x = lp_feasible(rows, b, nonneg)
    if x is not None:
        for r, bi in zip(rows, b):
            assert sum(F(a) * v for a, v in zip(r, x)) == bi
        for flag, v in zip(nonneg, x):
            if flag:
                assert v >= 0
