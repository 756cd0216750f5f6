"""Exact rational and integer linear algebra.

All arithmetic is over ``fractions.Fraction`` and Python integers, so every
answer is a decision, not a numerical verdict.  Rationals and integers meet
in two functions.  ``scale_rows`` scales rows by one common denominator L
to integer rows; rows that are already ``int`` are used as they are.
``divide_rows`` turns integer rows over a pivot D into ``Fraction`` rows,
one ``Fraction`` per distinct numerator.  Elimination runs in one integer
kernel, ``_bareiss``: fraction-free Gauss-Jordan (Bareiss) with optional
augmented columns.  ``rank``, ``solve``, ``first_independent`` and
``inverse_and_det`` are thin wrappers over it, and ``Fraction`` objects are
built only for the values they return.  The lattice functions work on
integers throughout, and ``hnf`` gives a Hermite form once, against which
``_hnf_coords`` reduces any number of vectors.  The feasibility solver is a
plain phase-1 simplex over ``Fraction`` with Bland's rule, which terminates
on every input.  Matrices are lists of rows, and lattices are lists of
integer rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .errors import DimensionMismatch, NotFullRank

# a vector of exact numbers: ints where the code built ints, Fractions elsewhere
Vec = tuple[int | Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(xs) -> Vec:
    return tuple(frac(x) for x in xs)


def scale_rows(rows) -> tuple[list[tuple], list[tuple[int, ...]], int]:
    """(V, N, L): the rows as tuples V, L the least common denominator of
    all their entries and N = L V, in ints.  Rows of ints and Fractions
    are kept as they are and other rows become Fractions (vec); input that
    is all ints is found in one pass, and then N is V and L is 1."""
    exact = []
    scale = 1
    ints = True
    for r in map(tuple, rows):
        for x in r:
            if type(x) is not int:
                if any(type(x) is not int and type(x) is not Fraction for x in r):
                    r = vec(r)
                scale = lcm(scale, *(x.denominator for x in r))
                ints = False
                break
        exact.append(r)
    if ints:
        return exact, exact, 1
    return exact, [tuple(x.numerator * (scale // x.denominator) for x in r) for r in exact], scale


def divide_rows(nums, den: int) -> tuple[Vec, ...]:
    """The integer rows nums divided by den, one Fraction per distinct numerator."""
    fracs = {n: Fraction(n, den) for n in set().union(*nums)}
    return tuple(tuple(fracs[n] for n in y) for y in nums)


def _bareiss(rows: list[list[int]], ncols: int) -> tuple[list[list[int]], list[int], list[int], int]:
    """Fraction-free Gauss-Jordan elimination on integer rows, in place.

    Pivots on the first ncols columns; any further columns are augmented and
    only carried along.  Column c pivots on the first row, in row order, that
    is not yet a pivot row and is nonzero at c, so the pivot rows are the
    earliest maximal independent subset of the rows.  No row is moved.  Each
    step sets every other row to (p row - row[c] pivot_row) / p_prev, a
    division that is exact by Sylvester's identity (Bareiss 1968).

    Returns (rows, pivot rows, pivot columns, D), D the last pivot.  Each
    pivot row ends with D on its own pivot column and 0 on the others; every
    other row is 0 on the first ncols columns.  D is the determinant of the
    pivot submatrix with its rows in pivot order, so for a nonsingular square
    M augmented by I, the augmented part of the k-th pivot row is row k of
    D M^-1, an integer matrix equal to +-adj(M).
    """
    free = list(range(len(rows)))
    piv_rows: list[int] = []
    piv_cols: list[int] = []
    prev = 1
    for c in range(ncols):
        if not free:
            break
        p = next((i for i in free if rows[i][c]), None)
        if p is None:
            continue
        free.remove(p)
        prow = rows[p]
        pv = prow[c]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != p:
                rows[i] = [(x * pv - f * y) // prev for x, y in zip(row, prow)]
            elif not f and pv != prev:
                rows[i] = [x * pv // prev for x in row]
        prev = pv
        piv_rows.append(p)
        piv_cols.append(c)
    return rows, piv_rows, piv_cols, prev


def _sign(perm: list[int]) -> int:
    """Sign of the permutation k -> perm[k]."""
    inversions = sum(1 for i in range(len(perm)) for j in range(i) if perm[j] > perm[i])
    return -1 if inversions & 1 else 1


def rank(m) -> int:
    """Rank over the rationals, computed by fraction-free elimination."""
    rows = scale_rows(m)[1]
    return len(_bareiss(rows, len(rows[0]))[1]) if rows else 0


def solve(m, y) -> Optional[Vec]:
    """Some x with Mx = y, or None when the system is inconsistent.

    Eliminates the integerized augmented matrix [M | y]; free variables are
    fixed to zero, so the solution is unique exactly when M has full column
    rank.
    """
    rows = list(m)
    y = list(y)
    if len(rows) != len(y):
        raise DimensionMismatch(f"{len(rows)} rows vs {len(y)} right-hand sides")
    if not rows:
        return ()
    n = len(rows[0])
    aug, piv_rows, piv_cols, det = _bareiss(scale_rows((*r, v) for r, v in zip(rows, y))[1], n)
    pivots = set(piv_rows)
    if any(row[n] for i, row in enumerate(aug) if i not in pivots):
        return None
    x = [ZERO] * n
    for r, c in zip(piv_rows, piv_cols):
        x[c] = Fraction(aug[r][n], det)
    return tuple(x)


def inverse_and_det(rows) -> Optional[tuple[list[list[Fraction]], Fraction]]:
    """(M^-1, det M) for square M, or None when singular.

    M is scaled to integers by its common denominator L (scale_rows) and
    [L M | L I] is eliminated: its k-th pivot row ends as [D e_k | D (M^-1)_k],
    and det(L M) = +-D, so det M = +-D / L^n.
    """
    _, a, scale = scale_rows(rows)
    n = len(a)
    if any(len(r) != n for r in a):
        raise DimensionMismatch("inverse of a non-square matrix")
    aug = [[*r, *(scale if j == i else 0 for j in range(n))] for i, r in enumerate(a)]
    aug, piv_rows, _, det = _bareiss(aug, n)
    if len(piv_rows) < n:
        return None
    inv = [[Fraction(x, det) for x in aug[r][n:]] for r in piv_rows]
    return inv, Fraction(_sign(piv_rows) * det, scale ** n)


def first_independent(vectors, d) -> Optional[list[int]]:
    """Indices of the first d linearly independent vectors, in given order."""
    rows = scale_rows(vectors)[1]
    chosen = sorted(_bareiss(rows, len(rows[0]))[1]) if rows else []
    return chosen[:d] if len(chosen) >= d else None


# --- integer lattices ----------------------------------------------------


def _check_int_matrix(rows) -> list[list[int]]:
    """The rows as lists of ints, scaled by scale_rows: every entry must be
    integral, so that their common denominator is 1 (ValueError otherwise)."""
    _, ints, scale = scale_rows(rows)
    if scale != 1:
        raise ValueError("integer matrix required")
    out = [list(r) for r in ints]
    if out and any(len(r) != len(out[0]) for r in out):
        raise DimensionMismatch("ragged rows")
    return out


def hnf(m) -> tuple[list[list[int]], list[list[int]]]:
    """Row-style Hermite normal form H = U M with U unimodular.

    H is upper echelon with positive pivots; entries above each pivot are
    reduced into [0, pivot).  Zero rows sink to the bottom.
    """
    h = _check_int_matrix(m)
    rows_n = len(h)
    cols_n = len(h[0]) if h else 0
    u = [[1 if i == j else 0 for j in range(rows_n)] for i in range(rows_n)]
    r = 0
    for c in range(cols_n):
        if r == rows_n:
            break
        while True:
            nz = [i for i in range(r, rows_n) if h[i][c]]
            if not nz:
                break
            p = min(nz, key=lambda i: (abs(h[i][c]), i))
            if p != r:
                h[r], h[p] = h[p], h[r]
                u[r], u[p] = u[p], u[r]
            done = True
            for i in range(r + 1, rows_n):
                if h[i][c]:
                    q = h[i][c] // h[r][c]
                    h[i] = [a - q * b for a, b in zip(h[i], h[r])]
                    u[i] = [a - q * b for a, b in zip(u[i], u[r])]
                    if h[i][c]:
                        done = False
            if done:
                break
        if h[r][c]:
            if h[r][c] < 0:
                h[r] = [-a for a in h[r]]
                u[r] = [-a for a in u[r]]
            for i in range(r):
                q = h[i][c] // h[r][c]
                if q:
                    h[i] = [a - q * b for a, b in zip(h[i], h[r])]
                    u[i] = [a - q * b for a, b in zip(u[i], u[r])]
            r += 1
    return h, u


def lattice_coords(gens, v) -> Optional[tuple[int, ...]]:
    """Integer coordinates of v over the generator rows, or None when v is
    not an integer combination of them."""
    rows = _check_int_matrix(gens)
    v = [int(x) for x in v]
    if not rows:
        return None if any(v) else ()
    if len(v) != len(rows[0]):
        raise DimensionMismatch(f"vector of length {len(v)} vs generator dimension {len(rows[0])}")
    return _hnf_coords(*hnf(rows), v)


def _hnf_coords(h, u, v) -> Optional[tuple[int, ...]]:
    """Integer coordinates of v over the generators G of a Hermite form
    (H, U) = hnf(G), or None when v is not in their lattice.

    Reduces v against H row by row; the quotients mu satisfy v = mu H =
    (mu U) G, so mu U is a coordinate vector.  One form serves any number
    of vectors.
    """
    mu = [0] * len(h)
    for i, row in enumerate(h):
        c = next((j for j, x in enumerate(row) if x), None)
        if c is None:
            break
        if v[c]:
            q, rem = divmod(v[c], row[c])
            if rem:
                return None
            mu[i] = q
            v = [a - q * b for a, b in zip(v, row)]
    if any(v):
        return None
    return tuple(sum(m * r[j] for m, r in zip(mu, u)) for j in range(len(h)))


def lattice_member(gens, v) -> bool:
    """Whether v is an integer combination of the generator rows."""
    return lattice_coords(gens, v) is not None


def lattice_determinant_rect(gens) -> int:
    """Determinant of the lattice spanned by full-column-rank generators
    (k >= d): the product of the d pivots of their Hermite form."""
    rows = _check_int_matrix(gens)
    if not rows:
        raise NotFullRank("empty generator list")
    h = hnf(rows)[0]
    det = 1
    for i in range(len(rows[0])):
        if i >= len(h) or not any(h[i]):
            raise NotFullRank("generators do not span")
        p = next(x for x in h[i] if x)
        det *= p
    return abs(det)


# --- exact LP feasibility -------------------------------------------------


def lp_feasible(aeq, beq, nonneg: Sequence[bool]) -> Optional[Vec]:
    """A point of {x : Aeq x = beq, x_i >= 0 for flagged i}, or None.

    Phase-1 simplex over Fractions with Bland's rule (entering: least index
    with negative reduced cost; leaving: least basic index among tied
    ratios), so the search cannot cycle and the answer is exact.
    """
    rows = [[frac(x) for x in r] for r in aeq]
    b = [frac(v) for v in beq]
    if len(rows) != len(b):
        raise DimensionMismatch(f"{len(rows)} rows vs {len(b)} right-hand sides")
    n = len(rows[0]) if rows else 0
    if any(len(r) != n for r in rows):
        raise DimensionMismatch("ragged rows")
    if len(nonneg) != n:
        raise DimensionMismatch(f"{len(nonneg)} sign flags for {n} variables")
    if not rows:
        return ()

    # split free variables into positive parts: x_i = u_i - w_i
    col_of: list[tuple[int, int]] = []  # (original var, sign)
    for j in range(n):
        col_of.append((j, 1))
    for j in range(n):
        if not nonneg[j]:
            col_of.append((j, -1))
    ncols = len(col_of)

    m = len(rows)
    tab = []
    for i in range(m):
        row = [rows[i][j] * s for (j, s) in col_of]
        rhs = b[i]
        if rhs < 0:
            row = [-x for x in row]
            rhs = -rhs
        tab.append(row + [rhs])

    # artificial basis
    total = ncols + m
    for i in range(m):
        ext = [ZERO] * m
        ext[i] = ONE
        tab[i] = tab[i][:ncols] + ext + [tab[i][ncols]]
    basis = [ncols + i for i in range(m)]

    # reduced costs for min sum of artificials
    red = [ZERO] * (total + 1)
    for i in range(m):
        for j in range(total + 1):
            red[j] -= tab[i][j]
    for i in range(m):
        red[ncols + i] += ONE

    while True:
        enter = next((j for j in range(total) if red[j] < 0), None)
        if enter is None:
            break
        best = None
        for i in range(m):
            coef = tab[i][enter]
            if coef > 0:
                ratio = tab[i][total] / coef
                if best is None or ratio < best[0] or (ratio == best[0] and basis[i] < best[1]):
                    best = (ratio, basis[i], i)
        if best is None:
            raise RuntimeError("phase-1 objective unbounded; inconsistent tableau")
        leave = best[2]
        pv = tab[leave][enter]
        tab[leave] = [x / pv for x in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter]:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leave])]
        if red[enter]:
            f = red[enter]
            red = [x - f * y for x, y in zip(red, tab[leave])]
        basis[leave] = enter

    if -red[total] != 0:
        return None

    x = [ZERO] * n
    for i, bv in enumerate(basis):
        if bv < ncols:
            j, s = col_of[bv]
            x[j] += s * tab[i][total]
    return tuple(x)
