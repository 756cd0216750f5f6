"""The integer closure and elimination kernel against Fraction references.

`reference_closure` is the earlier closure, which picks the first d
independent vectors by Gauss elimination over Fraction and takes the basis
inverse by Gauss-Jordan over Fraction.  It is kept here, with its two
elimination loops, as the oracle for the fraction-free code in
`tlc.configuration` and `tlc.linalg`.
"""

import random
from fractions import Fraction
from itertools import permutations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlc import linalg
from tlc.configuration import closure
from tlc.errors import DimensionMismatch, NotSpanning
from tlc.linalg import vec

F = Fraction


def _ref_first_independent(vectors, d):
    basis_rows, piv, chosen = [], [], []
    for idx, v in enumerate(vectors):
        if len(chosen) == d:
            break
        row = [F(x) for x in v]
        for b, c in zip(basis_rows, piv):
            if row[c]:
                f = row[c]
                row = [x - f * y for x, y in zip(row, b)]
        c = next((j for j, x in enumerate(row) if x), None)
        if c is None:
            continue
        pv = row[c]
        basis_rows.append([x / pv for x in row])
        piv.append(c)
        chosen.append(idx)
    return chosen if len(chosen) == d else None


def _ref_inverse_and_det(rows):
    a = [[F(x) for x in r] for r in rows]
    n = len(a)
    inv = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    det = F(1)
    for c in range(n):
        p = next((i for i in range(c, n) if a[i][c]), None)
        if p is None:
            return None
        if p != c:
            a[c], a[p] = a[p], a[c]
            inv[c], inv[p] = inv[p], inv[c]
            det = -det
        pv = a[c][c]
        det *= pv
        a[c] = [x / pv for x in a[c]]
        inv[c] = [x / pv for x in inv[c]]
        for i in range(n):
            if i != c and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
                inv[i] = [x - f * y for x, y in zip(inv[i], inv[c])]
    return inv, det


def reference_closure(vectors, d):
    vs = sorted(set(vec(v) for v in vectors))
    if not vs:
        raise NotSpanning("empty family")
    if any(len(v) != d for v in vs):
        raise DimensionMismatch("vectors of wrong dimension")
    scale = 1
    for v in vs:
        for x in v:
            scale = scale // gcd(scale, x.denominator) * x.denominator
    ints = [tuple(int(x * scale) for x in v) for v in vs]
    basis_idx = _ref_first_independent(ints, d)
    if basis_idx is None:
        raise NotSpanning(f"family does not span R^{d}")
    inv, det = _ref_inverse_and_det([ints[i] for i in basis_idx])
    delta = int(det)
    adj_cols = [[int(inv[r][i] * det) for r in range(d)] for i in range(d)]
    rest = [ints[j] for j in range(len(ints)) if j not in set(basis_idx)]
    out = []
    for mask in range(1 << d):
        yhat = [0] * d
        for i in range(d):
            if mask >> i & 1:
                yhat = [a + b for a, b in zip(yhat, adj_cols[i])]
        yhat = [scale * x for x in yhat]
        if all(sum(a * b for a, b in zip(yhat, x)) in (0, delta * scale) for x in rest):
            out.append(tuple(F(y, delta) for y in yhat))
    return tuple(sorted(out))


def _outcome(fn, vectors, d):
    try:
        return fn(vectors, d)
    except (NotSpanning, DimensionMismatch) as e:
        return type(e)


@st.composite
def families(draw):
    d = draw(st.integers(1, 5))
    rational = draw(st.booleans())
    if rational:
        entry = st.builds(F, st.integers(-2, 2), st.sampled_from([1, 1, 2, 3]))
    else:
        entry = st.integers(0, 1)
    vectors = draw(st.lists(st.tuples(*[entry] * d), min_size=0, max_size=2 * d + 2))
    return vectors, d


@settings(max_examples=300, deadline=None)
@given(families())
def test_closure_matches_fraction_reference(case):
    vectors, d = case
    assert _outcome(closure, vectors, d) == _outcome(reference_closure, vectors, d)


def test_closure_matches_reference_on_dependent_families():
    rng = random.Random(7)
    for _ in range(200):
        d = rng.randint(2, 5)
        vectors = [tuple(rng.randint(0, 1) for _ in range(d)) for _ in range(rng.randint(1, d))]
        # sums of members keep the family's span, often short of R^d
        vectors += [tuple(a + b for a, b in zip(u, v)) for u, v in zip(vectors, vectors[1:])]
        assert _outcome(closure, vectors, d) == _outcome(reference_closure, vectors, d)


def _perm_sign(p):
    sign, seen = 1, set()
    for start in range(len(p)):
        length = 0
        i = start
        while i not in seen:
            seen.add(i)
            i = p[i]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


def _leibniz_det(m):
    n = len(m)
    total = 0
    for p in permutations(range(n)):
        sign = _perm_sign(p)
        prod = 1
        for i in range(n):
            prod *= m[i][p[i]]
        total += sign * prod
    return total


@pytest.mark.parametrize("n", range(1, 8))
def test_kernel_adjugate(n):
    rng = random.Random(n)
    for trial in range(12 if n < 7 else 4):
        m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if trial % 3 == 0:
            # the last row a combination of the others: singular
            coeffs = [rng.randint(-2, 2) for _ in range(n - 1)]
            m[-1] = [sum(c * row[j] for c, row in zip(coeffs, m)) for j in range(n)]
        det = _leibniz_det(m)
        aug = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(m)]
        rows, piv_rows, piv_cols, last = linalg._bareiss(aug, n)
        if det == 0:
            assert len(piv_rows) < n
            assert linalg.inverse_and_det(m) is None
            continue
        assert piv_cols == list(range(n))
        assert last == linalg._sign(piv_rows) * det
        adj = [[linalg._sign(piv_rows) * x for x in rows[r][n:]] for r in piv_rows]
        ident = [[det * int(i == j) for j in range(n)] for i in range(n)]
        assert [[sum(m[i][k] * adj[k][j] for k in range(n)) for j in range(n)] for i in range(n)] == ident
        assert [[sum(adj[i][k] * m[k][j] for k in range(n)) for j in range(n)] for i in range(n)] == ident
        inv, got_det = linalg.inverse_and_det(m)
        assert got_det == det
        assert (inv, got_det) == _ref_inverse_and_det(m)
