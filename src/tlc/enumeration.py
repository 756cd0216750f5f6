"""Exhaustive generation of maximal classes, plus brute-force maximality oracles.

Every maximal class has a representative whose point side is a set of 0/1
vectors, so seeding a closure completion from every spanning subset of
{0,1}^d and deduplicating canonical slack forms enumerates all classes for
small d.  Two independent oracles cross-check the closure machinery: a
literal one-line-extension test (a matrix with distinct lines is maximal in
its rank class exactly when no 0/1 vector of its row space or column space
can be added as a new line), and a bounded scan that enumerates every tiny
matrix and keeps the extension-free ones.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from typing import Optional

from . import canon
from .canon import CanonicalForm
from .configuration import BinaryMatrix, _subset_sums, closure, parse_matrix, slack_bits
from .corrcone import all_points
from .errors import DimensionMismatch, DimensionTooLarge
from .linalg import _bareiss, rank
from .parallel import chunked_map

_FULL_SCAN_LIMIT = 4
_SAMPLED_DIM = 5
# largest seed_limit of a sampled d = 5 run: on 2 cores with Python 3.11.7
# 4,000 seeds take 1.3 s and 20,000 take 5.1 s, so this many take about 30 s,
# a little more than the full d = 4 scan of 64,839 seeds
_SAMPLED_SEED_LIMIT = 100_000
_ORACLE_DIM_LIMIT = 2


@dataclass(frozen=True)
class EnumStats:
    seeds_total: int
    seeds_spanning: int
    completions: int
    degenerate_seeds: int
    classes: int


@dataclass(frozen=True)
class EnumerationResult:
    d: int
    classes: tuple[CanonicalForm, ...]
    stats: EnumStats


def _seed_masks(d: int) -> list[int]:
    n = 1 << d
    masks = [m for m in range(1 << n) if bin(m).count("1") >= d]
    masks.sort(key=lambda m: (bin(m).count("1"), m))
    return masks


def _bits(m: int):
    while m:
        yield (m & -m).bit_length() - 1
        m &= m - 1


def _column_masks(table) -> tuple[int, ...]:
    """Per column j of a 0/1 table, the mask of the rows i with table[i][j]."""
    return tuple(sum(b << i for i, b in enumerate(column)) for column in zip(*table))


@functools.cache
def _seed_context(d: int):
    """(U_d, closed, missed, ones), built once per d on first use.

    A spanning 0/1 seed holds a 0/1 basis M, so its closure lies in U_d, the
    M^-1 s for s in {0,1}^d (found as integers in D M^-1; sorted as closure
    sorts).  Each y in U_d is kept as the integer row (q, q y), q the least
    positive integer that makes q y integral; no Fraction is built.
    closed[j] masks the y in U_d with <y, x_j> in {0,1}: a seed's
    closure is the AND of its points' masks.  ones[j] masks the y with
    <y, x_j> = 1; both come from one table of subset sums.  missed[j] masks
    the hyperplanes spanned by 0/1 points (normals: the columns of D M^-1)
    that miss x_j; a proper span of 0/1 points lies in one, so a seed spans
    iff their missed masks OR to all.

    Every e_i lies in U_d (M e_i is a column of M, so 0/1) and has 0/1
    products with every 0/1 point.  So a seed's first closure X' holds
    e_1..e_d and spans, and X'' lies inside {0,1}^d (its products with the
    e_i are its coordinates): it is the set of points x_j with X' inside
    closed[j].  The argument holds at every d, so no seed is degenerate.
    """
    points = all_points(d)
    found, cuts = set(), set()
    for basis in combinations(points[1:], d):
        rows, piv_rows, _, det = _bareiss([[*b, *points[1 << i]] for i, b in enumerate(basis)], d)
        if len(piv_rows) == d:
            inverse = [rows[r][d:] for r in piv_rows]
            for y in zip(*map(_subset_sums, inverse)):
                g = math.gcd(det, *y) if det > 0 else -math.gcd(det, *y)
                found.add(tuple(x // g for x in (det, *y)))
            cuts.update(tuple(p != 0 for p in _subset_sums(n)) for n in zip(*inverse))
    scale = math.lcm(*(v[0] for v in found))
    u = sorted(found, key=lambda v: [x * (scale // v[0]) for x in v[1:]])
    products = [(den, _subset_sums(y)) for den, *y in u]
    closed = _column_masks([[p == 0 or p == den for p in sums] for den, sums in products])
    ones = _column_masks([[p == den for p in sums] for den, sums in products])
    missed = _column_masks(sorted(cuts))
    return tuple(u), closed, missed, ones


@functools.cache
def _points_in_closure_order(d: int) -> tuple[int, ...]:
    """The indices j of the points x_j of {0,1}^d, sorted as closure sorts."""
    return tuple(sorted(range(1 << d), key=all_points(d).__getitem__))


def _mask_slack(d: int, key: int) -> BinaryMatrix:
    """The slack matrix of the completion whose first closure is key, a mask
    over U_d: the rows are the set bits of key, the columns the points x_j
    with key inside closed[j] (its closure, see _seed_context) in closure's
    order, and bit (i, j) is whether <u_i, x_j> = 1."""
    _, closed, _, ones = _seed_context(d)
    rows = list(_bits(key))
    cols = [j for j in _points_in_closure_order(d) if key & ~closed[j] == 0]
    return BinaryMatrix(len(rows), len(cols), tuple(ones[j] >> i & 1 for i in rows for j in cols))


@functools.cache
def _orbit_tables(d: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Per coordinate permutation of {0,1}^d, d <= 4, two byte tables: the
    image of a mask of the points x_0..x_7, and of a mask of x_8..x_15
    shifted down by 8.  Built once per d on first use.

    A permutation moves each point x_j to the x_k with the coordinates
    moved, so a mask's image is the OR of its points' images.  Each entry
    is the one with its lowest set bit cleared, plus that bit's image.
    """
    n = 1 << d
    tables = []
    for sigma in permutations(range(d)):
        image = [sum((j >> i & 1) << s for i, s in enumerate(sigma)) for j in range(n)]
        pair = []
        for low in (0, 8):
            table = [0] * (1 << min(8, max(0, n - low)))
            for m in range(1, len(table)):
                table[m] = table[m & (m - 1)] | 1 << image[low + (m & -m).bit_length() - 1]
            pair.append(tuple(table))
        tables.append(tuple(pair))
    return tuple(tables)


def _orbit_min(d: int, intent: int) -> int:
    """The least image of a mask over the points of {0,1}^d, d <= 4, under
    the d! coordinate permutations."""
    low, high = intent & 255, intent >> 8
    return min(a[low] | b[high] for a, b in _orbit_tables(d))


@functools.cache
def _orbit_form(d: int, rep: int):
    """The canonical form of the completion whose intent (its 0/1 point
    set, a mask over {0,1}^d) is rep.

    The intent's first closure is the AND of closed[j] over its points
    (see _seed_context), and it is the first closure of every seed whose
    intent this is.  The cache is process-wide and unbounded: it holds at
    most one entry per S_d orbit of intents, 1, 3, 19 and 399 at d = 1..4.
    """
    closed = _seed_context(d)[1]
    key = functools.reduce(int.__and__, map(closed.__getitem__, _bits(rep)))
    return canon.canonical_form(_mask_slack(d, key))


def _enum_worker(args):
    """Completion classes of a run of seed masks, with the seed counts.

    A seed's first closure X' holds every e_i, so it spans and X'' lies
    inside {0,1}^d (see _seed_context): at every d, degenerate_seeds is 0
    and every spanning seed is a completion.  At d <= 4 X' is an AND of
    point masks over U_d, and a memo miss runs canon once per S_d orbit of
    intents X'': it takes the least image of X'' under the coordinate
    permutations (_orbit_min) and the cached form of that image
    (_orbit_form), whose slack matrix is read off the masks (_mask_slack).
    This is exact: a coordinate permutation P maps {0,1}^d onto itself,
    maps U_d onto itself (P M^-1 s = (M P^-1)^-1 s, and M P^-1 is a 0/1
    basis), keeps every product (<P y, P x> = <y, x>) and so commutes with
    closure.  So (PA, PB) has the slack matrix of (A, B) with its rows and
    columns reordered, and the class depends only on the intent's orbit.
    The sampled d = 5 run ranks each seed and takes both closures exactly.
    """
    d, masks = args
    forms = {}
    spanning = 0
    # seeds sharing a first closure (at d <= 4 its mask over U_d) share the whole completion
    memo: dict = {}
    small = d <= _FULL_SCAN_LIMIT
    points = all_points(d)
    if small:
        u, closed, missed, _ = _seed_context(d)
        everything, hyperplanes = (1 << len(u)) - 1, functools.reduce(int.__or__, missed)
    for m in masks:
        if small:
            key, span = everything, 0
            for j in _bits(m):
                key &= closed[j]
                span |= missed[j]
            if span != hyperplanes:
                continue
        else:
            vectors = [points[j] for j in _bits(m)]
            if rank(vectors) != d:
                continue
            key = closure(vectors, d)
        spanning += 1
        cached = memo.get(key)
        if cached is None:
            if small:
                intent = sum(1 << j for j, c in enumerate(closed) if key & ~c == 0)
                cached = _orbit_form(d, _orbit_min(d, intent))
            else:
                # (key, b) is a closure fixed point with both sides sorted and
                # distinct, so its products are the slack matrix as they stand
                b = closure(key, d)
                bits = slack_bits(key, b)
                cached = canon.canonical_form(BinaryMatrix(len(key), len(b), tuple(bits)))
            memo[key] = cached
        forms[cached.bytes] = cached
    return forms, spanning


def enumerate_maximal(
    d: int,
    jobs: int = 1,
    store=None,
    seed_limit: Optional[int] = None,
) -> EnumerationResult:
    """All maximal classes in dimension d, for d <= 4.

    Seeds every spanning subset of {0,1}^d in (popcount, mask) order, which
    is complete because each class has a 0/1 point-side representative that
    reappears as its own seed.  Dimension 5 is allowed only with an explicit
    seed_limit of 1 to _SAMPLED_SEED_LIMIT and samples seeds
    deterministically; that run can miss classes, and nothing in its output
    marks it as sampled.  A seed_limit at d <= 4 (a full scan) is refused.
    """
    if d < 1:
        raise DimensionMismatch(f"dimension must be at least 1, got {d}")
    if d > _SAMPLED_DIM:
        raise DimensionTooLarge(f"enumeration is limited to d <= {_SAMPLED_DIM}")
    if d < _SAMPLED_DIM and seed_limit is not None:
        raise DimensionMismatch(f"seed_limit applies only to the sampled dimension {_SAMPLED_DIM}")
    if d == _SAMPLED_DIM and seed_limit is None:
        raise DimensionTooLarge("dimension 5 needs an explicit seed_limit (sampled, possibly incomplete)")
    if d == _SAMPLED_DIM and seed_limit > _SAMPLED_SEED_LIMIT:
        raise DimensionTooLarge(f"sampled dimension 5 is limited to seed_limit <= {_SAMPLED_SEED_LIMIT}")
    if d == _SAMPLED_DIM and seed_limit < 1:
        raise DimensionTooLarge("sampled dimension 5 needs seed_limit >= 1")
    if d <= _FULL_SCAN_LIMIT:
        masks = _seed_masks(d)
        # built here, so forked --jobs workers inherit them
        _seed_context(d)
        _orbit_tables(d)
    else:
        import random

        rng = random.Random(0)
        n = 1 << d
        seen = set()
        while len(seen) < seed_limit:
            m = rng.getrandbits(n)
            if bin(m).count("1") >= d:
                seen.add(m)
        masks = sorted(seen, key=lambda m: (bin(m).count("1"), m))

    parts = chunked_map(_enum_worker, len(masks), jobs if len(masks) >= 256 else 1, lambda lo, hi: (d, masks[lo:hi]))
    forms = {}
    spanning = 0
    for f, s in parts:
        forms.update(f)
        spanning += s

    classes = tuple(forms[k] for k in sorted(forms))
    if store is not None:
        for form in classes:
            store.put(f"md/{d}", form.bytes, ".mat")
    stats = EnumStats(
        seeds_total=len(masks),
        seeds_spanning=spanning,
        completions=spanning,
        degenerate_seeds=0,
        classes=len(classes),
    )
    return EnumerationResult(d, classes, stats)


# --- independent oracles ---------------------------------------------------


def _space_echelon(vectors) -> tuple[list[list[Fraction]], list[int]]:
    basis: list[list[Fraction]] = []
    pivots: list[int] = []
    for v in vectors:
        row = [Fraction(x) for x in v]
        for b, c in zip(basis, pivots):
            if row[c]:
                f = row[c]
                row = [x - f * y for x, y in zip(row, b)]
        c = next((j for j, x in enumerate(row) if x), None)
        if c is None:
            continue
        pv = row[c]
        basis.append([x / pv for x in row])
        pivots.append(c)
    return basis, pivots


def _in_span(basis, pivots, v) -> bool:
    row = [Fraction(x) for x in v]
    for b, c in zip(basis, pivots):
        if row[c]:
            f = row[c]
            row = [x - f * y for x, y in zip(row, b)]
    return not any(row)


def oracle_is_maximal(m: BinaryMatrix) -> bool:
    """Literal one-line-extension maximality test, independent of closure code.

    m is maximal in its rank class exactly when it has distinct lines,
    positive rank, and no 0/1 vector of its row space (resp. column space)
    outside its rows (resp. columns): appending such a vector is an extension
    inside the class, and any strictly larger matrix provides one.
    """
    rows = m.row_tuples()
    cols = m.col_tuples()
    if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
        return False
    row_basis, row_piv = _space_echelon(rows)
    if not row_basis:
        return False
    col_basis, col_piv = _space_echelon(cols)
    row_set = set(rows)
    for cand in range(1 << m.cols):
        v = tuple((cand >> j) & 1 for j in range(m.cols))
        if v not in row_set and _in_span(row_basis, row_piv, v):
            return False
    col_set = set(cols)
    for cand in range(1 << m.rows):
        v = tuple((cand >> j) & 1 for j in range(m.rows))
        if v not in col_set and _in_span(col_basis, col_piv, v):
            return False
    return True


def oracle_maximal(d: int) -> tuple[CanonicalForm, ...]:
    """Scan every 0/1 matrix of at most 4 x 4 and keep the maximal rank-d ones.

    Sound for d <= 2: a maximal class there has at most 2^d <= 4 lines per
    side, so every extension stays inside the scan window.
    """
    if d > _ORACLE_DIM_LIMIT:
        raise DimensionTooLarge(f"the bounded oracle is limited to d <= {_ORACLE_DIM_LIMIT}")
    forms = {}
    for r in range(1, 5):
        for c in range(1, 5):
            for bits_mask in range(1 << (r * c)):
                bits = tuple((bits_mask >> i) & 1 for i in range(r * c))
                m = BinaryMatrix(r, c, bits)
                if not m.distinct_lines():
                    continue
                if rank(m.row_tuples()) != d:
                    continue
                if oracle_is_maximal(m):
                    f = canon.canonical_form(m)
                    forms[f.bytes] = f
    return tuple(forms[k] for k in sorted(forms))


def transpose_identified_count(classes) -> int:
    """Class count when a matrix and its transpose are considered one object."""
    seen = set()
    count = 0
    for f in classes:
        if f.bytes in seen:
            continue
        m = parse_matrix(f.bytes.decode("ascii"))
        tf = canon.canonical_form(m.transpose())
        seen.add(f.bytes)
        seen.add(tf.bytes)
        count += 1
    return count


def report(classes: dict) -> str:
    """Fixed-width table of class counts against the context exponents, one
    row per dimension d in the map from d to its canonical forms.

    Counts are artifacts of this computation, not published values.  Only a
    sampled run (an explicit seed_limit) reaches d = 5, so its row is marked
    as a lower bound.
    """
    lines = [
        "maximal classes by dimension (computed by this run)",
        "d | classes | mod transpose | log2(classes) | d^2/4 | d^2*log2(d) | d^2*log2(d)^3",
    ]
    for d in sorted(classes):
        count = len(classes[d])
        mod_t = transpose_identified_count(classes[d])
        log2c = math.log2(count) if count else float("-inf")
        l2d = math.log2(d) if d > 1 else 0.0
        lines.append(
            f"{d} | {count} | {mod_t} | {log2c:.3f} | {d * d / 4:.2f} | {d * d * l2d:.2f} | {d * d * l2d ** 3:.2f}"
        )
    if _SAMPLED_DIM in classes:
        lines.append(f"d = {_SAMPLED_DIM} comes from a sampled --seed-limit run: its counts are lower bounds")
    return "\n".join(lines) + "\n"
