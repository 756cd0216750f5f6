"""Exhaustive generation of maximal classes, plus brute-force maximality oracles.

Every maximal class has a representative whose point side is a set of 0/1
vectors, so seeding a closure completion from every spanning subset of
{0,1}^d and deduplicating canonical slack forms enumerates all classes for
d <= 4, and the orbit search (_orbit_search) does so at d = 5; both read
each closure off bitmasks over U_d (_seed_context).  Two independent oracles
cross-check the closure machinery: a literal one-line-extension test (a
matrix with distinct lines is maximal in its rank class exactly when no 0/1
vector of its row space or column space can be added as a new line), and a
bounded scan that enumerates every tiny matrix and keeps the extension-free
ones.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from operator import getitem, itemgetter

from . import canon
from .canon import CanonicalForm
from .configuration import BinaryMatrix, _subset_sums, parse_matrix
from .corrcone import _table, all_points
from .errors import DimensionMismatch, DimensionTooLarge
from .linalg import _bareiss, rank

_MAX_DIM = 5
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
    """Per column j of a 0/1 table, the mask of the rows i with table[i][j],
    each read as one binary numeral."""
    return tuple(int("".join("1" if b else "0" for b in reversed(column)), 2) for column in zip(*table))


def _byte_tables(values, op, empty) -> tuple[tuple, ...]:
    """Per run of 8 consecutive values, the fold by op of the values over
    every subset of the run, indexed by the subset's mask (the empty subset
    gives empty).  Each entry is the one with its lowest set bit cleared,
    op'd with that bit's value.  There are at least two tables, the second
    (empty,) when there are at most 8 values, so a mask m over at most 16
    values reads as tables[0][m & 255] and tables[1][m >> 8]."""
    tables = []
    for low in range(0, max(len(values), 16), 8):
        run = values[low:low + 8]
        table = [empty] * (1 << len(run))
        for m in range(1, len(table)):
            table[m] = op(table[m & (m - 1)], run[(m & -m).bit_length() - 1])
        tables.append(tuple(table))
    return tuple(tables)


@functools.cache
def _seed_context(d: int):
    """(U_d, closed, missed, ones), built once per d on first use.

    A spanning 0/1 seed holds a 0/1 basis M, so its closure lies in U_d, the
    M^-1 s for s in {0,1}^d (found as integers in D M^-1; sorted as closure
    sorts).  Each y in U_d is kept as the integer row (q, q y), q the least
    positive integer that makes q y integral; no Fraction is built.
    closed[j] masks the y in U_d with <y, x_j> in {0,1}: a seed's
    closure is the AND of its points' masks.  ones[i] masks the points x_j
    with <u_i, x_j> = 1; both come from one table of subset sums.  missed[j] masks
    the hyperplanes spanned by 0/1 points (normals: the columns of D M^-1)
    that miss x_j; a proper span of 0/1 points lies in one, so a seed spans
    iff their missed masks OR to all.

    Only the bases whose point mask is the least in its S_d orbit are
    inverted (97 of the 1,365 d-sets of nonzero points at d = 4, 2,160 of
    169,911 at d = 5); the vectors and hyperplanes they give are then closed
    under the d! coordinate permutations.  This is exact: a coordinate
    permutation P maps 0/1 bases to 0/1 bases, and the basis P M gives the
    vectors P y (<P b, P y> = <b, y>) and the hyperplanes with normals P n,
    which hold the images under P of the points on the hyperplanes of M.
    So U_d and the set of hyperplanes are unions of S_d orbits of what the
    orbit-least bases give.

    Every e_i lies in U_d (M e_i is a column of M, so 0/1) and has 0/1
    products with every 0/1 point.  So a seed's first closure X' holds
    e_1..e_d and spans, and X'' lies inside {0,1}^d (its products with the
    e_i are its coordinates): it is the set of points x_j with X' inside
    closed[j].  The argument holds at every d, so no seed is degenerate.
    """
    points = all_points(d)
    found, cuts = set(), set()
    for basis in combinations(range(1, 1 << d), d):
        mask = sum(1 << j for j in basis)
        if any(image < mask for image in _orbit_images(d, mask)):
            continue
        rows, piv_rows, _, det = _bareiss([[*points[j], *points[1 << i]] for i, j in enumerate(basis)], d)
        if len(piv_rows) == d:
            inverse = [rows[r][d:] for r in piv_rows]
            for y in zip(*map(_subset_sums, inverse)):
                g = math.gcd(det, *y) if det > 0 else -math.gcd(det, *y)
                found.add(tuple(x // g for x in (det, *y)))
            cuts.update(tuple(p != 0 for p in _subset_sums(n)) for n in zip(*inverse))
    sigmas = list(permutations(range(d)))
    # (q, q y) goes to (q, q P y), (P y)_i = y_sigma[i]; the normal P n has with
    # x_k the product that n has with the point _point_images moves x_k to
    moves = [itemgetter(0, *(1 + s for s in sigma)) for sigma in sigmas]
    found = {move(v) for v in found for move in moves}
    moves = [itemgetter(*_point_images(d, sigma)) for sigma in sigmas]
    cuts = {move(cut) for cut in cuts for move in moves}
    scale = math.lcm(*(v[0] for v in found))
    u = sorted(found, key=lambda v: [x * (scale // v[0]) for x in v[1:]])
    products = [(den, _subset_sums(y)) for den, *y in u]
    closed = _column_masks([[p == 0 or p == den for p in sums] for den, sums in products])
    ones = tuple(sum(1 << j for j, p in enumerate(sums) if p == den) for den, sums in products)
    missed = _column_masks(sorted(cuts))
    return tuple(u), closed, missed, ones


@functools.cache
def _point_tables(d: int) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """(ands, ors), d <= 5, built once per d on first use: the byte tables
    (_byte_tables) of the AND of closed and of the OR of missed (see
    _seed_context) over every subset of each run of 8 points x_8k..x_8k+7
    (two runs at d <= 4, four at d = 5).  A seed mask m's first closure is
    the AND over k of ands[k][m >> 8k & 255], and it spans iff the OR of the
    ors[k][m >> 8k & 255] is every hyperplane."""
    u, closed, missed, _ = _seed_context(d)
    return _byte_tables(closed, int.__and__, (1 << len(u)) - 1), _byte_tables(missed, int.__or__, 0)


def _mask_slack(d: int, key: int, intent: int) -> BinaryMatrix:
    """The slack matrix of the completion whose first closure is key, a mask
    over U_d, and whose intent (its closure, see _seed_context) is intent, a
    mask over {0,1}^d: the rows are the set bits of key, the columns the
    points of intent in closure's order, and bit (i, j) is whether
    <u_i, x_j> = 1, read off the small mask ones[i]."""
    ones = _seed_context(d)[3]
    rows = list(_bits(key))
    cols = [j for j in _table(d).order if intent >> j & 1]
    return BinaryMatrix(len(rows), len(cols), bytes(ones[i] >> j & 1 for i in rows for j in cols))


def _point_images(d: int, sigma) -> list[int]:
    """The index of the image of each point x_j of {0,1}^d when coordinate i
    moves to coordinate sigma[i]."""
    return [sum((j >> i & 1) << s for i, s in enumerate(sigma)) for j in range(1 << d)]


@functools.cache
def _orbit_tables(d: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Per coordinate permutation of {0,1}^d, the byte tables (_byte_tables)
    of the images of the masks of each run of 8 points x_8k..x_8k+7, the
    k-th shifted down by 8k.  Built once per d on first use.

    A permutation moves each point x_j to the x_k with the coordinates
    moved, so a mask's image is the OR of its points' images, and the sum
    of its runs' images, which are disjoint.
    """
    return tuple(_byte_tables([1 << k for k in _point_images(d, sigma)], int.__or__, 0)
                 for sigma in permutations(range(d)))


def _orbit_images(d: int, mask: int):
    """The images of a mask over the points of {0,1}^d under the d!
    coordinate permutations, one table lookup per byte of the mask each."""
    runs = [mask >> low & 255 for low in range(0, max(1 << d, 16), 8)]
    return (sum(map(getitem, tables, runs)) for tables in _orbit_tables(d))


def _orbit_min(d: int, intent: int) -> int:
    """The least image of a mask over the points of {0,1}^d, d <= 5, under
    the d! coordinate permutations: _orbit_images with its lookups written
    out, two at d <= 4 and four at d = 5, which takes a quarter of its time
    per call at d <= 4 and half at d = 5."""
    if d == _MAX_DIM:
        b0, b1, b2, b3 = intent & 255, intent >> 8 & 255, intent >> 16 & 255, intent >> 24
        return min(t0[b0] | t1[b1] | t2[b2] | t3[b3] for t0, t1, t2, t3 in _orbit_tables(d))
    low, high = intent & 255, intent >> 8
    return min(a[low] | b[high] for a, b in _orbit_tables(d))


@functools.cache
def _orbit_form(d: int, rep: int):
    """The canonical form of the completion whose intent (its 0/1 point
    set, a mask over {0,1}^d, d <= 4) is rep.

    The intent's first closure is the AND of closed[j] over its points
    (see _seed_context), read off the byte tables of _point_tables as
    _seed_scan reads it, and it is the first closure of every seed whose
    intent this is.  The cache is process-wide and unbounded: it holds at
    most one entry per S_d orbit of spanning intents, 1, 3, 19 and 399 at
    d = 1..4; the d = 5 search (_orbit_search) would add 46,439.
    """
    a0, a1 = _point_tables(d)[0]
    key = a0[rep & 255] & a1[rep >> 8]
    return canon.canonical_form(_mask_slack(d, key, rep))


def _seed_scan(d: int, masks) -> tuple[dict, int, int]:
    """The canonical forms of the completion classes of the seed masks,
    d <= 4, by their bytes, with the numbers of seeds and of those that span.

    A seed's first closure X' holds every e_i, so it spans and X'' lies
    inside {0,1}^d (see _seed_context): at every d, degenerate_seeds is 0
    and every spanning seed is a completion.  X' is the AND of its points'
    closed masks over U_d and the seed spans iff the OR of their missed
    masks is every hyperplane; both are read off the byte tables of
    _point_tables, one lookup per byte of the seed mask each (two bytes at
    d <= 4).  A memo miss runs canon once per S_d orbit of
    intents X'': it takes the least image of X'' under the coordinate
    permutations (_orbit_min) and the cached form of that image
    (_orbit_form), whose slack matrix is read off the masks (_mask_slack).
    This is exact: a coordinate permutation P maps {0,1}^d onto itself,
    maps U_d onto itself (P M^-1 s = (M P^-1)^-1 s, and M P^-1 is a 0/1
    basis), keeps every product (<P y, P x> = <y, x>) and so commutes with
    closure.  So (PA, PB) has the slack matrix of (A, B) with its rows and
    columns reordered, and the class depends only on the intent's orbit.
    """
    forms = {}
    spanning = 0
    # seeds sharing a first closure (its mask over U_d) share the whole completion
    memo: dict = {}
    closed, missed = _seed_context(d)[1:3]
    hyperplanes = functools.reduce(int.__or__, missed)
    (a0, a1), (o0, o1) = _point_tables(d)
    for m in masks:
        low, high = m & 255, m >> 8
        if o0[low] | o1[high] != hyperplanes:
            continue
        key = a0[low] & a1[high]
        spanning += 1
        cached = memo.get(key)
        if cached is None:
            intent = sum(1 << j for j, c in enumerate(closed) if key & ~c == 0)
            cached = memo[key] = _orbit_form(d, _orbit_min(d, intent))
        forms[cached.bytes] = cached
    return forms, len(masks), spanning


def _orbit_search(d: int) -> tuple[dict, int, int]:
    """The canonical forms of all classes in dimension d <= 5 by their
    bytes, with the numbers of seeds closed and of those that span.

    Every intent X'' (a closed 0/1 point set, a mask over {0,1}^d) ends a
    chain that starts at the closure of the empty seed and adds one point
    at a time, closing after each step, and a coordinate permutation
    commutes with closure (see _seed_scan).  So expanding the least image
    (_orbit_min) of each intent met by every point outside it reaches every
    S_d orbit of intents: closed-set generation (Ganter and Reuter, Order
    1991) pruned by orbits (McKay, J. Algorithms 1998).  With key the first
    closure of X'' (the AND of its _point_tables lookups), X'' + x_j has
    the first closure k = key & closed[j], and its intent adds the x_i with
    k & outside[i] == 0.  Representatives are memoised by the (1 << d)-bit
    intent: keyed by the 28,250-bit first closure, the d = 5 search took
    711 MB instead of 61 MB.  There it closes 1,115,254 seeds (1,089,401
    spanning) and meets 49,058 orbits (46,439 spanning, one form each).
    """
    u, closed, missed, _ = _seed_context(d)
    ands, ors = _point_tables(d)
    hyperplanes = functools.reduce(int.__or__, missed)
    outside = [~c & (1 << len(u)) - 1 for c in closed]
    reps, spans, forms = {}, {}, {}  # intent -> representative, representative -> whether it spans
    seeds = spanning = 0
    todo = [sum(1 << i for i, o in enumerate(outside) if not o)]  # the closure of the empty seed
    while todo:
        intent = todo.pop()
        rep = reps.get(intent)
        if rep is None:
            rep = reps[intent] = _orbit_min(d, intent)
        if rep not in spans:
            runs = [rep >> low & 255 for low in range(0, 8 * len(ands), 8)]
            key = functools.reduce(int.__and__, map(getitem, ands, runs))
            spans[rep] = functools.reduce(int.__or__, map(getitem, ors, runs)) == hyperplanes
            if spans[rep]:
                form = canon.canonical_form(_mask_slack(d, key, rep))
                forms[form.bytes] = form
            free = [(1 << i, outside[i]) for i in range(1 << d) if not rep >> i & 1]
            for k in [key & closed[j] for j in range(1 << d) if not rep >> j & 1]:
                todo.append(rep | sum(b for b, o in free if not k & o))
        seeds += 1
        spanning += spans[rep]
    return forms, seeds, spanning


def enumerate_maximal(d: int, jobs: int = 1, store=None) -> EnumerationResult:
    """All maximal classes in dimension d, for d <= 5.

    For d <= 4 it seeds every spanning subset of {0,1}^d in (popcount,
    mask) order, which is complete because each class has a 0/1 point-side
    representative that reappears as its own seed.  At d = 5 it runs the
    orbit search (_orbit_search): 422 classes, with 46,439 canon calls
    answered by 625 searches.  Both run serially in this process; jobs has
    no effect and is kept for callers that pass it.
    """
    if d < 1:
        raise DimensionMismatch(f"dimension must be at least 1, got {d}")
    if d > _MAX_DIM:
        raise DimensionTooLarge(f"enumeration is limited to d <= {_MAX_DIM}")
    forms, seeds, spanning = _orbit_search(d) if d == _MAX_DIM else _seed_scan(d, _seed_masks(d))

    classes = tuple(forms[k] for k in sorted(forms))
    if store is not None:
        for form in classes:
            store.put(f"md/{d}", form.bytes, ".mat")
    stats = EnumStats(seeds_total=seeds, seeds_spanning=spanning, completions=spanning, degenerate_seeds=0,
                      classes=len(classes))
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
    if not m.distinct_lines():
        return False
    rows, cols = m.row_tuples(), m.col_tuples()
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
                m = BinaryMatrix(r, c, [(bits_mask >> i) & 1 for i in range(r * c)])
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

    Counts are artifacts of this computation, not published values.
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
    return "\n".join(lines) + "\n"
