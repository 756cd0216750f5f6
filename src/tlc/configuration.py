"""Two-level configurations and their closure algebra.

A configuration is a pair (A, B) of rational vector sets spanning R^d whose
pairwise inner products are all 0 or 1.  A vector is a tuple of exact
numbers: ints wherever the code built ints (the 0/1 side of a rank
factorization, say), Fractions elsewhere; an int and the equal Fraction
compare, hash and serialize alike.  The closure of a spanning set X is the
finite set of all vectors with product 0/1 against every member of X;
iterating closure from any spanning seed reaches a fixed pair (a maximal
configuration), and the 0/1 matrix of products is its slack matrix.

Vector sets are kept sorted in a fixed lexicographic order on exact
rationals, so slack matrices and all downstream canonical forms are
deterministic.  A maximal configuration's class is fixed by its slack
matrix, and every normal form here is computed from the slack bits alone
by one rank factorization (_rank_factor): `from_slack_matrix`,
`normalize_to_binary` and the binary/integral rewrite in `geometry`.

Products are checked once, where vectors come from outside: the
`Configuration` constructor (JSON input, the tests' oracles) scales both
sides, ranks them and multiplies every pair.  A configuration the code
derives carries the products it has already decided instead
(_with_products): the slack bits of a rank factorization, or the bits that
closure decides for each vector it keeps (_with_closure).

Class questions about a 0/1 matrix are answered from one process-wide memo
(_MEMO).  canon's canonical form and rank_and_maximality are invariants of
the matrix's class under row and column permutations: the form by its
definition, and the rank and maximality because a row permutation keeps
the row space and permutes the coordinates of the column space (a column
permutation the other way round), so it keeps the rank, whether the lines
are distinct, and the number of 0/1 vectors in each space.  The memo's key
(BinaryMatrix._key) is m with its rows and columns sorted alternately by
(number of ones, bits), until a round moves no column or for at most
_KEY_ROUNDS rounds, plus m's shape.  Sorting only reorders lines, so the
key is always a row and column permutation of m: two matrices with equal
keys are in one class and have the same answers, and a hit returns the
stored answer exactly.  Equivalent matrices need not get equal keys; such
a miss only costs a computation.  The count of ones comes first because no
permutation changes it, so equivalent inputs meet far more often: on the
`queries` benchmark workload the sort by bits alone gives 1,036 keys for
339 forms, the sort by (ones, bits) 390, and three rounds settle every key
there.  A BinaryMatrix is immutable and computes its key at most once, so
a maximality check followed by a canonical form of one matrix keys it once.

An entry holds the answers computed so far for its key, each filled when it
is first computed: canon's CanonicalForm and the (rank, maximal) pair.  A
miss runs the unchanged computation on m itself, so every refusal is that
of an input not seen before, and a computation that raises (a
DimensionTooLarge, say) stores nothing.  A matrix with no entries bypasses
the memo.  The memo holds at most _MEMO_ENTRIES entries and at most
_MEMO_CELLS matrix cells in all, counting an entry's cells once whatever it
holds, and drops the least recently used entries first; a matrix of more
cells than that is neither keyed nor stored.  An entry keeps about two bytes per cell
(the key's text and the form's) and a few hundred bytes more: 4,096 forms
of 16 x 16 matrices, a full memo, hold 3.6 MB.  It is per process: `--jobs`
workers each fill their own, and since every answer is exact the output
cannot depend on which worker saw a class first.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd
from operator import mul

from . import linalg
from .errors import (
    DegenerateSeed,
    DimensionMismatch,
    DimensionTooLarge,
    NonBinarySlack,
    NotSpanning,
    ParseError,
    RepeatedLine,
)
from .linalg import Vec, vec

SIDE_A = "A"
SIDE_B = "B"

# closure keeps 2^d subset sums per coordinate: about 50 MB at d = 16 (the
# identity matrix check), and 4x more per extra 2 in d
_CLOSURE_RANK_LIMIT = 16

# the class memo's key and bounds, fixed here (see the module docstring)
_KEY_ROUNDS = 4
_MEMO_ENTRIES = 4096
_MEMO_CELLS = 1 << 20

_ASCII_BITS = bytes.maketrans(b"\x00\x01", b"01")


@dataclass(frozen=True)
class BinaryMatrix:
    """0/1 matrix, row-major bits.  Distinctness of lines is not enforced here."""

    rows: int
    cols: int
    bits: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise DimensionMismatch("negative shape")
        bits = tuple(int(b) for b in self.bits)
        if len(bits) != self.rows * self.cols:
            raise DimensionMismatch(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} bits, got {len(bits)}"
            )
        if any(b not in (0, 1) for b in bits):
            raise ValueError("entries must be 0 or 1")
        object.__setattr__(self, "bits", bits)

    @classmethod
    def from_rows(cls, rows) -> "BinaryMatrix":
        rows = [tuple(int(x) for x in r) for r in rows]
        m = len(rows)
        n = len(rows[0]) if rows else 0
        if any(len(r) != n for r in rows):
            raise DimensionMismatch("ragged rows")
        return cls(m, n, tuple(x for r in rows for x in r))

    def row_bits(self, i) -> tuple[int, ...]:
        return self.bits[i * self.cols:(i + 1) * self.cols]

    def col_bits(self, j) -> tuple[int, ...]:
        return tuple(self.bits[i * self.cols + j] for i in range(self.rows))

    def row_tuples(self) -> list[tuple[int, ...]]:
        return [self.row_bits(i) for i in range(self.rows)]

    def col_tuples(self) -> list[tuple[int, ...]]:
        return [self.col_bits(j) for j in range(self.cols)]

    def transpose(self) -> "BinaryMatrix":
        return BinaryMatrix.from_rows(self.col_tuples()) if self.rows * self.cols else BinaryMatrix(self.cols, self.rows, ())

    def distinct_lines(self) -> bool:
        rows = self.row_tuples()
        cols = self.col_tuples()
        return len(set(rows)) == len(rows) and len(set(cols)) == len(cols)

    def to_text(self) -> str:
        lines = [f"{self.rows} {self.cols}"]
        lines.extend("".join(str(b) for b in self.row_bits(i)) for i in range(self.rows))
        return "\n".join(lines) + "\n"

    def ascii_bits(self) -> bytes:
        """The row-major bits as the ASCII digits 0 and 1."""
        return bytes(self.bits).translate(_ASCII_BITS)

    @cached_property
    def _key(self) -> tuple[int, int, bytes]:
        """The class memo's key, computed once per matrix (_memo_key)."""
        return _memo_key(self.ascii_bits(), self.rows, self.cols)


def _line_weight(line: bytes) -> tuple[int, bytes]:
    """A line's number of ones (49 is ord("1")), then its bits."""
    return line.count(49), line


def _memo_key(text: bytes, rows: int, cols: int) -> tuple[int, int, bytes]:
    """The shape and the text of a row and column permutation of the matrix
    with row-major text: rows and columns sorted alternately by (ones,
    bits) until a round moves no column, for at most _KEY_ROUNDS rounds."""
    lines = [text[k:k + cols] for k in range(0, len(text), cols)]
    for _ in range(_KEY_ROUNDS):
        lines.sort(key=_line_weight)
        flat = b"".join(lines)
        columns = sorted((flat[c::cols] for c in range(cols)), key=_line_weight)
        flat = b"".join(columns)
        moved = [flat[i::rows] for i in range(rows)]
        if moved == lines:
            break
        lines = moved
    return rows, cols, b"".join(lines)


# the slots of a memo entry: canon's CanonicalForm, and (rank, maximal)
_FORM = 0
_RANK = 1


class _Memo:
    """Class answers by BinaryMatrix._key, least recently used first,
    holding at most _MEMO_ENTRIES entries of at most _MEMO_CELLS matrix
    cells in all.  An entry has one slot per kind of answer, None until
    that answer is first computed, and counts its cells once."""

    def __init__(self):
        self.entries: OrderedDict[tuple[int, int, bytes], list] = OrderedDict()
        self.cells = 0

    def get(self, key, slot: int):
        entry = self.entries.get(key)
        if entry is None:
            return None
        self.entries.move_to_end(key)
        return entry[slot]

    def put(self, key, slot: int, answer) -> None:
        entry = self.entries.get(key)
        if entry is not None:
            entry[slot] = answer
            return
        entry = [None, None]
        entry[slot] = answer
        self.entries[key] = entry
        self.cells += len(key[2])
        while self.cells > _MEMO_CELLS or len(self.entries) > _MEMO_ENTRIES:
            self.cells -= len(self.entries.popitem(last=False)[0][2])

    def clear(self) -> None:
        self.entries.clear()
        self.cells = 0


_MEMO = _Memo()


def _class_answer(m: BinaryMatrix, slot: int, compute):
    """compute(m), a class invariant, from the memo when a matrix with m's
    key was answered before.  A matrix with no entries or with more than
    _MEMO_CELLS cells bypasses the memo, and a compute that raises stores
    nothing."""
    if not m.rows or not m.cols or m.rows * m.cols > _MEMO_CELLS:
        return compute(m)
    answer = _MEMO.get(m._key, slot)
    if answer is None:
        answer = compute(m)
        _MEMO.put(m._key, slot, answer)
    return answer


def parse_matrix(text: str) -> BinaryMatrix:
    """Parse the matrix text format: header ``m n`` then m lines of n bits."""
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty input", line=1)
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError("header must be 'm n'", line=1)
    try:
        m, n = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError("header must be two integers", line=1) from None
    if m < 0 or n < 0:
        raise ParseError("negative shape", line=1)
    bits: list[int] = []
    for i in range(m):
        if 1 + i >= len(lines):
            raise ParseError(f"expected {m} bit rows, found {i}", line=len(lines))
        row = lines[1 + i].rstrip()
        if len(row) != n:
            raise ParseError(f"expected {n} characters", line=2 + i, column=len(row) + 1)
        for j, ch in enumerate(row):
            if ch not in "01":
                raise ParseError(f"invalid character {ch!r}", line=2 + i, column=j + 1)
            bits.append(int(ch))
    refuse_trailing(lines, 1 + m, "matrix")
    return BinaryMatrix(m, n, tuple(bits))


def refuse_trailing(lines: list[str], start: int, what: str) -> None:
    """Raise a ParseError at the first non-blank line from lines[start] on."""
    for i in range(start, len(lines)):
        if lines[i].strip():
            raise ParseError(f"trailing content after {what}", line=i + 1)


@dataclass(frozen=True)
class SlackMatrix:
    """Product matrix of a configuration, with the vectors that label its lines."""

    matrix: BinaryMatrix
    row_labels: tuple[Vec, ...]
    col_labels: tuple[Vec, ...]

    def __post_init__(self):
        if len(self.row_labels) != self.matrix.rows or len(self.col_labels) != self.matrix.cols:
            raise DimensionMismatch("label counts do not match matrix shape")


@dataclass(frozen=True)
class Configuration:
    """Pair (A, B) of spanning vector sets with all pairwise products in {0,1}.

    The vectors are kept as given, sorted and without repeats (a vector
    that is not all ints and Fractions becomes Fractions), and the products
    checked on construction are kept, row-major over the sorted sides, as
    the slack matrix's bits.  Configurations derived inside the package
    skip the checks and carry the products they already know
    (_with_products).
    """

    d: int
    A: tuple[Vec, ...]
    B: tuple[Vec, ...]
    _bits: tuple[int, ...] = field(default=(), init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.d < 1:
            raise DimensionMismatch("dimension must be at least 1")
        sides = []
        for vectors, name in ((self.A, "A"), (self.B, "B")):
            keyed, scale = _scaled(vectors)
            keyed = {k: keyed[k] for k in sorted(keyed)}
            object.__setattr__(self, name, tuple(keyed.values()))
            sides.append((keyed, scale))
        for (keyed, _), name in zip(sides, ("A", "B")):
            if any(len(v) != self.d for v in keyed):
                raise DimensionMismatch(f"side {name} has vectors of wrong dimension")
            if not keyed or linalg.rank(list(keyed)) != self.d:
                raise NotSpanning(f"side {name} does not span R^{self.d}")
        object.__setattr__(self, "_bits", tuple(_slack_bits(*sides[0], *sides[1])))

    def is_maximal(self) -> bool:
        """Whether A and B are each other's closures: is_maximal_in_md of the
        slack matrix (its lines are distinct and its rank is d, as both sides
        span)."""
        return is_maximal_in_md(slack_matrix(self).matrix)


def _with_products(d: int, a, b, rows) -> Configuration:
    """Configuration(d, a, b) for sides whose products are already decided:
    row i of the iterable rows is (<a[i], b[j]>)_j, each 0 or 1.

    Nothing is checked and nothing is sorted: the caller hands over the
    sides as __post_init__ would keep them, each a sorted tuple of distinct
    vectors of ints and Fractions of length d >= 1 spanning R^d.  The
    callers sort by integer vectors in the same order (the closure's scaled
    keys, a factorization's numerators over a positive D), which costs less
    than comparing Fractions.
    """
    cfg = object.__new__(Configuration)
    object.__setattr__(cfg, "d", d)
    object.__setattr__(cfg, "A", a)
    object.__setattr__(cfg, "B", b)
    object.__setattr__(cfg, "_bits", tuple(chain.from_iterable(rows)))
    return cfg


def _with_closure(d: int, y: _Closure) -> Configuration:
    """Configuration(d, X, y) for y = closure(X, d), with the products that
    closure decided (_Closure.products).  X spans, or closure would have
    raised NotSpanning; the caller knows why y spans."""
    return _with_products(d, y.family, tuple(y), y.products())


def spans(vectors, d: int) -> bool:
    return bool(vectors) and linalg.rank([list(v) for v in vectors]) == d


def _scaled(vectors) -> tuple[dict[tuple[int, ...], tuple], int]:
    """The distinct vectors keyed by L v, L the least common denominator of
    all their entries (linalg.scale_rows); the keys sort as the vectors do."""
    exact, ints, scale = linalg.scale_rows(vectors)
    return dict(zip(ints, exact)), scale


def slack_bits(rows, cols) -> list[int]:
    """The row-major products of two vector families, each checked 0/1
    (NonBinarySlack otherwise)."""
    return _slack_bits(*_scaled(rows), *_scaled(cols))


def _slack_bits(a: dict, la: int, b: dict, lb: int) -> list[int]:
    """Row-major products of two sides given as _scaled keys, checked 0/1.

    With A scaled by L_A and B by L_B, each product is an integer that must
    be 0 or L_A L_B.
    """
    target = la * lb
    bits = []
    for ai, av in a.items():
        for bi, bv in b.items():
            p = sum(map(mul, ai, bi))
            if p == 0:
                bits.append(0)
            elif p == target:
                bits.append(1)
            else:
                raise NonBinarySlack(f"product {Fraction(p, target)} of {vec(av)} and {vec(bv)}")
    return bits


def closure(vectors, d: int) -> tuple[Vec, ...]:
    """All y with <y, x> in {0,1} for every x in the spanning family.

    Any basis b_1..b_d of the family fixes y by its products s in {0,1}^d,
    so the closure is the set of the 2^d solutions of <y, b_k> = s_k whose
    products with every other family vector are 0/1.  The computation is
    over the integers: with the family scaled by its common denominator L to
    the columns of X, one fraction-free elimination of [X | I] picks the
    basis (its pivot columns), turns each other column into D times its
    coordinates w over the basis, and turns I into G with <g_k, L b_j> =
    D [k = j] (D the last pivot).  Pattern s is kept exactly when
    sum_{k in s} w_k is 0 or D for every other column, and its y is
    L sum_{k in s} g_k / D.

    The result is a tuple of the y, sorted by their integer numerators over
    D > 0, which carries what the filter decided (_Closure).  A family that
    is already an _Integral (a closure, or decompress's solved points)
    gives the same L and X from its integer numerators (_Integral.scaled),
    with no Fraction read.

    The 2^d patterns are tabulated, so d above _CLOSURE_RANK_LIMIT raises
    DimensionTooLarge before [X | I] is built.
    """
    if isinstance(vectors, _Integral):
        (xs, scale), family = vectors.scaled(), tuple(vectors)
    else:
        keyed, scale = _scaled(vectors)
        xs = sorted(keyed)
        family = tuple(map(keyed.__getitem__, xs))
    if not xs:
        raise NotSpanning("empty family")
    if any(len(v) != d for v in xs):
        raise DimensionMismatch("vectors of wrong dimension")
    if d < 1:
        raise DimensionMismatch("dimension must be at least 1")
    m = len(xs)
    # a spanning family has rank d: fewer than d vectors cannot span, and a
    # rank above the limit is refused anyway, so neither check needs [X | I]
    if m < d:
        raise NotSpanning(f"family does not span R^{d}")
    if d > _CLOSURE_RANK_LIMIT:
        raise DimensionTooLarge(f"closure is limited to rank <= {_CLOSURE_RANK_LIMIT}")
    rows = [list(col) + [0] * d for col in zip(*xs)]
    for r in range(d):
        rows[r][m + r] = 1
    rows, piv_rows, piv_cols, det = linalg._bareiss(rows, m)
    if len(piv_cols) < d:
        raise NotSpanning(f"family does not span R^{d}")
    if det < 0:
        det = -det
        rows = [[-x for x in row] for row in rows]
    pivots = [rows[r] for r in piv_rows]

    coords = [_subset_sums([scale * row[m + r] for row in pivots]) for r in range(d)]
    ys = list(zip(*coords))
    alive, sums = _zero_one_patterns(pivots, piv_cols, det, m)
    alive.sort(key=ys.__getitem__)
    out = _Closure._of([ys[s] for s in alive], det)
    out.family = family
    out._decided = (alive, sums, det, d // 2)
    return out


class _Integral(tuple):
    """Distinct exact vectors, sorted, as a tuple that also carries them as
    integer numerators `nums` over a positive denominator `den`, sorted the
    same way, so that closure reads them without scaling Fractions again."""

    @classmethod
    def _of(cls, nums, den: int):
        """The vectors nums / den, for sorted distinct nums and den > 0."""
        out = cls(linalg.divide_rows(nums, den))
        out.nums, out.den = nums, den
        return out

    @classmethod
    def _over(cls, nums, den: int):
        """The distinct vectors nums / den, sorted: den is made positive
        first, so that the numerators sort as the vectors do."""
        if den < 0:
            den = -den
            nums = [tuple(-x for x in y) for y in nums]
        return cls._of(sorted(set(nums)), den)

    def scaled(self) -> tuple[list, int]:
        """(N, L) as _scaled gives them: L the least common denominator of
        the entries and N = L times the vectors, sorted.  These are nums and
        den divided by their greatest common divisor g.  den / g is a common
        denominator, so L divides it, and nums / g = (den / (g L)) N; a
        prime factor of den / (g L) would divide den / g and every entry of
        nums / g, against g being the greatest, so den / g = L."""
        g = gcd(self.den, *chain.from_iterable(self.nums))
        if g == 1:
            return self.nums, self.den
        return [tuple(x // g for x in y) for y in self.nums], self.den // g


class _Closure(_Integral):
    """closure(X) as a tuple of its vectors, carrying what closure decided
    about the family X: `family`, the distinct vectors of X sorted as a
    Configuration keeps them (by their _scaled keys or their numerators),
    and the products of each x_i with every closure vector (products).
    """

    def products(self):
        """The rows (<x_i, y_j>)_j over `family`, each computed as it is read.

        Closure decides every product of a vector it keeps, so none is
        multiplied out.  On the column of basis vector b_k it is bit k of
        y's pattern s (<y, b_k> = s_k by construction).  On any other column
        it is sum_{k in s} w_k / D, a subset sum that the filter kept at 0 or
        D, read from the same two half tables (_zero_one_patterns): 1
        exactly when it is D.
        """
        alive, sums, det, half = self._decided
        low = (1 << half) - 1
        for column in sums:
            if isinstance(column, int):
                yield tuple(s >> column & 1 for s in alive)
            else:
                lo, hi = column
                yield tuple(int(lo[s & low] + hi[s >> half] == det) for s in alive)


def _zero_one_patterns(pivots, piv_cols: list[int], det: int, ncols: int):
    """(S, T): the patterns S whose combination (1/D) sum_{k in s} P_k is
    0/1, and the tables T that decided them.

    The P_k are the pivot rows of a Gauss-Jordan (_bareiss) elimination over
    the first ncols columns, P_k being D on its pivot column and 0 on the
    others, so every 0/1 vector of their span is such a combination.  It is
    0/1 on the pivot columns by construction, and elsewhere exactly when
    sum_{k in s} P_k[j] is 0 or D on every non-pivot column j < ncols (a
    test that holds for D of either sign).  Pattern s has bit k for pivot
    row k.

    A column is summed only over the surviving patterns, each sum being two
    lookups: one in the table of subset sums of the low half of the bits and
    one in that of the high half (2^(d/2) entries each), so no column builds
    a table of all 2^d sums.  T has one entry per column j < ncols: k for
    the pivot column of P_k, and the two half tables (lo, hi) for any other
    column.  More than _CLOSURE_RANK_LIMIT pivot rows raise
    DimensionTooLarge before any table is built.
    """
    n = len(pivots)
    if n > _CLOSURE_RANK_LIMIT:
        raise DimensionTooLarge(f"closure is limited to rank <= {_CLOSURE_RANK_LIMIT}")
    half = n // 2
    low = (1 << half) - 1
    ok = (0, det)
    alive = range(1 << n)
    pivot_of = {c: k for k, c in enumerate(piv_cols)}
    tables = []
    for j, col in enumerate(zip(*pivots)):
        if j == ncols:
            break
        if j in pivot_of:
            tables.append(pivot_of[j])
            continue
        lo, hi = _subset_sums(col[:half]), _subset_sums(col[half:])
        alive = [s for s in alive if lo[s & low] + hi[s >> half] in ok]
        tables.append((lo, hi))
    return list(alive), tables


def _zero_one_count(lines: list, ncols: int) -> int:
    """The number of 0/1 vectors in the span of integer lines of length
    ncols: one elimination of the lines, with no augmented columns."""
    rows, piv_rows, piv_cols, det = linalg._bareiss(lines, ncols)
    return len(_zero_one_patterns([rows[r] for r in piv_rows], piv_cols, det, ncols)[0])


def _subset_sums(values: list[int]) -> list[int]:
    """sums[s] = the sum of values[k] over the set bits k of s."""
    sums = [0]
    for v in values:
        sums += [t + v for t in sums]
    return sums


def maximal_completion(seed, d: int) -> Configuration:
    """The maximal configuration generated by a spanning seed on the B side.

    A := closure(seed); B := closure(A).  The pair is a closure fixed point,
    and B contains the seed.  If closure(seed) fails to span, the seed is
    rejected rather than silently patched.  Nothing else is checked: A
    spans, closure decides the products of B with A, and B spans because it
    contains the seed, which closure(seed) needed to span.
    """
    a = closure(seed, d)
    if not spans(a, d):
        raise DegenerateSeed(f"closure of the seed does not span R^{d}")
    return _with_closure(d, closure(a, d))


def slack_matrix(cfg: Configuration) -> SlackMatrix:
    """Matrix of all pairwise products, lines ordered by the sorted vectors."""
    m = BinaryMatrix(len(cfg.A), len(cfg.B), cfg._bits)
    return SlackMatrix(m, cfg.A, cfg.B)


def from_slack_matrix(m: BinaryMatrix) -> Configuration:
    """A configuration whose slack matrix is m up to row/column order: the
    rank factorization of m over its first d independent rows (_rank_factor).
    Permutation-equivalent inputs give linearly equivalent outputs.

    The products are m's own bits, so none is checked again.  The sides
    span: the rows of the basis get the coefficients e_1..e_d, and the
    columns of R have R's rank d.  They have no repeats: distinct rows of m
    have distinct coefficients over R, and equal columns of R would give
    equal columns of m.
    """
    if not m.distinct_lines():
        raise RepeatedLine("slack matrices have no repeated row or column")
    rows = m.row_tuples()
    _, basis, cols, _ = linalg._bareiss(list(rows), m.cols)
    if not basis:
        raise NotSpanning("zero matrix has no configuration")
    b_side, a_side, products = _rank_factor(rows, sorted(basis), cols)
    return _with_products(len(basis), a_side, b_side, products)


def _rank_factor(lines, basis, cols) -> tuple[tuple, tuple, list]:
    """A rank factorization of the 0/1 matrix with the given lines (its rows,
    say) over R, the d independent lines at the indices `basis`, given d
    positions `cols` at which R is independent: (C, A, P)
    with C the columns c_j of R, A each line's coefficients a_i over R, and
    P the lines themselves, P[i][j] = <a_i, c_j>, since line i is
    sum_k a_i[k] R_k.  C and A come sorted, as a Configuration keeps its
    sides, and P is permuted to match: the columns are int vectors, and the
    coefficients sort as their integer numerators over D once D is made
    positive, with no Fraction compared.

    The callers have J = cols from their own eliminations: the pivot
    columns of an elimination of all the lines are independent in R too,
    since R's rows span the lines and so have the same column relations.
    Any independent J gives the same coefficients.  One elimination of
    [R_J^T | I] gives G = D (R_J^T)^-1 in integers (_bareiss).  Line y's
    coefficients are then G y_J / D, one division per distinct entry.

    For a configuration whose slack matrix has these lines, the labels of
    the positions along a line span, so a -> (<a, b_j>)_j is injective and
    the labels of R are independent exactly when R is.  The change of basis
    that sends them to e_1..e_d sends each position label to its column of
    R and each line label to its coefficients: every change of basis of
    that kind is this factorization of the slack bits.
    """
    r = [lines[i] for i in basis]
    d = len(r)
    aug = [[x[j] for x in r] + [int(t == i) for t in range(d)] for i, j in enumerate(cols)]
    aug, inv_rows, _, det = linalg._bareiss(aug, d)
    sign = -1 if det < 0 else 1
    g = [[sign * x for x in aug[k][d:]] for k in inv_rows]
    nums = [tuple(sum(map(mul, gk, [y[j] for j in cols])) for gk in g) for y in lines]
    positions = list(zip(*r))
    order = sorted(range(len(positions)), key=positions.__getitem__)
    line_order = sorted(range(len(lines)), key=nums.__getitem__)
    return (tuple(map(positions.__getitem__, order)),
            linalg.divide_rows([nums[i] for i in line_order], sign * det),
            [[lines[i][j] for j in order] for i in line_order])


def is_maximal_in_md(m: BinaryMatrix) -> bool:
    """Whether m is a maximal 0/1 matrix of its rank class.

    Equivalent to submatrix-maximality: m must have distinct lines, positive
    rank d, and a rank factorization (A, B) with closure(B) = A and
    closure(A) = B; any strictly larger matrix would add a closure vector.
    Both equalities are decided by counting, in integers:

    - B spans, so y -> (<y, b_j>)_j is injective, and its image is the row
      space of m.  So closure(B) is in bijection with the 0/1 vectors of the
      row space.
    - A lies in closure(B) and has m.rows members, so closure(B) = A exactly
      when the row space holds m.rows 0/1 vectors.
    - Symmetrically, closure(A) = B exactly when the column space holds
      m.cols 0/1 vectors.

    Each count is one elimination of the lines; above rank
    _CLOSURE_RANK_LIMIT it raises DimensionTooLarge, as closure does.
    """
    return rank_and_maximality(m)[1]


def rank_and_maximality(m: BinaryMatrix) -> tuple[int, bool]:
    """The rank of m (0 when it has no entries) and is_maximal_in_md(m):
    from the class memo when a matrix with m's key was answered before,
    by _rank_and_maximality otherwise."""
    return _class_answer(m, _RANK, _rank_and_maximality)


def _rank_and_maximality(m: BinaryMatrix) -> tuple[int, bool]:
    """rank_and_maximality(m), computed.  One elimination of the rows gives
    both the rank and the count of 0/1 vectors in the row space.  A matrix
    with distinct lines is eliminated only up to pivot _CLOSURE_RANK_LIMIT
    + 1, where the count raises DimensionTooLarge; one with a repeated line
    gets its full rank.

    The column space is counted over the d pivot columns of that
    elimination alone, not all m.cols columns: row operations keep every
    linear relation among the columns, so the columns of m at the pivot
    indices are independent, as they are in the echelon form, and d of
    them span the rank-d column space."""
    lines = m.row_tuples()
    columns = list(zip(*lines))
    distinct = len(set(lines)) == m.rows and len(set(columns)) == m.cols
    elim, piv_rows, piv_cols, det = linalg._bareiss(list(lines), m.cols, _CLOSURE_RANK_LIMIT + 1 if distinct else -1)
    d = len(piv_rows)
    if not d or not distinct:
        return d, False
    if len(_zero_one_patterns([elim[r] for r in piv_rows], piv_cols, det, m.cols)[0]) != m.rows:
        return d, False
    return d, _zero_one_count([columns[c] for c in piv_cols], m.rows) == m.cols


def normalize_to_binary(cfg: Configuration, side: str) -> Configuration:
    """Linearly equivalent configuration with the chosen side inside {0,1}^d.

    The change of basis that sends the first d independent vectors of the
    opposite side to e_1..e_d turns each vector of the chosen side into its
    0/1 products with them and preserves every product exactly.  That is the
    rank factorization of the slack lines labelled by the opposite side (the
    rows for side B, the columns for side A) over their first d independent
    ones.  The factored lines are cfg's slack lines, so the result carries
    cfg's slack bits unchecked: a change of basis keeps every product, the
    number of distinct vectors and the span.
    """
    if side not in (SIDE_A, SIDE_B):
        raise ValueError(f"side must be {SIDE_A!r} or {SIDE_B!r}")
    m = slack_matrix(cfg).matrix
    lines = m.row_tuples() if side == SIDE_B else m.col_tuples()
    _, basis, cols, _ = linalg._bareiss(list(lines), len(lines[0]))
    binary, other, products = _rank_factor(lines, sorted(basis), cols)
    if side == SIDE_B:
        return _with_products(cfg.d, other, binary, products)
    return _with_products(cfg.d, binary, other, zip(*products))


# --- JSON interchange -----------------------------------------------------


def _rat_from_str(s) -> Fraction:
    if type(s) is int:
        return Fraction(s)
    if not isinstance(s, str):
        raise ParseError(f"rational {s!r} must be an integer or a p/q string")
    s = s.strip()
    if any(ch in s for ch in ".eE"):
        raise ParseError(f"rational {s!r} must be a decimal-free p/q string")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad rational {s!r}") from None


def configuration_to_json(cfg: Configuration) -> str:
    payload = {
        "d": cfg.d,
        "A": [[str(x) for x in v] for v in cfg.A],
        "B": [[str(x) for x in v] for v in cfg.B],
    }
    return json.dumps(payload, sort_keys=True)


def json_with_dim(text: str) -> tuple[dict, int]:
    """The parsed JSON object and its field "d"; only a JSON integer is accepted."""
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise ParseError(f"bad JSON: {e}") from None
    try:
        d = payload["d"]
    except (KeyError, TypeError):
        raise ParseError("JSON object needs the field 'd'") from None
    if type(d) is not int:
        raise ParseError(f"field 'd' must be an integer, not {json.dumps(d)}")
    return payload, d


def configuration_from_json(text: str) -> Configuration:
    payload, d = json_with_dim(text)
    return Configuration(d, vectors_from_json_field(payload, "A", d), vectors_from_json_field(payload, "B", d))


def vectors_from_json_field(payload, key: str, d: int) -> tuple[Vec, ...]:
    try:
        vs = payload[key]
    except (KeyError, TypeError):
        raise ParseError(f"missing field {key!r}") from None
    if not isinstance(vs, list) or not all(isinstance(v, list) for v in vs):
        raise ParseError(f"field {key!r} must be a list of vectors")
    out = []
    for v in vs:
        w = vec(_rat_from_str(x) for x in v)
        if len(w) != d:
            raise ParseError(f"vector of length {len(w)} in field {key!r}, expected {d}")
        out.append(w)
    return tuple(out)
