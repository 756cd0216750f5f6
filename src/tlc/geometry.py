"""Two-level polytopes as configurations.

A d-polytope is kept only as its homogenized configuration in R^(d+1): an
inequality a.x >= b is the row (a, b), a point v is (v, -1), and the apex 0
is an explicit point, so each product is the slack a.v - b.  A two-level
cone needs no type of its own either: it is a `Configuration`, and the
completion of its generators is `configuration.maximal_completion`.  A
triangular core (rows and columns whose slack submatrix is lower triangular
with unit diagonal) picks d independent columns of the slack matrix, and the
rank factorization of the slack bits over them rewrites any maximal
configuration with one binary side and one integral side containing all
standard basis vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .configuration import (
    Configuration,
    SlackMatrix,
    slack_matrix,
    closure,
    json_with_dim,
    slack_bits,
    spans,
    vectors_from_json_field,
    _rank_factor,
    _with_closure,
    _with_products,
)
from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    NoCore,
    NotSpanning,
)
from .linalg import Vec

# find_triangular_core places at most this many (row, column) pairs.  With
# its rank test, the stable-set polytopes of the 7-, 8- and 9-node paths take
# 17, 20 and 23, and those of all 5,604 labelled bipartite graphs on at most
# 6 nodes at most 39.  On 2 cores with Python 3.11.7, a search whose every
# rank test passes stops here after 0.6-1.1 s on the 7- to 12-node paths'
# polytopes (28 to 48 slack rows); without the test it stopped after
# 0.1-0.2 s, and the 7-node path took 4,277,771 placements unbounded.
_CORE_NODE_LIMIT = 50_000


def _lifted(verts, d: int) -> list[tuple]:
    """The points (v, -1) in R^(d+1), then the apex 0."""
    return [tuple(v) + (-1,) for v in verts] + [(0,) * (d + 1)]


def polytope_completion(verts) -> Configuration:
    """The maximal two-level pair generated by a polytope's vertex set, as
    its homogenized configuration.

    Homogenizes the points, closes to get every inequality with all slacks in
    {0,1} (the two trivial rows 0 >= 0 and 0 >= -1 included), and closes back
    to get the maximal point set: (v, -1) for every vertex v, and the apex.
    Closure dedupes the points and sorts its output, so the vertex order
    does not matter.

    No completed point but the apex is an unbounded direction (w, 0).  With
    each row (a, b), rows_h holds (-a, -b - 1), whose products with the seed
    points (v, -1) are 1 - (a.v - b), and so it holds (0, -1).  A point (w, t)
    of closure(rows_h) has product -t with (0, -1), so t is 0 or -1.  At t = 0,
    a.w and -a.w lie in {0,1} for every row, so a.w = 0; the second closure
    runs only on rows that span R^(d+1), so the a's span R^d, and w = 0.

    The first closure decides whether the points affinely span, that is
    whether the seed spans R^(d+1), and refuses them with NotSpanning
    ("points do not affinely span") when they do not.  Points that span can
    still be refused by the second closure, with its own NotSpanning
    ("family does not span R^(d+1)"), when the rows with 0/1 slacks, rows_h,
    do not span: the points (0,0), (1,0), (0,1), (1,2), whose polytope is
    not two-level, are refused so.  The result carries the products the
    second closure decided, unchecked: rows_h spans, as that closure
    requires, and the completed points span because they hold the seed.
    """
    verts = list(verts)
    if not verts:
        raise NotSpanning("empty point set")
    d = len(verts[0])
    try:
        rows_h = closure(_lifted(verts, d), d + 1)
    except NotSpanning:
        raise NotSpanning("points do not affinely span") from None
    return _with_closure(d + 1, closure(rows_h, d + 1))


def complete_maximal_pair(verts) -> tuple[Configuration, tuple[int, ...]]:
    """`polytope_completion(verts)` and the indices of its rows that are not
    tight at d affinely independent input points (the non-facets; the two
    trivial rows are not counted)."""
    verts = [tuple(v) for v in verts]
    cfg = polytope_completion(verts)
    d = cfg.d - 1
    # the input points (v, -1) lie in the completed point set; a row is a
    # facet when its tight ones have rank d, i.e. contain d affinely
    # independent input points.  The rows span, so d + 1 independent rows R
    # make b -> (<a, b>)_(a in R) injective, and the tight points have the
    # rank of their 0/1 slack columns restricted to R.
    seed = {v + (-1,) for v in verts}
    cols = [j for j, u in enumerate(cfg.B) if u in seed]
    rows = slack_matrix(cfg).matrix.row_tuples()
    basis = [rows[k] for k in linalg.first_independent(rows, cfg.d)]
    non_facet = []
    for i, r in enumerate(cfg.A):
        tight = [j for j in cols if not rows[i][j]]
        if any(r[:d]) and linalg.rank([[row[j] for j in tight] for row in basis]) < d:
            non_facet.append(i)
    return cfg, tuple(non_facet)


@dataclass(frozen=True)
class TriangularCore:
    """Slack rows/columns whose submatrix is lower triangular with unit diagonal."""

    row_indices: tuple[int, ...]
    col_indices: tuple[int, ...]


def find_triangular_core(s: SlackMatrix, size: int) -> TriangularCore:
    """Backtracking search for a triangular core of the given size.

    Selected entry pattern: M[i][i] = 1 and M[i][j] = 0 for j > i, with the
    chosen rows linearly independent.  Rows are tried in order of increasing
    number of ones, a row's columns lowest first.  Positions are filled from
    the last index backwards, so a new row only has to be 0 on the columns
    already chosen; rows are bitmasks and the chosen columns one mask.

    That test is the only one a placement needs.  A chosen row is 1 on its
    own column, so the test skips it, and a row that passes it has no chosen
    column left to try.  The chosen rows, in the order they were placed and
    restricted to the chosen columns, form a unit triangular matrix, so they
    are independent, and a nonzero row that is 0 on those columns is
    independent of them too.

    A placement that leaves k positions open is kept only if the rows that
    are 0 on every chosen column have rank at least k.  The rows still to be
    placed are among them, since each is 0 on the columns chosen before it,
    and they are independent by the argument above, so a placement that
    fails the test has no core below it.  The test prunes only such
    placements, so the first core in depth-first order is found as without
    it.  The pivot columns of one elimination of the matrix are a basis of
    its columns, so any set of rows has the rank of its entries on them, and
    the test ranks those.  Each placement is counted before its test, and a
    search that places more than _CORE_NODE_LIMIT pairs raises
    DimensionTooLarge.
    """
    m = s.matrix
    if size < 1 or size > min(m.rows, m.cols):
        raise NoCore(f"no core of size {size} in a {m.rows}x{m.cols} matrix")
    basis = linalg._bareiss(m.row_tuples(), m.cols)[2]
    lines = [[row[j] for j in basis] for row in m.row_tuples()]
    masks = [int(line[::-1], 2) for line in m.to_text().splitlines()[1:]]
    row_order = sorted(range(m.rows), key=lambda i: (masks[i].bit_count(), i))
    chosen: list[tuple[int, int]] = []
    nodes = 0

    def place(pos: int, used: int) -> bool:
        nonlocal nodes
        # pos runs size-1 .. 0; chosen holds positions size-1 .. pos+1
        for ri in row_order:
            free = masks[ri]
            if free & used:
                continue
            while free:
                low = free & -free
                free ^= low
                nodes += 1
                if nodes > _CORE_NODE_LIMIT:
                    raise DimensionTooLarge(f"triangular core search exceeds {_CORE_NODE_LIMIT} nodes")
                below = used | low
                if pos:
                    rest = [lines[i] for i in range(m.rows) if not masks[i] & below]
                    if len(linalg._bareiss(rest, len(basis), pos)[1]) < pos:
                        continue
                chosen.append((ri, low.bit_length() - 1))
                if pos == 0 or place(pos - 1, below):
                    return True
                chosen.pop()
        return False

    if not place(size - 1, 0):
        raise NoCore("backtracking exhausted without finding a triangular core")
    rows, cols = zip(*reversed(chosen))
    return TriangularCore(rows, cols)


def to_binary_integral_configuration(cfg: Configuration) -> tuple[TriangularCore, Configuration]:
    """A triangular core of a maximal configuration and its rewrite with a
    0/1 side C and an integral side D.

    The change of basis that sends the core's columns B[j_1..j_d] to
    e_1..e_d is the rank factorization of the slack columns over the core
    columns (configuration._rank_factor): all standard basis vectors land in
    D, and each C vector becomes its products with those columns, a 0/1
    vector.  Each D vector is its column's coefficients over the core
    columns; on the core rows they solve L y = m_j, with L the core's unit
    lower triangular slack submatrix, so they are integral, and the core
    rows are positions at which the core columns are independent.  The slack
    matrix is preserved entry for entry under the label correspondence, so
    the rewrite carries cfg's slack bits unchecked.
    """
    s = slack_matrix(cfg)
    core = find_triangular_core(s, cfg.d)
    c_side, d_side, products = _rank_factor(s.matrix.col_tuples(), core.col_indices, core.row_indices)
    return core, _with_products(cfg.d, c_side, d_side, zip(*products))


# --- JSON interchange -----------------------------------------------------


def polytope_from_json(text: str) -> tuple[Vec, ...]:
    """The sorted, distinct vertices of a polytope JSON.

    Every "ineqs" row (a, b), standing for a.x >= b, must have slack
    a.v - b in {0,1} at every vertex v.  The rows are checked against
    "verts", but the completion, and so every answer, depends on "verts"
    only.
    """
    payload, d = json_with_dim(text)
    rows = vectors_from_json_field(payload, "ineqs", d + 1)
    verts = vectors_from_json_field(payload, "verts", d)
    if d < 1:
        raise DimensionMismatch("dimension must be at least 1")
    verts = tuple(sorted(set(verts)))
    points = _lifted(verts, d)
    if not spans(points, d + 1):
        raise NotSpanning("points do not affinely span")
    slack_bits(sorted(rows), points)
    return verts
