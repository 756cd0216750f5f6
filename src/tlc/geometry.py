"""Two-level polytopes as configurations.

A polytope description carries inequalities a.x >= b and points whose slacks
a.v - b are all 0 or 1.  Homogenizing a d-polytope, rows (a, b) against
points (v, -1) with the apex 0 kept as an explicit point, gives a
configuration in R^(d+1) whose slack matrix is the polytope's.  A two-level
cone needs no type of its own: it is a `Configuration`, and the completion
of its generators is `configuration.maximal_completion`.  A triangular core
(rows and columns whose slack submatrix is lower triangular with unit
diagonal and independent row labels) supplies the unimodular change of
basis that rewrites any maximal configuration with one binary side and one
integral side containing all standard basis vectors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .configuration import (
    Configuration,
    SlackMatrix,
    slack_matrix,
    closure,
    dim_from_json,
    spans,
    vectors_from_json_field,
    _rat_to_str,
    _scaled,
    _slack_bits,
)
from .errors import (
    DimensionMismatch,
    InvalidGeometry,
    NoCore,
    NotSpanning,
    ParseError,
)
from .linalg import Vec, frac, vec

_ZERO = Fraction(0)
_ONE = Fraction(1)
_MINUS_ONE = Fraction(-1)


@dataclass(frozen=True)
class PolytopeDescription:
    """Inequalities a.x >= b and points with every slack in {0,1}.

    Rows flagged in non_facet_rows are valid two-level inequalities that are
    not witnessed as facets by d affinely independent tight points.  The rows
    are kept with repeats and need not span.
    """

    d: int
    ineqs: tuple[tuple[Vec, Fraction], ...]
    verts: tuple[Vec, ...]
    non_facet_rows: tuple[int, ...] = ()

    def __post_init__(self):
        if self.d < 1:
            raise DimensionMismatch("dimension must be at least 1")
        ineqs = tuple(sorted((vec(a), frac(b)) for a, b in self.ineqs))
        verts = tuple(sorted(set(vec(v) for v in self.verts)))
        object.__setattr__(self, "ineqs", ineqs)
        object.__setattr__(self, "verts", verts)
        object.__setattr__(self, "non_facet_rows", tuple(self.non_facet_rows))
        if any(len(a) != self.d for a, _ in ineqs) or any(len(v) != self.d for v in verts):
            raise DimensionMismatch("vectors of wrong dimension")
        rows_h, points_h = _homogenized(self.d, ineqs, verts)
        if not spans(points_h, self.d + 1):
            raise NotSpanning("points do not affinely span")
        _slack_bits(*_scaled(rows_h), *_scaled(points_h))


def _homogenized(d: int, ineqs, verts) -> tuple[list[Vec], list[Vec]]:
    """Rows (a, b) and points (v, -1) in R^(d+1), the apex 0 last among the
    points; each product is the slack a.v - b."""
    rows = [tuple(a) + (b,) for a, b in ineqs]
    points = [tuple(v) + (_MINUS_ONE,) for v in verts]
    points.append((_ZERO,) * (d + 1))
    return rows, points


def polytope_to_configuration(p: PolytopeDescription) -> Configuration:
    """Homogenized rows against lifted points plus the origin."""
    return Configuration(p.d + 1, *_homogenized(p.d, p.ineqs, p.verts))


def polytope_completion(verts) -> Configuration:
    """The maximal two-level pair generated by a polytope's vertex set, as
    its homogenized configuration.

    Homogenizes the points, closes to get every inequality with all slacks in
    {0,1} (the two trivial rows 0 >= 0 and 0 >= -1 included), and closes back
    to get the maximal point set: (v, -1) for every vertex v, and the apex.
    """
    verts = tuple(sorted(set(vec(v) for v in verts)))
    if not verts:
        raise NotSpanning("empty point set")
    d = len(verts[0])
    _, seed = _homogenized(d, (), verts)
    if not spans(seed, d + 1):
        raise NotSpanning("points do not affinely span")
    rows_h = closure(seed, d + 1)
    points_h = closure(rows_h, d + 1)
    for u in points_h:
        if u[d] != _MINUS_ONE and any(x != _ZERO for x in u):
            raise InvalidGeometry(f"unbounded direction {u[:d]} in the completed point set")
    cfg = Configuration(d + 1, rows_h, points_h)
    object.__setattr__(cfg, "_maximal", True)
    return cfg


def complete_maximal_pair(verts) -> PolytopeDescription:
    """The maximal two-level pair generated by a polytope's vertex set.

    The rows and points of `polytope_completion`, with the inequalities not
    tight at d affinely independent input points flagged as non-facets.
    """
    verts = [vec(v) for v in verts]
    cfg = polytope_completion(verts)
    d = cfg.d - 1
    # the input points (v, -1) lie in the completed point set; a row is a
    # facet when its tight ones have rank d, i.e. contain d affinely
    # independent input points
    seed = {v + (_MINUS_ONE,) for v in verts}
    cols = [j for j, u in enumerate(cfg.B) if u in seed]
    s = slack_matrix(cfg).matrix
    non_facet = []
    for i, r in enumerate(cfg.A):
        bits = s.row_bits(i)
        if any(r[:d]) and linalg.rank([cfg.B[j] for j in cols if not bits[j]]) < d:
            non_facet.append(i)
    ineqs = tuple((r[:d], r[d]) for r in cfg.A)
    max_verts = tuple(u[:d] for u in cfg.B if u[d] == _MINUS_ONE)
    return PolytopeDescription(d, ineqs, max_verts, tuple(non_facet))


@dataclass(frozen=True)
class TriangularCore:
    """Slack rows/columns whose submatrix is lower triangular with unit diagonal."""

    row_indices: tuple[int, ...]
    col_indices: tuple[int, ...]


def find_triangular_core(s: SlackMatrix, size: int) -> TriangularCore:
    """Backtracking search for a triangular core of the given size.

    Selected entry pattern: M[i][i] = 1 and M[i][j] = 0 for j > i, with the
    chosen row labels linearly independent.  Rows are tried in order of
    increasing number of ones.  Positions are filled from the last index
    backwards so each new row is constrained only by columns already chosen.
    """
    m = s.matrix
    if size < 1 or size > min(m.rows, m.cols):
        raise NoCore(f"no core of size {size} in a {m.rows}x{m.cols} matrix")
    row_order = sorted(range(m.rows), key=lambda i: (sum(m.row_bits(i)), i))
    rows_bits = [m.row_bits(i) for i in range(m.rows)]

    chosen_rows: list[int] = []
    chosen_cols: list[int] = []

    def independent_with(idx: int) -> bool:
        labels = [list(s.row_labels[r]) for r in chosen_rows] + [list(s.row_labels[idx])]
        return linalg.rank(labels) == len(labels)

    def place(pos: int) -> bool:
        # pos runs size-1 .. 0; chosen lists hold positions pos+1 .. size-1
        for ri in row_order:
            if ri in chosen_rows:
                continue
            bits = rows_bits[ri]
            if any(bits[cj] for cj in chosen_cols):
                continue
            if not independent_with(ri):
                continue
            for cj in range(m.cols):
                if cj in chosen_cols or not bits[cj]:
                    continue
                chosen_rows.append(ri)
                chosen_cols.append(cj)
                if pos == 0 or place(pos - 1):
                    return True
                chosen_rows.pop()
                chosen_cols.pop()
        return False

    if not place(size - 1):
        raise NoCore("backtracking exhausted without finding a triangular core")
    return TriangularCore(tuple(reversed(chosen_rows)), tuple(reversed(chosen_cols)))


def to_binary_integral_configuration(cfg: Configuration) -> tuple[TriangularCore, Configuration]:
    """A triangular core of a maximal configuration and its rewrite with a
    0/1 side C and an integral side D.

    Two changes of basis: first the independent core rows map the point side
    into slack coordinates (0/1 vectors); then the unimodular lower
    triangular matrix of core columns maps back so that all standard basis
    vectors land in D, which makes the row side C binary.  The slack matrix
    is preserved entry for entry under the label correspondence.  Each
    coordinate of a C vector is its product with a basis vector in D, so the
    Configuration's product check also checks that C is binary.
    """
    size = cfg.d
    s = slack_matrix(cfg)
    core = find_triangular_core(s, size)

    m_rows = [list(s.row_labels[i]) for i in core.row_indices]
    inv_det = linalg.inverse_and_det(m_rows)
    if inv_det is None:
        raise NoCore("core rows are not independent")
    m_inv, _ = inv_det
    m_inv_t = [list(col) for col in zip(*m_inv)]

    a2 = [linalg.mat_vec(m_inv_t, a) for a in s.row_labels]
    b2 = [linalg.mat_vec(m_rows, b) for b in s.col_labels]

    l_cols = [b2[j] for j in core.col_indices]
    l_rows = [list(col) for col in zip(*l_cols)]
    for i in range(size):
        if l_rows[i][i] != _ONE:
            raise NoCore("core diagonal is not all ones")
        for j in range(i + 1, size):
            if l_rows[i][j] != _ZERO:
                raise NoCore("core submatrix is not lower triangular")

    l_inv_det = linalg.inverse_and_det(l_rows)
    assert l_inv_det is not None
    l_inv, l_det = l_inv_det
    assert abs(l_det) == 1
    l_t = [list(col) for col in zip(*l_rows)]

    c_side = [linalg.mat_vec(l_t, a) for a in a2]
    d_side = [linalg.mat_vec(l_inv, b) for b in b2]
    for v in d_side:
        if any(e.denominator != 1 for e in v):
            raise InvalidGeometry("integral side has a fractional coordinate")
    out = Configuration(size, tuple(c_side), tuple(d_side))
    if cfg.is_maximal():
        object.__setattr__(out, "_maximal", True)
    return core, out


# --- built-in examples ----------------------------------------------------


def segment_vertices() -> tuple[Vec, ...]:
    return (vec([0]), vec([1]))


def cube_vertices(d: int) -> tuple[Vec, ...]:
    return tuple(vec([(i >> j) & 1 for j in range(d)]) for i in range(1 << d))


def simplex_vertices(d: int) -> tuple[Vec, ...]:
    verts = [vec([0] * d)]
    for i in range(d):
        verts.append(vec([1 if j == i else 0 for j in range(d)]))
    return tuple(verts)


def cross_polytope_2d_vertices() -> tuple[Vec, ...]:
    return (vec([1, 0]), vec([-1, 0]), vec([0, 1]), vec([0, -1]))


def examples_library() -> dict[str, tuple[Vec, ...]]:
    """Vertex sets of the built-in two-level polytopes, keyed by name."""
    lib: dict[str, tuple[Vec, ...]] = {"segment": segment_vertices()}
    for d in (2, 3, 4):
        lib[f"cube{d}"] = cube_vertices(d)
        lib[f"simplex{d}"] = simplex_vertices(d)
    lib["simplex1"] = simplex_vertices(1)
    lib["cross2"] = cross_polytope_2d_vertices()
    return lib


# --- JSON interchange -----------------------------------------------------


def polytope_to_json(p: PolytopeDescription) -> str:
    payload = {
        "d": p.d,
        "ineqs": [[_rat_to_str(x) for x in a] + [_rat_to_str(b)] for a, b in p.ineqs],
        "verts": [[_rat_to_str(x) for x in v] for v in p.verts],
        "non_facet_rows": list(p.non_facet_rows),
    }
    return json.dumps(payload, sort_keys=True)


def polytope_from_json(text: str) -> PolytopeDescription:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"bad JSON: {e}") from None
    d = dim_from_json(payload)
    rows = vectors_from_json_field(payload, "ineqs", d + 1)
    verts = vectors_from_json_field(payload, "verts", d)
    ineqs = tuple((r[:d], r[d]) for r in rows)
    return PolytopeDescription(d, ineqs, verts)
