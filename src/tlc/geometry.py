"""Adapters between two-level polytopes/cones and configurations.

A polytope description carries inequalities a.x >= b and points whose slacks
a.v - b are all 0 or 1; a cone description is the homogeneous analogue.
Homogenizing a d-polytope produces a (d+1)-cone whose apex is kept as an
explicit generator, so completions and slack matrices agree between the two
views.  A triangular core (rows and columns whose slack submatrix is lower
triangular with unit diagonal and independent row labels) supplies the
unimodular change of basis that rewrites any maximal configuration with one
binary side and one integral side containing all standard basis vectors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

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
)
from .errors import (
    DimensionMismatch,
    InvalidGeometry,
    NoCore,
    NonBinarySlack,
    NotSpanning,
    ParseError,
)
from .linalg import Vec, frac, vec

_ZERO = Fraction(0)
_ONE = Fraction(1)
_MINUS_ONE = Fraction(-1)


def _check_binary(p: Fraction, what: str):
    if p != _ZERO and p != _ONE:
        raise NonBinarySlack(f"{what} is {p}, not 0/1")


@dataclass(frozen=True)
class ConeDescription:
    """Homogeneous inequalities (rows) and generators with all products 0/1."""

    d: int
    ineqs: tuple[Vec, ...]
    gens: tuple[Vec, ...]

    def __post_init__(self):
        if self.d < 1:
            raise DimensionMismatch("dimension must be at least 1")
        ineqs = tuple(sorted(set(vec(v) for v in self.ineqs)))
        gens = tuple(sorted(set(vec(v) for v in self.gens)))
        object.__setattr__(self, "ineqs", ineqs)
        object.__setattr__(self, "gens", gens)
        if any(len(v) != self.d for v in ineqs + gens):
            raise DimensionMismatch("vectors of wrong dimension")
        if not spans(ineqs, self.d):
            raise NotSpanning("inequality rows do not span")
        if not spans(gens, self.d):
            raise NotSpanning("generators do not span")
        for a in ineqs:
            for g in gens:
                _check_binary(linalg.dot(a, g), "cone slack")


@dataclass(frozen=True)
class PolytopeDescription:
    """Inequalities a.x >= b and points with every slack in {0,1}.

    Rows flagged in non_facet_rows are valid two-level inequalities that are
    not witnessed as facets by d affinely independent tight points.
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
        if not _affinely_spans(verts, self.d):
            raise NotSpanning("points do not affinely span")
        for a, b in ineqs:
            for v in verts:
                _check_binary(linalg.dot(a, v) - b, "polytope slack")


def _affinely_spans(points, d: int) -> bool:
    return bool(points) and linalg.rank([list(p) + [_MINUS_ONE] for p in points]) == d + 1


def _homog_vert(v: Vec) -> Vec:
    return tuple(v) + (_MINUS_ONE,)


def _homog_row(a: Vec, b: Fraction) -> Vec:
    return tuple(a) + (b,)


def homogenize(p: PolytopeDescription) -> ConeDescription:
    """The (d+1)-cone over p at height -1, apex included as a generator."""
    rows = [_homog_row(a, b) for a, b in p.ineqs]
    gens = [_homog_vert(v) for v in p.verts]
    gens.append(tuple([_ZERO] * (p.d + 1)))
    return ConeDescription(p.d + 1, tuple(rows), tuple(gens))


def polytope_to_configuration(p: PolytopeDescription) -> Configuration:
    """Homogenized rows against lifted points plus the origin."""
    a_side = [_homog_row(a, b) for a, b in p.ineqs]
    b_side = [_homog_vert(v) for v in p.verts]
    b_side.append(tuple([_ZERO] * (p.d + 1)))
    return Configuration(p.d + 1, tuple(a_side), tuple(b_side))


def cone_to_configuration(k: ConeDescription) -> Configuration:
    return Configuration(k.d, k.ineqs, k.gens)


def complete_maximal_pair(verts) -> PolytopeDescription:
    """The maximal two-level pair generated by a polytope's vertex set.

    Homogenizes the points, closes to get every inequality with all slacks in
    {0,1} (the two trivial rows 0 >= 0 and 0 >= -1 included), closes back to
    get the maximal point set, and flags inequalities not tight at d affinely
    independent input points as non-facets.
    """
    verts = tuple(sorted(set(vec(v) for v in verts)))
    if not verts:
        raise NotSpanning("empty point set")
    d = len(verts[0])
    seed = [_homog_vert(v) for v in verts]
    seed.append(tuple([_ZERO] * (d + 1)))
    if not spans(seed, d + 1):
        raise NotSpanning("points do not affinely span")
    rows_h = closure(seed, d + 1)
    points_h = closure(rows_h, d + 1)

    max_verts = []
    for u in points_h:
        t = u[d]
        if t == _MINUS_ONE:
            max_verts.append(u[:d])
        elif any(x != _ZERO for x in u):
            raise InvalidGeometry(f"unbounded direction {u[:d]} in the completed point set")

    ineqs = tuple((r[:d], r[d]) for r in rows_h)
    non_facet = []
    for i, (a, b) in enumerate(ineqs):
        if all(x == _ZERO for x in a):
            continue
        tight = [v for v in verts if linalg.dot(a, v) == b]
        if len(tight) < d or not _affine_rank_at_least(tight, d):
            non_facet.append(i)
    return PolytopeDescription(d, ineqs, tuple(max_verts), tuple(non_facet))


def _affine_rank_at_least(points, d: int) -> bool:
    """Whether the points contain d affinely independent members."""
    if len(points) < d:
        return False
    rows = [list(p) + [_ONE] for p in points]
    return linalg.rank(rows) >= d


def complete_maximal_cone_pair(gens) -> ConeDescription:
    """The maximal two-level pair generated by a cone's generator set."""
    gens = tuple(sorted(set(vec(v) for v in gens)))
    if not gens:
        raise NotSpanning("empty generator set")
    d = len(gens[0])
    rows = closure(gens, d)
    if not spans(rows, d):
        raise NotSpanning("closure of the generators does not span")
    full_gens = closure(rows, d)
    return ConeDescription(d, rows, full_gens)


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


def to_binary_integral_configuration(x: Union[PolytopeDescription, ConeDescription]) -> Configuration:
    """Rewrite a maximal pair with a 0/1 side C and an integral side D.

    Two changes of basis: first the independent core rows map the point side
    into slack coordinates (0/1 vectors); then the unimodular lower
    triangular matrix of core columns maps back so that all standard basis
    vectors land in D, which makes the row side C binary.  The slack matrix
    is preserved entry for entry under the label correspondence.
    """
    if isinstance(x, PolytopeDescription):
        cfg = polytope_to_configuration(x)
        size = x.d + 1
    else:
        cfg = cone_to_configuration(x)
        size = x.d
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
    for v in b2:
        for e in v:
            _check_binary(e, "transformed point coordinate")

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
    for v in c_side:
        for e in v:
            _check_binary(e, "binary-side coordinate")
    for v in d_side:
        if any(e.denominator != 1 for e in v):
            raise InvalidGeometry("integral side has a fractional coordinate")
    out = Configuration(size, tuple(c_side), tuple(d_side))
    if cfg.is_maximal():
        object.__setattr__(out, "_maximal", True)
    return out


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


def cone_to_json(k: ConeDescription) -> str:
    payload = {
        "d": k.d,
        "ineqs": [[_rat_to_str(x) for x in a] for a in k.ineqs],
        "gens": [[_rat_to_str(x) for x in g] for g in k.gens],
    }
    return json.dumps(payload, sort_keys=True)


def cone_from_json(text: str) -> ConeDescription:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"bad JSON: {e}") from None
    d = dim_from_json(payload)
    ineqs = vectors_from_json_field(payload, "ineqs", d)
    gens = vectors_from_json_field(payload, "gens", d)
    return ConeDescription(d, ineqs, gens)
