"""Geometry validation against the earlier Fraction checks.

`reference_cone`, `reference_polytope` and `reference_completion` are the
earlier cone and `PolytopeDescription` validation and
`complete_maximal_pair`, which test every product with a Fraction dot
product and find facets by the tight input points of each row.  They are
kept here as the oracle for geometry on the integer configuration core; a
cone is checked as the `Configuration` of its rows and generators.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from tlc import geometry, linalg
from tlc.configuration import Configuration, closure, maximal_completion, spans
from tlc.errors import DimensionMismatch, InvalidGeometry, NonBinarySlack, NotSpanning
from tlc.geometry import PolytopeDescription, complete_maximal_pair, polytope_to_configuration
from tlc.linalg import dot, frac, vec

F = Fraction
_ERRORS = (DimensionMismatch, InvalidGeometry, NonBinarySlack, NotSpanning)


def _check_binary(p, what):
    if p != 0 and p != 1:
        raise NonBinarySlack(f"{what} is {p}, not 0/1")


def _affinely_spans(points, d):
    return bool(points) and linalg.rank([list(p) + [F(-1)] for p in points]) == d + 1


def reference_cone(d, ineqs, gens):
    if d < 1:
        raise DimensionMismatch("dimension must be at least 1")
    ineqs = tuple(sorted(set(vec(v) for v in ineqs)))
    gens = tuple(sorted(set(vec(v) for v in gens)))
    if any(len(v) != d for v in ineqs + gens):
        raise DimensionMismatch("vectors of wrong dimension")
    if not spans(ineqs, d):
        raise NotSpanning("inequality rows do not span")
    if not spans(gens, d):
        raise NotSpanning("generators do not span")
    for a in ineqs:
        for g in gens:
            _check_binary(dot(a, g), "cone slack")
    return ineqs, gens


def reference_polytope(d, ineqs, verts):
    if d < 1:
        raise DimensionMismatch("dimension must be at least 1")
    ineqs = tuple(sorted((vec(a), frac(b)) for a, b in ineqs))
    verts = tuple(sorted(set(vec(v) for v in verts)))
    if any(len(a) != d for a, _ in ineqs) or any(len(v) != d for v in verts):
        raise DimensionMismatch("vectors of wrong dimension")
    if not _affinely_spans(verts, d):
        raise NotSpanning("points do not affinely span")
    for a, b in ineqs:
        for v in verts:
            _check_binary(dot(a, v) - b, "polytope slack")
    return ineqs, verts


def _affine_rank_at_least(points, d):
    if len(points) < d:
        return False
    return linalg.rank([list(p) + [F(1)] for p in points]) >= d


def reference_completion(verts):
    verts = tuple(sorted(set(vec(v) for v in verts)))
    if not verts:
        raise NotSpanning("empty point set")
    d = len(verts[0])
    seed = [tuple(v) + (F(-1),) for v in verts] + [tuple([F(0)] * (d + 1))]
    if not spans(seed, d + 1):
        raise NotSpanning("points do not affinely span")
    rows_h = closure(seed, d + 1)
    points_h = closure(rows_h, d + 1)
    max_verts = []
    for u in points_h:
        if u[d] == -1:
            max_verts.append(u[:d])
        elif any(x != 0 for x in u):
            raise InvalidGeometry(f"unbounded direction {u[:d]} in the completed point set")
    ineqs = tuple((r[:d], r[d]) for r in rows_h)
    non_facet = []
    for i, (a, b) in enumerate(ineqs):
        if all(x == 0 for x in a):
            continue
        tight = [v for v in verts if dot(a, v) == b]
        if len(tight) < d or not _affine_rank_at_least(tight, d):
            non_facet.append(i)
    return PolytopeDescription(d, ineqs, tuple(max_verts), tuple(non_facet))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except _ERRORS as e:
        return type(e)


# --- inputs: subsets of maximal pairs, with faults mixed in ----------------------

_ENTRY = st.builds(F, st.integers(-2, 2), st.sampled_from([1, 1, 2]))
_POLYTOPES = {
    name: complete_maximal_pair(verts)
    for name, verts in geometry.examples_library().items()
    if len(verts[0]) <= 3
}
_CONES = [polytope_to_configuration(p) for p in _POLYTOPES.values() if p.d <= 2] + [
    maximal_completion([tuple(F(int(i == j)) for j in range(d)) for i in range(d)], d)
    for d in (1, 2, 3)
]


def _subset(draw, items):
    return [x for x in items if draw(st.booleans())] if draw(st.booleans()) else list(items)


def _faulty(draw, vectors, d):
    """The vectors, perhaps with a random rational one or one of length d + 1."""
    extra = draw(st.sampled_from([None, None, "rational", "length"]))
    if extra == "rational":
        vectors.append(tuple(draw(_ENTRY) for _ in range(d)))
    elif extra == "length":
        vectors.append(tuple(draw(_ENTRY) for _ in range(d + 1)))
    return vectors


@st.composite
def cone_inputs(draw):
    if draw(st.integers(0, 3)):
        k = draw(st.sampled_from(_CONES))
        d, ineqs, gens = k.d, list(k.A), list(k.B)
    else:
        d = draw(st.integers(1, 3))
        ineqs = draw(st.lists(st.tuples(*[_ENTRY] * d), max_size=6))
        gens = draw(st.lists(st.tuples(*[_ENTRY] * d), max_size=6))
    return d, _faulty(draw, _subset(draw, ineqs), d), _faulty(draw, _subset(draw, gens), d)


@st.composite
def polytope_inputs(draw):
    if draw(st.integers(0, 3)):
        p = draw(st.sampled_from(sorted(_POLYTOPES)))
        desc = _POLYTOPES[p]
        d, rows, verts = desc.d, [tuple(a) + (b,) for a, b in desc.ineqs], list(desc.verts)
    else:
        d = draw(st.integers(1, 3))
        rows = draw(st.lists(st.tuples(*[_ENTRY] * (d + 1)), max_size=6))
        verts = draw(st.lists(st.tuples(*[_ENTRY] * d), max_size=6))
    rows = _subset(draw, rows)
    if draw(st.booleans()):
        rows = rows + rows[:1]  # rows are kept with repeats
    rows = _faulty(draw, rows, d + 1)
    return d, [(r[:-1], r[-1]) for r in rows], _faulty(draw, _subset(draw, verts), d)


def _products_binary(rows, points):
    return all(dot(a, p) in (0, 1) for a in rows for p in points)


def _cone_faults(d, ineqs, gens):
    ins = [v for v in ineqs if len(v) == d]
    gs = [v for v in gens if len(v) == d]
    faults = set()
    if len(ins) < len(ineqs) or len(gs) < len(gens):
        faults.add(DimensionMismatch)
    if not spans(ins, d) or not spans(gs, d):
        faults.add(NotSpanning)
    if not _products_binary(ins, gs):
        faults.add(NonBinarySlack)
    return faults


def _polytope_faults(d, ineqs, verts):
    rows = [tuple(a) + (b,) for a, b in ineqs if len(a) == d]
    points = [tuple(v) + (F(-1),) for v in verts if len(v) == d]
    faults = set()
    if len(rows) < len(ineqs) or len(points) < len(verts):
        faults.add(DimensionMismatch)
    if not spans(points, d + 1):
        faults.add(NotSpanning)
    if not _products_binary(rows, points):
        faults.add(NonBinarySlack)
    return faults


def _cone_sides(d, ineqs, gens):
    cfg = Configuration(d, ineqs, gens)
    return cfg.A, cfg.B


def _polytope_sides(d, ineqs, verts):
    p = PolytopeDescription(d, ineqs, verts)
    return p.ineqs, p.verts


def _agree(faults, got, expected):
    """Same outcome with at most one fault; with more, each reports one."""
    if len(faults) <= 1:
        assert got == expected
        assert faults == ({expected} if isinstance(expected, type) else set())
    else:
        assert got in faults and expected in faults


@settings(max_examples=300, deadline=None)
@given(cone_inputs())
def test_cone_description_matches_fraction_reference(case):
    d, ineqs, gens = case
    got = _outcome(_cone_sides, d, ineqs, gens)
    _agree(_cone_faults(d, ineqs, gens), got, _outcome(reference_cone, d, ineqs, gens))


@settings(max_examples=300, deadline=None)
@given(polytope_inputs())
def test_polytope_description_matches_fraction_reference(case):
    d, ineqs, verts = case
    got = _outcome(_polytope_sides, d, ineqs, verts)
    _agree(_polytope_faults(d, ineqs, verts), got, _outcome(reference_polytope, d, ineqs, verts))


def test_descriptions_reject_dimension_zero():
    for fn in (_cone_sides, reference_cone, _polytope_sides, reference_polytope):
        assert _outcome(fn, 0, [], []) is DimensionMismatch


@st.composite
def point_sets(draw):
    if draw(st.booleans()):
        desc = _POLYTOPES[draw(st.sampled_from(sorted(_POLYTOPES)))]
        return [v for v in desc.verts if draw(st.booleans())] or list(desc.verts)
    d = draw(st.integers(1, 3))
    return draw(st.lists(st.tuples(*[_ENTRY] * d), min_size=1, max_size=7))


@settings(max_examples=200, deadline=None)
@given(point_sets())
def test_completion_facets_match_fraction_reference(verts):
    assert _outcome(complete_maximal_pair, verts) == _outcome(reference_completion, verts)
