"""Geometry validation against the earlier Fraction checks and rewrite.

`reference_cone`, `reference_polytope` and `reference_completion` are the
earlier cone and polytope validation and `complete_maximal_pair`, which test
every product with a Fraction dot product and find facets by the tight
input points of each row.  They are kept here as the oracle for geometry on
the integer configuration core: a cone is checked as the `Configuration` of
its rows and generators, and a polytope through `polytope_from_json`.
`reference_binary_integral` is the earlier two-step rewrite of a maximal
configuration (core rows M, then the core's slack submatrix L), the oracle
for the one change of basis of `to_binary_integral_configuration`.
`reference_find_triangular_core` is the earlier core search, which tests
independence on the row labels, not on the 0/1 rows;
`reference_bit_rank_core` is the search after it, which ranks the 0/1 rows
of every candidate against the chosen ones, as bit tuples, not bitmasks; and
`reference_label_rank_facets` the earlier facet test of
`complete_maximal_pair`, which ranks each row's tight input points as
`Fraction` vectors, not as 0/1 slack columns.
"""

import itertools
import json
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from tlc import geometry, linalg, stabset
from tlc.configuration import (
    Configuration,
    closure,
    from_slack_matrix,
    maximal_completion,
    parse_matrix,
    slack_matrix,
    spans,
)
from tlc.errors import DimensionMismatch, DimensionTooLarge, NoCore, NonBinarySlack, NotBipartite, NotSpanning, ParseError
from tlc.geometry import complete_maximal_pair, polytope_completion
from tlc.linalg import frac, vec

from helpers import core_inputs, dot, examples_library, mat_vec

F = Fraction
_ERRORS = (DimensionMismatch, NonBinarySlack, NotSpanning, ParseError)


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
    return verts


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
    for u in points_h:
        assert u[d] == -1 or not any(u), f"unbounded direction {u[:d]} in the completed point set"
    ineqs = tuple((r[:d], r[d]) for r in rows_h)
    non_facet = []
    for i, (a, b) in enumerate(ineqs):
        if all(x == 0 for x in a):
            continue
        tight = [v for v in verts if dot(a, v) == b]
        if len(tight) < d or not _affine_rank_at_least(tight, d):
            non_facet.append(i)
    return Configuration(d + 1, rows_h, points_h), tuple(non_facet)


def reference_binary_integral(cfg):
    """A triangular core and the earlier two-step rewrite: the core rows M
    map B into slack coordinates, A goes to M^-T A; then with L the core's
    slack submatrix, unit lower triangular, B goes on to L^-1 and A to L^T."""
    size = cfg.d
    s = slack_matrix(cfg)
    core = geometry.find_triangular_core(s, size)
    m_rows = [list(s.row_labels[i]) for i in core.row_indices]
    m_inv, _ = linalg.inverse_and_det(m_rows)
    m_inv_t = [list(col) for col in zip(*m_inv)]
    a2 = [mat_vec(m_inv_t, a) for a in s.row_labels]
    b2 = [mat_vec(m_rows, b) for b in s.col_labels]
    l_rows = [list(col) for col in zip(*[b2[j] for j in core.col_indices])]
    for i in range(size):
        assert l_rows[i][i] == 1 and not any(l_rows[i][i + 1:])
    l_inv, l_det = linalg.inverse_and_det(l_rows)
    assert abs(l_det) == 1
    l_t = [list(col) for col in zip(*l_rows)]
    c_side = [mat_vec(l_t, a) for a in a2]
    d_side = [mat_vec(l_inv, b) for b in b2]
    assert all(e.denominator == 1 for v in d_side for e in v), "integral side has a fractional coordinate"
    return core, Configuration(size, tuple(c_side), tuple(d_side))


def reference_find_triangular_core(s, size):
    m = s.matrix
    if size < 1 or size > min(m.rows, m.cols):
        raise NoCore(f"no core of size {size} in a {m.rows}x{m.cols} matrix")
    rows_bits = m.row_tuples()
    row_order = sorted(range(m.rows), key=lambda i: (sum(rows_bits[i]), i))
    chosen_rows, chosen_cols = [], []

    def independent_with(idx):
        labels = [list(s.row_labels[r]) for r in chosen_rows] + [list(s.row_labels[idx])]
        return linalg.rank(labels) == len(labels)

    def place(pos):
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
    return geometry.TriangularCore(tuple(reversed(chosen_rows)), tuple(reversed(chosen_cols)))


def reference_bit_rank_core(s, size):
    m = s.matrix
    if size < 1 or size > min(m.rows, m.cols):
        raise NoCore(f"no core of size {size} in a {m.rows}x{m.cols} matrix")
    rows_bits = m.row_tuples()
    row_order = sorted(range(m.rows), key=lambda i: (sum(rows_bits[i]), i))
    chosen_rows, chosen_cols = [], []
    nodes = 0

    def independent_with(idx):
        lines = [rows_bits[r] for r in chosen_rows] + [rows_bits[idx]]
        return linalg.rank(lines) == len(lines)

    def place(pos):
        nonlocal nodes
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
                nodes += 1
                if nodes > geometry._CORE_NODE_LIMIT:
                    raise DimensionTooLarge(f"triangular core search exceeds {geometry._CORE_NODE_LIMIT} nodes")
                chosen_rows.append(ri)
                chosen_cols.append(cj)
                if pos == 0 or place(pos - 1):
                    return True
                chosen_rows.pop()
                chosen_cols.pop()
        return False

    if not place(size - 1):
        raise NoCore("backtracking exhausted without finding a triangular core")
    return geometry.TriangularCore(tuple(reversed(chosen_rows)), tuple(reversed(chosen_cols)))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except _ERRORS as e:
        return type(e)


# --- inputs: subsets of maximal pairs, with faults mixed in ----------------------

_ENTRY = st.builds(F, st.integers(-2, 2), st.sampled_from([1, 1, 2]))
_POLYTOPES = {
    name: polytope_completion(verts)
    for name, verts in examples_library().items()
    if len(verts[0]) <= 3
}
_CONES = [cfg for cfg in _POLYTOPES.values() if cfg.d <= 3] + [
    maximal_completion([tuple(F(int(i == j)) for j in range(d)) for i in range(d)], d)
    for d in (1, 2, 3)
]


def _vertices(cfg):
    """The polytope's vertices v, from its points (v, -1)."""
    return [u[:-1] for u in cfg.B if u[-1] == -1]


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
        cfg = _POLYTOPES[draw(st.sampled_from(sorted(_POLYTOPES)))]
        d, rows, verts = cfg.d - 1, list(cfg.A), _vertices(cfg)
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
        faults.add(ParseError)
    if not spans(points, d + 1):
        faults.add(NotSpanning)
    if not _products_binary(rows, points):
        faults.add(NonBinarySlack)
    return faults


def _cone_sides(d, ineqs, gens):
    cfg = Configuration(d, ineqs, gens)
    return cfg.A, cfg.B


def _polytope_vertices(d, ineqs, verts):
    text = json.dumps({
        "d": d,
        "ineqs": [[str(x) for x in (*a, b)] for a, b in ineqs],
        "verts": [[str(x) for x in v] for v in verts],
    })
    return geometry.polytope_from_json(text)


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
    got = _outcome(_polytope_vertices, d, ineqs, verts)
    expected = _outcome(reference_polytope, d, ineqs, verts)
    # the JSON reader rejects a vector of the wrong length as it parses
    expected = ParseError if expected is DimensionMismatch else expected
    _agree(_polytope_faults(d, ineqs, verts), got, expected)


def test_descriptions_reject_dimension_zero():
    for fn in (_cone_sides, reference_cone, _polytope_vertices, reference_polytope):
        assert _outcome(fn, 0, [], []) is DimensionMismatch


@st.composite
def point_sets(draw):
    if draw(st.booleans()):
        verts = _vertices(_POLYTOPES[draw(st.sampled_from(sorted(_POLYTOPES)))])
        return [v for v in verts if draw(st.booleans())] or verts
    d = draw(st.integers(1, 3))
    return draw(st.lists(st.tuples(*[_ENTRY] * d), min_size=1, max_size=7))


@settings(max_examples=200, deadline=None)
@given(point_sets())
def test_completion_facets_match_fraction_reference(verts):
    assert _outcome(complete_maximal_pair, verts) == _outcome(reference_completion, verts)


def _stable_set_completions(max_nodes):
    """One completion per bipartite graph on 1..max_nodes nodes up to
    relabelling."""
    out = []
    for n in range(1, max_nodes + 1):
        pairs = list(itertools.combinations(range(n), 2))
        seen = set()
        for mask in range(1 << len(pairs)):
            edges = [e for k, e in enumerate(pairs) if (mask >> k) & 1]
            key = min(tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in edges))
                      for p in itertools.permutations(range(n)))
            if key in seen:
                continue
            seen.add(key)
            try:
                g = stabset.BipartiteGraph.from_edges(n, edges)
            except NotBipartite:
                continue
            out.append(polytope_completion([stabset._char_vec(s, n) for s in stabset.stable_sets(g)]))
    return out


def test_binary_integral_matches_two_step_reference(enum_results, enum_d4):
    corpus = [polytope_completion(verts) for verts in examples_library().values()]
    corpus += [maximal_completion([[int(i == j) for j in range(d)] for i in range(d)], d) for d in (1, 2, 3, 4)]
    corpus += _stable_set_completions(5)
    for res in [*enum_results.values(), enum_d4]:
        for f in res.classes:
            m = parse_matrix(f.bytes.decode())
            corpus += [from_slack_matrix(m), from_slack_matrix(m.transpose())]
    assert len(corpus) == 119
    for cfg in corpus:
        core, out = geometry.to_binary_integral_configuration(cfg)
        assert (core, out) == reference_binary_integral(cfg)


def _path_and_edgeless_stable_sets():
    """The vertex sets of the stable-set polytopes of the path and the
    edgeless graph on 2..6 nodes."""
    out = []
    for n in range(2, 7):
        for edges in ([(v, v + 1) for v in range(n - 1)], []):
            g = stabset.BipartiteGraph.from_edges(n, edges)
            out.append([stabset._char_vec(s, n) for s in stabset.stable_sets(g)])
    return out


def test_core_search_matches_label_rank_search():
    corpus = core_inputs() + [polytope_completion(verts) for verts in _path_and_edgeless_stable_sets()]
    assert len(corpus) == 21
    for cfg in corpus:
        s = slack_matrix(cfg)
        for size in range(1, cfg.d + 1):
            assert geometry.find_triangular_core(s, size) == reference_find_triangular_core(s, size)


def _labelled_stable_set_completions(max_nodes):
    """The completion of every labelled bipartite graph on 1..max_nodes
    nodes."""
    out = []
    for n in range(1, max_nodes + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            try:
                g = stabset.BipartiteGraph.from_edges(n, [e for k, e in enumerate(pairs) if mask >> k & 1])
            except NotBipartite:
                continue
            out.append(polytope_completion([stabset._char_vec(s, n) for s in stabset.stable_sets(g)]))
    return out


def test_bitmask_core_search_matches_bit_rank_search(monkeypatch):
    corpus = [polytope_completion(verts) for verts in examples_library().values()]
    corpus += _labelled_stable_set_completions(5)
    assert len(corpus) == 436

    def outcome(search, s, size):
        try:
            return search(s, size)
        except DimensionTooLarge:
            return DimensionTooLarge

    refused = 0
    for cfg in corpus:
        s = slack_matrix(cfg)
        core = geometry.find_triangular_core(s, cfg.d)
        assert core == reference_bit_rank_core(s, cfg.d)
        assert linalg.rank([s.matrix.row_tuples()[i] for i in core.row_indices]) == cfg.d
        # with a budget of 8 placements, the same core wherever the reference
        # finishes, and never more placements: under the least budget the
        # reference finishes with, the search finishes too
        with monkeypatch.context() as patch:
            for budget in range(1, 9):
                patch.setattr(geometry, "_CORE_NODE_LIMIT", budget)
                want = outcome(reference_bit_rank_core, s, cfg.d)
                if want is not DimensionTooLarge:
                    assert outcome(geometry.find_triangular_core, s, cfg.d) == want
                    break
            else:
                refused += 1
    assert 0 < refused < len(corpus)


def reference_label_rank_facets(verts):
    """The non-facet rows of `polytope_completion(verts)` by the earlier
    test: a row is a facet when its tight input points, as `Fraction`
    vectors (v, -1), have rank d."""
    cfg = polytope_completion(verts)
    d = cfg.d - 1
    seed = {vec(v) + (F(-1),) for v in verts}
    cols = [j for j, u in enumerate(cfg.B) if u in seed]
    s = slack_matrix(cfg).matrix
    return tuple(i for i, r in enumerate(cfg.A)
                 if any(r[:d]) and linalg.rank([cfg.B[j] for j in cols if not s.row_tuples()[i][j]]) < d)


def test_facet_flags_match_label_rank_test():
    corpus = list(examples_library().values()) + _path_and_edgeless_stable_sets()
    flagged = 0
    for verts in corpus:
        _, non_facet = complete_maximal_pair(verts)
        assert non_facet == reference_label_rank_facets(verts)
        flagged += len(non_facet)
    # the corpus has rows of both kinds
    assert flagged > 0
