from fractions import Fraction

import pytest

from tlc import canon, linalg
from tlc.configuration import BinaryMatrix, SlackMatrix, maximal_completion, slack_matrix
from tlc.errors import NoCore, NotSpanning, ParseError
from tlc.geometry import (
    PolytopeDescription,
    complete_maximal_pair,
    cube_vertices,
    examples_library,
    find_triangular_core,
    polytope_completion,
    polytope_from_json,
    polytope_to_configuration,
    polytope_to_json,
    to_binary_integral_configuration,
)

F = Fraction


def _completed(name):
    return complete_maximal_pair(examples_library()[name])


# --- completion -------------------------------------------------------------


def test_segment_completion():
    desc = _completed("segment")
    assert len(desc.ineqs) == 4
    assert set(desc.verts) == {(F(0),), (F(1),)}
    rows = {(tuple(a), b) for a, b in desc.ineqs}
    assert ((F(0),), F(0)) in rows  # 0 >= 0
    assert ((F(0),), F(-1)) in rows  # 0 >= -1
    assert ((F(1),), F(0)) in rows  # x >= 0
    assert ((F(-1),), F(-1)) in rows  # x <= 1


def test_square_completion():
    desc = _completed("cube2")
    assert len(desc.ineqs) == 6
    assert len(desc.verts) == 4
    assert desc.non_facet_rows == ()


def test_triangle_completion_has_non_facets():
    desc = _completed("simplex2")
    assert len(desc.ineqs) == 8
    assert len(desc.verts) == 3
    # x1+x2 >= 0, x1 <= 1, x2 <= 1 are valid rows but not facets
    assert len(desc.non_facet_rows) == 3


def test_cube3_completion():
    desc = _completed("cube3")
    assert len(desc.ineqs) == 8  # 6 facets + 2 trivial rows
    assert len(desc.verts) == 8
    assert desc.non_facet_rows == ()


def test_completion_rejects_flat_input():
    with pytest.raises(NotSpanning):
        complete_maximal_pair([(F(0), F(0)), (F(1), F(0))])


def test_completion_matches_user_supplied_maximal_pair():
    # independently listed maximal pair for the unit square
    ineqs = [
        ((F(1), F(0)), F(0)),
        ((F(0), F(1)), F(0)),
        ((F(-1), F(0)), F(-1)),
        ((F(0), F(-1)), F(-1)),
        ((F(0), F(0)), F(0)),
        ((F(0), F(0)), F(-1)),
    ]
    manual = PolytopeDescription(2, tuple(ineqs), cube_vertices(2))
    auto = _completed("cube2")
    s1 = slack_matrix(polytope_to_configuration(manual)).matrix
    s2 = slack_matrix(polytope_to_configuration(auto)).matrix
    assert canon.equivalent(s1, s2)


# --- homogenization: polytopes and cones as configurations ---------------------


def test_homogenize_square():
    desc = _completed("cube2")
    cfg = polytope_to_configuration(desc)
    assert cfg.d == 3
    assert tuple([F(0)] * 3) in cfg.B
    # the homogenized description is the completion's configuration
    assert cfg == polytope_completion(cube_vertices(2))
    assert slack_matrix(cfg) == slack_matrix(polytope_completion(cube_vertices(2)))


def test_polytope_configuration_zero_column():
    desc = _completed("cube2")
    cfg = polytope_to_configuration(desc)
    s = slack_matrix(cfg)
    zero_col = s.col_labels.index(tuple([F(0)] * 3))
    assert all(s.matrix.col_bits(zero_col)[i] == 0 for i in range(s.matrix.rows))


def test_polytope_configuration_is_maximal():
    for name in ("segment", "cube2", "simplex2", "simplex3", "cube3"):
        cfg = polytope_to_configuration(_completed(name))
        assert cfg.is_maximal(), name


def test_cone_configuration_orthant():
    cfg = maximal_completion([(F(1), F(0)), (F(0), F(1))], 2)
    assert cfg.is_maximal()
    s = slack_matrix(cfg)
    assert sorted(s.matrix.row_tuples()) == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)]


# --- triangular cores -----------------------------------------------------------


def _core_pattern_ok(s: SlackMatrix, core, size):
    for i in range(size):
        assert s.matrix.row_bits(core.row_indices[i])[core.col_indices[i]] == 1
        for j in range(i + 1, size):
            assert s.matrix.row_bits(core.row_indices[i])[core.col_indices[j]] == 0
    labels = [list(s.row_labels[r]) for r in core.row_indices]
    assert linalg.rank(labels) == size


@pytest.mark.parametrize("name,dim", [("segment", 1), ("cube2", 2), ("simplex2", 2), ("cube3", 3)])
def test_find_core(name, dim):
    desc = _completed(name)
    s = slack_matrix(polytope_to_configuration(desc))
    core = find_triangular_core(s, dim + 1)
    _core_pattern_ok(s, core, dim + 1)


def test_no_core_in_zero_matrix():
    m = BinaryMatrix.from_rows([[0, 0], [0, 0]])
    labels = ((F(1), F(0)), (F(0), F(1)))
    s = SlackMatrix(m, labels, labels)
    with pytest.raises(NoCore):
        find_triangular_core(s, 2)


# --- binary/integral form ---------------------------------------------------------


@pytest.mark.parametrize("name", ["segment", "cube2", "simplex2", "simplex3", "cube3"])
def test_binary_integral_configuration(name):
    desc = _completed(name)
    dim = desc.d + 1
    s_in = slack_matrix(polytope_to_configuration(desc))
    core, out = to_binary_integral_configuration(polytope_completion(examples_library()[name]))
    assert core == find_triangular_core(s_in, dim)
    assert all(x in (0, 1) for v in out.A for x in v)
    assert all(x.denominator == 1 for v in out.B for x in v)
    basis = {tuple(F(1) if j == i else F(0) for j in range(dim)) for i in range(dim)}
    assert basis <= set(out.B)
    assert canon.equivalent(s_in.matrix, slack_matrix(out).matrix)


def test_binary_integral_configuration_cone():
    cone = maximal_completion([(F(1), F(0)), (F(0), F(1))], 2)
    _, out = to_binary_integral_configuration(cone)
    assert all(x in (0, 1) for v in out.A for x in v)
    assert all(x.denominator == 1 for v in out.B for x in v)


# --- slack form independent of affine representative -------------------------------


def test_maximal_slack_form_affine_invariance():
    lib = examples_library()
    # cross2 is an affine square; a shifted/scaled segment is an affine segment
    sq = slack_matrix(polytope_to_configuration(complete_maximal_pair(lib["cube2"]))).matrix
    cr = slack_matrix(polytope_to_configuration(complete_maximal_pair(lib["cross2"]))).matrix
    assert canon.equivalent(sq, cr)
    seg1 = slack_matrix(polytope_to_configuration(complete_maximal_pair([(F(0),), (F(1),)]))).matrix
    seg2 = slack_matrix(polytope_to_configuration(complete_maximal_pair([(F(3),), (F(7),)]))).matrix
    assert canon.equivalent(seg1, seg2)


def test_stab_k2_is_affine_triangle():
    from tlc import stabset

    g = stabset.BipartiteGraph.from_edges(2, [(0, 1)])
    s1 = stabset.stab_maximal_slack(g).matrix
    s2 = slack_matrix(polytope_to_configuration(_completed("simplex2"))).matrix
    assert canon.equivalent(s1, s2)


def test_cone_maximal_slack_not_unique():
    # the nonnegative orthant has transpose-shaped maximal pairs, so cones do
    # not have a unique maximal slack form; record the finding
    s1 = slack_matrix(maximal_completion([(F(1), F(0)), (F(0), F(1))], 2)).matrix
    s2 = slack_matrix(maximal_completion([(F(1), F(0)), (F(0), F(1)), (F(1), F(1))], 2)).matrix
    finding = not canon.equivalent(s1, s2)
    print(f"cone maximal slack uniqueness finding: distinct forms found = {finding} "
          f"({s1.rows}x{s1.cols} vs {s2.rows}x{s2.cols})")


# --- JSON ---------------------------------------------------------------------------


def test_polytope_json_roundtrip():
    desc = _completed("cube2")
    back = polytope_from_json(polytope_to_json(desc))
    assert back.d == desc.d and back.ineqs == desc.ineqs and back.verts == desc.verts


def test_json_dimension_accepts_only_integers():
    for d in ("true", "1.0", '"1"', "null"):
        with pytest.raises(ParseError):
            polytope_from_json('{"d": %s, "ineqs": [["1", "0"]], "verts": [["0"]]}' % d)
