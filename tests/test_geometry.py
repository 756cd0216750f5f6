import json
from fractions import Fraction

import pytest

from tlc import canon, linalg
from tlc import geometry
from tlc.configuration import Configuration, SlackMatrix, maximal_completion, slack_matrix
from tlc.corrcone import all_points
from tlc.errors import DimensionTooLarge, NoCore, NotSpanning, ParseError
from tlc.geometry import (
    complete_maximal_pair,
    find_triangular_core,
    polytope_completion,
    polytope_from_json,
    to_binary_integral_configuration,
)

from helpers import examples_library, matrix_from_rows

F = Fraction


def _completed(name):
    return polytope_completion(examples_library()[name])


# --- completion -------------------------------------------------------------


def _vertices(cfg):
    return {u[:-1] for u in cfg.B if u[-1] == -1}


def test_segment_completion():
    cfg, _ = complete_maximal_pair(examples_library()["segment"])
    assert len(cfg.A) == 4
    assert _vertices(cfg) == {(F(0),), (F(1),)}
    assert (F(0), F(0)) in cfg.A  # 0 >= 0
    assert (F(0), F(-1)) in cfg.A  # 0 >= -1
    assert (F(1), F(0)) in cfg.A  # x >= 0
    assert (F(-1), F(-1)) in cfg.A  # x <= 1


def test_square_completion():
    cfg, non_facet = complete_maximal_pair(examples_library()["cube2"])
    assert len(cfg.A) == 6
    assert len(_vertices(cfg)) == 4
    assert non_facet == ()


def test_triangle_completion_has_non_facets():
    cfg, non_facet = complete_maximal_pair(examples_library()["simplex2"])
    assert len(cfg.A) == 8
    assert len(_vertices(cfg)) == 3
    # x1+x2 >= 0, x1 <= 1, x2 <= 1 are valid rows but not facets
    assert {cfg.A[i] for i in non_facet} == {(F(1), F(1), F(0)), (F(-1), F(0), F(-1)), (F(0), F(-1), F(-1))}


def test_cube3_completion():
    cfg, non_facet = complete_maximal_pair(examples_library()["cube3"])
    assert len(cfg.A) == 8  # 6 facets + 2 trivial rows
    assert len(_vertices(cfg)) == 8
    assert non_facet == ()


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
    rows = [a + (b,) for a, b in ineqs]
    points = [v + (F(-1),) for v in all_points(2)] + [(F(0),) * 3]
    s1 = slack_matrix(Configuration(3, rows, points)).matrix
    s2 = slack_matrix(_completed("cube2")).matrix
    assert canon.equivalent(s1, s2)


# --- homogenization: polytopes and cones as configurations ---------------------


def test_homogenize_square():
    cfg, _ = complete_maximal_pair(all_points(2))
    assert cfg.d == 3
    assert tuple([F(0)] * 3) in cfg.B
    # rows (a, b) against points (v, -1): the products are the slacks a.v - b
    assert {v + (F(-1),) for v in all_points(2)} < set(cfg.B)
    assert cfg == polytope_completion(all_points(2))
    assert slack_matrix(cfg) == slack_matrix(polytope_completion(all_points(2)))


def test_polytope_configuration_zero_column():
    s = slack_matrix(_completed("cube2"))
    zero_col = s.col_labels.index(tuple([F(0)] * 3))
    assert all(s.matrix.col_tuples()[zero_col][i] == 0 for i in range(s.matrix.rows))


def test_polytope_configuration_is_maximal():
    for name in ("segment", "cube2", "simplex2", "simplex3", "cube3"):
        cfg = _completed(name)
        # a fresh Configuration, so maximality is computed, not read back
        assert Configuration(cfg.d, cfg.A, cfg.B).is_maximal(), name


def test_cone_configuration_orthant():
    cfg = maximal_completion([(F(1), F(0)), (F(0), F(1))], 2)
    assert cfg.is_maximal()
    s = slack_matrix(cfg)
    assert sorted(s.matrix.row_tuples()) == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)]


# --- triangular cores -----------------------------------------------------------


def _core_pattern_ok(s: SlackMatrix, core, size):
    for i in range(size):
        assert s.matrix.row_tuples()[core.row_indices[i]][core.col_indices[i]] == 1
        for j in range(i + 1, size):
            assert s.matrix.row_tuples()[core.row_indices[i]][core.col_indices[j]] == 0
    labels = [list(s.row_labels[r]) for r in core.row_indices]
    assert linalg.rank(labels) == size


@pytest.mark.parametrize("name,dim", [("segment", 1), ("cube2", 2), ("simplex2", 2), ("cube3", 3)])
def test_find_core(name, dim):
    s = slack_matrix(_completed(name))
    core = find_triangular_core(s, dim + 1)
    _core_pattern_ok(s, core, dim + 1)


def test_core_search_node_budget(monkeypatch):
    # the 3-cube's core takes 4 placements and no backtracking
    s = slack_matrix(_completed("cube3"))
    monkeypatch.setattr(geometry, "_CORE_NODE_LIMIT", 3)
    with pytest.raises(DimensionTooLarge):
        find_triangular_core(s, 4)
    monkeypatch.setattr(geometry, "_CORE_NODE_LIMIT", 4)
    _core_pattern_ok(s, find_triangular_core(s, 4), 4)


def test_no_core_in_zero_matrix():
    m = matrix_from_rows([[0, 0], [0, 0]])
    labels = ((F(1), F(0)), (F(0), F(1)))
    s = SlackMatrix(m, labels, labels)
    with pytest.raises(NoCore):
        find_triangular_core(s, 2)


# --- binary/integral form ---------------------------------------------------------


@pytest.mark.parametrize("name", ["segment", "cube2", "simplex2", "simplex3", "cube3"])
def test_binary_integral_configuration(name):
    cfg = _completed(name)
    dim = cfg.d
    s_in = slack_matrix(cfg)
    core, out = to_binary_integral_configuration(cfg)
    assert core == find_triangular_core(s_in, dim)
    assert out.is_maximal()
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
    sq = slack_matrix(polytope_completion(lib["cube2"])).matrix
    cr = slack_matrix(polytope_completion(lib["cross2"])).matrix
    assert canon.equivalent(sq, cr)
    seg1 = slack_matrix(polytope_completion([(F(0),), (F(1),)])).matrix
    seg2 = slack_matrix(polytope_completion([(F(3),), (F(7),)])).matrix
    assert canon.equivalent(seg1, seg2)


def test_stab_k2_is_affine_triangle():
    from tlc import stabset

    g = stabset.BipartiteGraph.from_edges(2, [(0, 1)])
    s1 = stabset.stab_maximal_slack(g).matrix
    s2 = slack_matrix(_completed("simplex2")).matrix
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
    # the completed rows and vertices as polytope JSON read back to the
    # sorted vertices, and complete to the same configuration
    cfg = _completed("cube2")
    text = json.dumps({
        "d": 2,
        "ineqs": [[str(x) for x in r] for r in reversed(cfg.A)],
        "verts": [[str(x) for x in u[:2]] for u in cfg.B if u[2] == -1] * 2,
    })
    verts = polytope_from_json(text)
    assert verts == tuple(sorted(all_points(2)))
    assert polytope_completion(verts) == cfg


def test_json_dimension_accepts_only_integers():
    for d in ("true", "1.0", '"1"', "null"):
        with pytest.raises(ParseError):
            polytope_from_json('{"d": %s, "ineqs": [["1", "0"]], "verts": [["0"]]}' % d)
