"""The exact type and message of each refusal that no other test reaches,
and the exact bytes of the JSON outputs that no other test prints: one
table of library calls and one of CLI runs."""

import os
from fractions import Fraction

import pytest

from tlc import compress, corrcone, geometry, linalg, stabset
from tlc.configuration import (
    BinaryMatrix,
    SlackMatrix,
    closure,
    from_slack_matrix,
    maximal_completion,
    normalize_to_binary,
    slack_matrix,
)
from tlc.errors import (
    DegenerateSeed,
    DimensionMismatch,
    DimensionTooLarge,
    NoCore,
    NonBinary,
    NonBinaryProduct,
    NotInCone,
    NotInLattice,
    NotSpanning,
    ParseError,
    StoreConflict,
)
from tlc.store import Store

from helpers import zeta
from test_cli import run_cli, write

_UNIT = compress.GeneratorSet(1, ((1,),))
# the origin, e_1..e_15 and e_1 + e_2: 17 points of R^16 on the hyperplane x_16 = 0
_FLAT_16 = [(0,) * 16, *(tuple(int(i == k) for i in range(16)) for k in range(15)), (1, 1) + (0,) * 14]

_REFUSALS = {
    "BinaryMatrix negative shape": (lambda: BinaryMatrix(-1, 2, ()), DimensionMismatch, "negative shape"),
    "BinaryMatrix bit count": (lambda: BinaryMatrix(1, 2, (0,)), DimensionMismatch, "1x2 matrix needs 2 bits, got 1"),
    "BinaryMatrix entry 2": (lambda: BinaryMatrix(1, 1, (2,)), ValueError, "entries must be 0 or 1"),
    "SlackMatrix label count": (
        lambda: SlackMatrix(BinaryMatrix(1, 1, (0,)), (), ((0,),)),
        DimensionMismatch, "label counts do not match matrix shape"),
    "closure wrong dimension": (lambda: closure([(1, 0)], 3), DimensionMismatch, "vectors of wrong dimension"),
    "from_slack_matrix zero": (
        lambda: from_slack_matrix(BinaryMatrix(1, 1, (0,))), NotSpanning, "zero matrix has no configuration"),
    "normalize_to_binary side C": (
        lambda: normalize_to_binary(from_slack_matrix(BinaryMatrix(2, 2, (0, 0, 0, 1))), "C"),
        ValueError, "side must be 'A' or 'B'"),
    "GeneratorSet width": (
        lambda: compress.GeneratorSet(2, ((1, 0, 0),)), DimensionMismatch, "generators of wrong dimension"),
    "GeneratorSet entry 2": (
        lambda: compress.GeneratorSet(1, ((2,),)), NonBinaryProduct, "generators must be 0/1 vectors"),
    "GeneratorSet dependent leading generators": (
        lambda: compress.GeneratorSet(2, ((1, 1), (1, 1), (1, 0))), NotSpanning, "leading generators are not independent"),
    "GeneratorSet fewer than d": (
        lambda: compress.GeneratorSet(2, ((1, 0),)), NotSpanning, "leading generators are not independent"),
    "weighted_graph_parse dependent generators": (
        lambda: compress.weighted_graph_parse("2 2\n11\n11\n0 0\n0\n0 0\n"),
        NotSpanning, "leading generators are not independent"),
    "CompressedConfig certificate dimension": (
        lambda: compress.CompressedConfig(_UNIT, corrcone.FaceCertificate(2, (0,) * 6)),
        DimensionMismatch, "certificate dimension must equal the generator count"),
    "phi wrong length": (lambda: compress.phi((1, 0), _UNIT), DimensionMismatch, "vector of wrong dimension"),
    "face_points wrong length": (
        lambda: corrcone.face_points(2, [(1,)]), DimensionMismatch, "cut vector of wrong dimension"),
    "is_face wrong length": (
        lambda: corrcone.is_face(2, [(1,)]), DimensionMismatch, "face points must have 2 coordinates"),
    "FaceCertificate entry count": (
        lambda: corrcone.FaceCertificate(2, (0,)), DimensionMismatch, "certificate needs 6 entries"),
    "polytope_completion empty": (lambda: geometry.polytope_completion([]), NotSpanning, "empty point set"),
    "polytope_completion short vertex": (
        lambda: geometry.polytope_completion([(0, 0), (1,), (0, 1)]), DimensionMismatch, "vectors of wrong dimension"),
    "polytope_completion flat points": (
        lambda: geometry.polytope_completion([(0, 0), (1, 0)]), NotSpanning, "points do not affinely span"),
    # the rank limit is met before spanning is decided
    "polytope_completion flat points above the rank limit": (
        lambda: geometry.polytope_completion(_FLAT_16), DimensionTooLarge, "closure is limited to rank <= 16"),
    # the points span, but the first closure does not: not a 2-level polytope
    "polytope_completion not two-level": (
        lambda: geometry.polytope_completion([(0, 0), (1, 0), (0, 1), (1, 2)]), NotSpanning, "family does not span R^3"),
    "maximal_completion degenerate seed": (
        lambda: maximal_completion([(1,), (2,)], 1), DegenerateSeed, "closure of the seed does not span R^1"),
    "find_triangular_core size 0": (
        lambda: geometry.find_triangular_core(slack_matrix(geometry.polytope_completion([(0,), (1,)])), 0),
        NoCore, "no core of size 0 in a 4x3 matrix"),
    "zeta unequal lengths": (
        lambda: zeta((1,), compress.GeneratorSet(2, ((1, 0), (0, 1)))),
        DimensionMismatch, "dot of lengths 1 and 2"),
    "rank ragged": (lambda: linalg.rank([[1, 0, 0], [1]]), DimensionMismatch, "ragged rows"),
    "first_independent ragged": (
        lambda: linalg.first_independent([[1], [0, 1]], 1), DimensionMismatch, "ragged rows"),
    "solve ragged": (lambda: linalg.solve([[1], [0, 1]], [1, 1]), DimensionMismatch, "ragged rows"),
    "inverse_and_det non-square": (
        lambda: linalg.inverse_and_det([[1, 2]]), DimensionMismatch, "inverse of a non-square matrix"),
    "lattice_coords wrong length": (
        lambda: linalg.lattice_coords([[1, 0], [0, 1]], (1,)),
        DimensionMismatch, "vector of length 1 vs generator dimension 2"),
    "lp_feasible right-hand sides": (
        lambda: linalg.lp_feasible([[1]], [1, 2], [True]), DimensionMismatch, "1 rows vs 2 right-hand sides"),
    "lp_feasible ragged": (
        lambda: linalg.lp_feasible([[1, 0], [1]], [1, 2], [True, True]), DimensionMismatch, "ragged rows"),
    # a number that is not an integer is refused, not truncated by int()
    "BinaryMatrix entry 1.5": (lambda: BinaryMatrix(1, 1, (1.5,)), ValueError, "entries must be 0 or 1"),
    "GeneratorSet entry 1.9": (
        lambda: compress.GeneratorSet(2, ((1, 0), (0, 1.9))), NonBinaryProduct, "generators must be 0/1 vectors"),
    "select_generators entry 0.5": (
        lambda: compress.select_generators([(1, 0), (0, 1), (0.5, 1)], 2),
        NonBinaryProduct, "point side must be 0/1 before generator selection"),
    "phi entry 0.5": (
        lambda: compress.phi((0.5,), _UNIT), NotInLattice, "(0.5,) is not in the generator lattice"),
    "lift_raw entry 0.5": (
        lambda: corrcone.lift_raw((0, 0.5)), NonBinary, "lift of non-binary vector (0, 0.5)"),
    "face_points entry 0.5": (
        lambda: corrcone.face_points(2, [(1, 0.5)]), ValueError, "cut vector (1, 0.5) is not integral"),
    "is_face entry 0.5": (
        lambda: corrcone.is_face(2, [(0, 0), (0.5, 1)]), NonBinary, "lift of non-binary vector (0.5, 1)"),
    "certificate_encode entry 0.5": (
        lambda: corrcone.certificate_encode(2, [(0, 0), (0.5, 1)]), NonBinary, "lift of non-binary vector (0.5, 1)"),
    "FaceCertificate entry 1/2": (
        lambda: corrcone.FaceCertificate(1, (Fraction(1, 2), 1)), NotInCone, "certificate entries must be integers"),
    "lattice_coords entry 0.5": (
        lambda: linalg.lattice_coords([[1, 0], [0, 1]], (0.5, 1)), ValueError, "integer vector required"),
    "BipartiteGraph edge 1.5": (
        lambda: stabset.BipartiteGraph.from_edges(3, [(0, 1.5)]), ParseError, "edge endpoints must be integers"),
    # a value that is not iterable, or an edge that is not two endpoints
    "BipartiteGraph edge 5": (
        lambda: stabset.BipartiteGraph(3, (5,)), ParseError, "edge endpoints must be integers"),
    "BipartiteGraph edge of three nodes": (
        lambda: stabset.BipartiteGraph(3, ((0, 1, 2),)), ParseError, "edges must be pairs of nodes"),
    "BipartiteGraph edge of one node": (
        lambda: stabset.BipartiteGraph(3, ((0,),)), ParseError, "edges must be pairs of nodes"),
    "BipartiteGraph edges None": (
        lambda: stabset.BipartiteGraph(3, None), ParseError, "edges must be pairs of nodes"),
    "is_face point 5": (lambda: corrcone.is_face(2, [5]), NonBinary, "lift of non-binary vector 5"),
    "phi vector 5": (lambda: compress.phi(5, _UNIT), NotInLattice, "5 is not in the generator lattice"),
    "GeneratorSet generator 5": (
        lambda: compress.GeneratorSet(1, (5,)), NonBinaryProduct, "generators must be 0/1 vectors"),
    "FaceCertificate entries 5": (
        lambda: corrcone.FaceCertificate(1, 5), NotInCone, "certificate entries must be integers"),
    "lp_feasible sign flags": (
        lambda: linalg.lp_feasible([[1, 0]], [1], [True]), DimensionMismatch, "1 sign flags for 2 variables"),
}


@pytest.mark.parametrize("case", list(_REFUSALS))
def test_library_refusal(case):
    call, error, message = _REFUSALS[case]
    with pytest.raises(error) as info:
        call()
    assert (type(info.value), str(info.value)) == (error, message)


def test_solve_of_the_empty_system():
    assert linalg.solve([], []) == ()


def test_store_put_refuses_a_failed_rename_and_leaves_no_temp_file(tmp_path, monkeypatch):
    def no_space(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", no_space)
    store = Store(tmp_path)
    with pytest.raises(StoreConflict) as info:
        store.put("ns", b"payload", ".txt")
    assert str(info.value) == f"cannot write {store.path_for('ns', b'payload', '.txt')}: No space left on device"
    assert list((tmp_path / "ns").iterdir()) == []


_FACE_ENUM_2 = ('{"d": 2, "faces": [["00"], ["00", "01"], ["00", "10"], ["00", "11"], ["00", "01", "10"], '
                '["00", "01", "11"], ["00", "10", "11"], ["00", "01", "10", "11"]]}\n')

# args ({file} is a file holding text), text, exit code, stdout, stderr
_RUNS = {
    "check negative shape": (["check", "{file}"], "-1 2\n", 2, "", "parse error: negative shape (line 1)\n"),
    "check missing bit row": (
        ["check", "{file}"], "2 2\n01\n", 2, "", "parse error: expected 2 bit rows, found 1 (line 2)\n"),
    "stab-slack edge endpoint": (
        ["stab-slack", "{file}"], "3\n0 x\n", 2, "", "parse error: edge endpoints must be integers (line 2)\n"),
    "complete degenerate seed": (
        ["complete", "{file}"], '{"d": 1, "B": [[1], [2]]}\n', 3, "",
        "error: DegenerateSeed: closure of the seed does not span R^1\n"),
    "enum json": (
        ["--format", "json", "enum", "--dim", "2"], None, 0,
        '{"classes": 2, "classes_mod_transpose": 1, "degenerate_seeds": 0, "dim": 2, "seeds_spanning": 8}\n', ""),
    "face json": (
        ["--format", "json", "face", "--dim", "2", "--b-vectors", "{file}"], "1 0\n0 1\n", 0,
        '{"certificate": [2, 1, 1, 2, 2, 2], "d": 2, "points": ["00", "01", "10", "11"]}\n', ""),
    "face-enum json": (["--format", "json", "face-enum", "--dim", "2"], None, 0, _FACE_ENUM_2, ""),
}


@pytest.mark.parametrize("case", list(_RUNS))
def test_cli_run(tmp_path, case):
    args, text, code, out, err = _RUNS[case]
    if text is not None:
        path = write(tmp_path, "in.txt", text)
        args = [a.replace("{file}", path) for a in args]
    assert run_cli(args, store=tmp_path / "store") == (code, out, err)
