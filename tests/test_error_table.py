"""The exact type and message of each refusal that no other test reaches,
and the exact bytes of the JSON outputs that no other test prints: one
table of library calls and one of CLI runs."""

import os

import pytest

from tlc import compress, corrcone, geometry, linalg
from tlc.configuration import (
    BinaryMatrix,
    SlackMatrix,
    closure,
    from_slack_matrix,
    normalize_to_binary,
    slack_matrix,
)
from tlc.errors import DimensionMismatch, NoCore, NonBinaryProduct, NotSpanning, StoreConflict
from tlc.store import Store

from test_cli import run_cli, write

_UNIT = compress.GeneratorSet(1, ((1,),))

_REFUSALS = {
    "BinaryMatrix negative shape": (lambda: BinaryMatrix(-1, 2, ()), DimensionMismatch, "negative shape"),
    "BinaryMatrix bit count": (lambda: BinaryMatrix(1, 2, (0,)), DimensionMismatch, "1x2 matrix needs 2 bits, got 1"),
    "BinaryMatrix entry 2": (lambda: BinaryMatrix(1, 1, (2,)), ValueError, "entries must be 0 or 1"),
    "BinaryMatrix.from_rows ragged": (lambda: BinaryMatrix.from_rows([(0, 1), (0,)]), DimensionMismatch, "ragged rows"),
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
    "find_triangular_core size 0": (
        lambda: geometry.find_triangular_core(slack_matrix(geometry.polytope_completion([(0,), (1,)])), 0),
        NoCore, "no core of size 0 in a 4x3 matrix"),
    "zeta unequal lengths": (
        lambda: compress.zeta((1,), compress.GeneratorSet(2, ((1, 0), (0, 1)))),
        DimensionMismatch, "dot of lengths 1 and 2"),
    "inverse_and_det non-square": (
        lambda: linalg.inverse_and_det([[1, 2]]), DimensionMismatch, "inverse of a non-square matrix"),
    "lattice_coords wrong length": (
        lambda: linalg.lattice_coords([[1, 0], [0, 1]], (1,)),
        DimensionMismatch, "vector of length 1 vs generator dimension 2"),
    "lp_feasible right-hand sides": (
        lambda: linalg.lp_feasible([[1]], [1, 2], [True]), DimensionMismatch, "1 rows vs 2 right-hand sides"),
    "lp_feasible ragged": (
        lambda: linalg.lp_feasible([[1, 0], [1]], [1, 2], [True, True]), DimensionMismatch, "ragged rows"),
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
