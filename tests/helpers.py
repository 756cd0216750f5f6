"""Inputs and basis choices shared by several test modules."""

from fractions import Fraction

from tlc import linalg
from tlc.configuration import SIDE_A
from tlc.geometry import examples_library, polytope_completion


def opposite_basis(cfg, side):
    """The first d independent vectors of the side opposite to `side`, in
    order: the vectors `normalize_to_binary(cfg, side)` sends to e_1..e_d."""
    opposite = cfg.B if side == SIDE_A else cfg.A
    return [opposite[i] for i in linalg.first_independent(opposite, cfg.d)]


def core_inputs():
    """The polytopes fed to `tlc core` in the tests: every built-in example,
    the triangle and a shifted, scaled segment, as their completions."""
    verts = list(examples_library().values())
    verts.append(((0, 0), (0, 1), (1, 0)))
    verts.append(((Fraction(3),), (Fraction(7),)))
    return [polytope_completion(v) for v in verts]
