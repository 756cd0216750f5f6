import math
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from tlc import corrcone, linalg
from tlc.configuration import closure, spans
from tlc.corrcone import (
    FaceCertificate,
    all_points,
    certificate_decode,
    certificate_encode,
    enumerate_faces,
    face_points,
    is_face,
    lift_raw,
)
from tlc.errors import DimensionMismatch, DimensionTooLarge, NonBinary, NotAFace, NotInCone

from helpers import lifted_rank

# face counts fixed by two independent methods (subset scan with LP, and
# closing the single-cut faces under intersection)
FACE_COUNTS = {1: 2, 2: 8, 3: 106}

# facet counts of the cut cones CUT_1..CUT_6, to which the correlation cones
# of d = 0..5 are linearly isomorphic (Deza and Laurent, "Geometry of Cuts
# and Metrics", 1997)
CUT_FACETS = [0, 1, 3, 12, 40, 210]


def test_lift_examples():
    assert lift_raw((1, 1)) == (1, 1, 1, 1, 1, 1)
    assert lift_raw((1, 0)) == (1, 0, 0, 0, 1, 0)
    assert lift_raw((0, 0)) == (0, 0, 0, 0, 0, 0)


def test_lift_validates():
    with pytest.raises(NonBinary):
        lift_raw((2, 0))
    with pytest.raises(NonBinary):
        lift_raw((0, -1, 1))
    # the block is the outer product and the tail the vector itself
    z = lift_raw((1, 0, 1))
    assert len(z) == 3 * 3 + 3
    assert z[:9] == (1, 0, 1, 0, 0, 0, 1, 0, 1) and z[9:] == (1, 0, 1)


def test_face_points_examples():
    assert face_points(2, [(1, -1)]) == ((0, 0), (1, 0), (1, 1))
    assert face_points(2, []) == tuple(sorted(all_points(2)))
    assert face_points(2, [(1, 0), (0, 1), (1, 1)]) == ((0, 0), (0, 1), (1, 0))


def test_is_face_examples():
    assert is_face(2, [(0, 0), (1, 0), (1, 1)])
    assert not is_face(2, [(1, 0), (0, 1)])
    assert is_face(2, all_points(2))
    assert is_face(2, [(0, 0)])
    assert not is_face(2, [])


def test_certificate_encode_examples():
    cert = certificate_encode(2, [(0, 0), (1, 0), (1, 1)])
    assert cert.s == (2, 1, 1, 1, 2, 1)
    zero = certificate_encode(1, [(0,)])
    assert zero.s == (0, 0)


def test_certificate_encode_rejects_non_face():
    with pytest.raises(NotAFace):
        certificate_encode(2, [(1, 0), (0, 1)])


def test_certificate_bounds():
    for d in (1, 2, 3):
        bound = d * (d + 1) // 2
        for f in enumerate_faces(d):
            cert = certificate_encode(d, f)
            assert all(0 <= v <= bound for v in cert.s)


def test_certificate_decode_examples():
    assert certificate_decode(FaceCertificate(2, (2, 1, 1, 1, 2, 1))) == ((0, 0), (1, 0), (1, 1))
    assert certificate_decode(FaceCertificate(2, (0,) * 6)) == ((0, 0),)


def test_certificate_decode_rejects_outside_cone():
    # block says x1=x2=1 never together but both singles: impossible sum
    with pytest.raises(NotInCone):
        certificate_decode(FaceCertificate(2, (0, 1, 1, 0, 0, 0)))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_enumerate_faces_and_roundtrip(d):
    faces = enumerate_faces(d)
    assert len(faces) == FACE_COUNTS[d]
    for f in faces:
        assert f[0] == tuple([0] * d)
        assert certificate_decode(certificate_encode(d, f)) == f


def test_enumerate_faces_limit():
    # d = 5 has 4,846,510 faces
    with pytest.raises(DimensionTooLarge):
        enumerate_faces(5)


def test_point_tables_are_not_built_at_import():
    # the tables and facets are built on first use, not by importing the CLI
    src = str(Path(corrcone.__file__).parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import tlc.cli, tlc.corrcone as c; "
            "print(c._table.cache_info().currsize, c._facets.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True, timeout=60)
    assert proc.stdout == "0 0\n"


def test_point_tables_hold_the_points_and_their_lifts():
    for d in range(corrcone._DIM_LIMIT + 1):
        points = all_points(d)
        t = corrcone._table(d)
        assert list(t.points) == points
        assert [t.points[i] for i in t.order] == sorted(points)
        assert t.index == {x: i for i, x in enumerate(points)}
        assert list(t.reduced) == [corrcone._reduced_lift(x) for x in points]
        assert list(t.lifts) == [lift_raw(x) for x in points]


def test_facets_are_certified():
    # each normal is primitive, nonnegative on every lift, and tight on lifts
    # of rank d(d+1)/2 - 1, which are exactly the points of its mask
    for d, count in enumerate(CUT_FACETS):
        facets = corrcone._facets(d)
        assert len(facets) == count
        lifts = [corrcone._reduced_lift(x) for x in all_points(d)]
        for a, mask in facets:
            assert math.gcd(*a) == 1
            values = [sum(u * v for u, v in zip(a, z)) for z in lifts]
            assert min(values) >= 0
            assert mask == sum(1 << i for i, v in enumerate(values) if not v)
            assert linalg.rank([list(z) for z, v in zip(lifts, values) if not v]) == d * (d + 1) // 2 - 1


def test_face_enumeration_d1_by_hand():
    # lifts in dimension 2: (0,0) and (1,1); the faces are {0} and everything
    assert enumerate_faces(1) == (((0,),), ((0,), (1,)))


def test_lifted_rank_is_triangular_number():
    for d in (1, 2, 3, 4):
        assert lifted_rank(d) == d * (d + 1) // 2


def test_key_inequality_exhaustive():
    # <(b b^T, -b), lift(x)> = <b,x>^2 - <b,x> >= 0 for integer b, 0/1 x
    for d in (1, 2, 3):
        for b in product(range(-3, 4), repeat=d):
            neg_b = [-v for v in b]
            z = [b[i] * b[j] for i in range(d) for j in range(d)] + list(neg_b)
            for x in all_points(d):
                val = sum(zi * li for zi, li in zip(z, lift_raw(x)))
                ip = sum(bi * xi for bi, xi in zip(b, x))
                assert val == ip * ip - ip
                assert val >= 0


def test_face_points_of_cuts_are_faces():
    for d in (1, 2):
        for b in product(range(-2, 3), repeat=d):
            assert is_face(d, face_points(d, [b]))


def test_face_points_matches_closure_bridge():
    # when B spans, the 0/1 part of the closure equals the face point set
    for d in (2, 3):
        samples = {
            2: [[(1, 0), (0, 1)], [(1, -1), (0, 1)], [(2, 1), (1, 1)]],
            3: [[(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(1, 1, 0), (1, 0, 1), (0, 1, 1)]],
        }[d]
        for bs in samples:
            if not spans(bs, d):
                continue
            cl = set(closure(bs, d))
            cl_binary = {tuple(int(x) for x in v) for v in cl if all(x in (0, 1) for x in v)}
            assert cl_binary == set(face_points(d, bs))


def test_certificate_text_roundtrip():
    # `tlc face` writes this text; nothing reads it back
    pts = ((0, 0), (1, 0), (1, 1))
    cert = certificate_encode(2, pts)
    assert cert.to_text() == "2\n2 1 1 1 2 1\n"
    assert certificate_decode(cert) == pts


def test_negative_dimension_rejected():
    with pytest.raises(DimensionMismatch):
        FaceCertificate(-1, ())
    with pytest.raises(DimensionMismatch):
        certificate_encode(-1, [()])
    with pytest.raises(DimensionMismatch):
        is_face(-1, [()])
    # d = 0: the single point () is the only face
    assert certificate_encode(0, [()]) == FaceCertificate(0, ())
    assert certificate_decode(FaceCertificate(0, ())) == ((),)


def test_lp_dimension_limit():
    limit = corrcone._DIM_LIMIT
    assert limit >= 4
    zero = tuple([0] * limit)
    assert certificate_decode(certificate_encode(limit, [zero])) == (zero,)
    d = limit + 1
    for call in (lambda: is_face(d, [tuple([0] * d)]), lambda: certificate_encode(d, [tuple([0] * d)]),
                 lambda: certificate_decode(FaceCertificate(d, (0,) * (d * d + d))), lambda: face_points(d, [])):
        with pytest.raises(DimensionTooLarge):
            call()
