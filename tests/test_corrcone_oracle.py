"""The facet-list face test and decoder against full-coordinate LP references.

`reference_is_face`, `reference_decomposable` and `reference_decode` are the
earlier corrcone code: every LP runs on the full d^2 + d lift coordinates,
and the decoder solves one phase-1 LP per nonzero 0/1 point.  They are kept
here as the oracles for `tlc.corrcone`, which keeps the cone as its facets
in the d(d+1)/2 independent coordinates and answers every face question by
a closure on point masks, without any LP.  `next_closure_faces` is the
earlier face enumeration, NextClosure on the point masks, kept as the oracle
for `enumerate_faces`, which intersects the facet masks.
"""

import contextlib
import random
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from tlc import compress, corrcone, linalg
from tlc.configuration import from_slack_matrix, normalize_to_binary, parse_matrix
from tlc.corrcone import FaceCertificate, all_points, certificate_decode, certificate_encode, is_face, lift_raw
from tlc.errors import NotInCone, TlcError

F = Fraction


def reference_is_face(d, points):
    pts = set(tuple(int(v) for v in p) for p in points)
    if not pts:
        return False
    dim = d * d + d
    rows = []
    rhs = []
    others = [x for x in all_points(d) if x not in pts]
    for x in sorted(pts):
        rows.append(list(lift_raw(x)) + [0] * len(others))
        rhs.append(F(0))
    for k, y in enumerate(others):
        slack = [0] * len(others)
        slack[k] = -1
        rows.append(list(lift_raw(y)) + slack)
        rhs.append(F(1))
    nonneg = [False] * dim + [True] * len(others)
    return linalg.lp_feasible(rows, rhs, nonneg) is not None


def reference_decomposable(cert):
    d = cert.d
    gens = [lift_raw(x) for x in all_points(d) if any(x)]
    rows = [[g[r] for g in gens] for r in range(d * d + d)]
    rhs = [F(v) for v in cert.s]
    return linalg.lp_feasible(rows, rhs, [True] * len(gens)) is not None


def reference_decode(cert):
    d = cert.d
    if not reference_decomposable(cert):
        raise NotInCone("certificate has no nonnegative decomposition")
    dim = d * d + d
    nonzero = [x for x in all_points(d) if any(x)]
    gens = [lift_raw(x) for x in nonzero]
    out = [tuple([0] * d)]
    for k, x in enumerate(nonzero):
        zx = gens[k]
        cols = gens + [[-v for v in cert.s]]
        rows = [[col[r] for col in cols] for r in range(dim)]
        rhs = [F(cert.s[r] - zx[r]) for r in range(dim)]
        if linalg.lp_feasible(rows, rhs, [True] * len(cols)) is not None:
            out.append(x)
    return tuple(sorted(out))


def outcome(fn, *args):
    """The result, or the type and message of the domain error raised."""
    try:
        return fn(*args)
    except TlcError as e:
        return type(e), str(e)


def _lp_forbidden(*args):
    raise AssertionError("an LP ran")


@contextlib.contextmanager
def no_lp():
    """Inside the block, any call of linalg.lp_feasible fails the test."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "lp_feasible", _lp_forbidden)
        yield


def test_is_face_matches_reference_on_every_candidate():
    # every d = 3 face-enumeration candidate, and every d <= 2 point set
    zero = (0, 0, 0)
    rest = [x for x in all_points(3) if any(x)]
    cases = [(3, [zero] + [rest[i] for i in range(7) if (mask >> i) & 1]) for mask in range(128)]
    for d in (0, 1, 2):
        pts = all_points(d)
        cases += [(d, [pts[i] for i in range(len(pts)) if (mask >> i) & 1]) for mask in range(1 << len(pts))]
    for d, pts in cases:
        assert is_face(d, pts) == reference_is_face(d, pts), (d, pts)


def test_is_face_matches_reference_on_sampled_d4():
    # seeded d = 4 faces, the same faces with one point added or removed,
    # and random point sets holding the zero vector
    rng = random.Random(4)
    pts = all_points(4)
    faces = corrcone.enumerate_faces(4)
    assert len(faces) == 7814
    cases = [list(f) for f in rng.sample(faces, 20)]
    for f in rng.sample(faces, 20):
        x = rng.choice(pts)
        cases.append([p for p in f if p != x] if x in f and x != pts[0] else list(f) + [x])
    for _ in range(20):
        m = rng.getrandbits(16) | 1
        cases.append([pts[i] for i in range(16) if (m >> i) & 1])
    got = [is_face(4, c) for c in cases]
    assert 20 <= sum(got) < len(cases)
    assert got == [reference_is_face(4, c) for c in cases]


def next_closure_faces(d):
    """Every face as a sorted 0/1 point set, sorted by size, then by points:
    NextClosure (Ganter 2010) on the point masks, with the smallest face
    holding a mask from corrcone._close, visits each closed mask once, in
    lectic order, starting from the smallest face {0}."""
    faces = [corrcone._close(d, 0)]
    i = 1 << d
    while i:
        i -= 1
        low = faces[-1] & ((1 << i) - 1)
        if not (faces[-1] >> i) & 1:
            mask = corrcone._close(d, low | (1 << i))
            if mask & ((1 << i) - 1) == low:
                faces.append(mask)
                i = 1 << d
    return tuple(sorted((corrcone._points(d, m) for m in faces), key=lambda f: (len(f), f)))


@pytest.mark.parametrize("d", range(5))
def test_enumerate_faces_matches_next_closure(d):
    faces = corrcone.enumerate_faces(d)
    assert faces == next_closure_faces(d)
    assert len(faces) == (1, 2, 8, 106, 7814)[d]


def reference_certificate_encode(d, points):
    """The certificate from the checked full lifts alone: rank the lift_raw
    of the nonzero points, then sum their earliest maximal independent
    subset in sorted order."""
    pts = sorted(set(tuple(int(v) for v in p) for p in points))
    lifts = [lift_raw(x) for x in pts if any(x)]
    chosen = [lifts[i] for i in linalg.first_independent(lifts, linalg.rank(lifts))]
    s = [0] * (d * d + d)
    for z in chosen:
        for i in range(len(s)):
            s[i] += z[i]
    return FaceCertificate(d, tuple(s))


def test_certificate_encode_matches_reference():
    # every face for d <= 3 and a seeded sample of the d = 4 faces, through
    # the checked encoder and through _face_certificate's unchecked lifts
    faces = [(d, f) for d in (0, 1, 2, 3) for f in corrcone.enumerate_faces(d)]
    faces += [(4, f) for f in random.Random(44).sample(corrcone.enumerate_faces(4), 400)]
    for d, f in faces:
        cert = certificate_encode(d, f)
        assert cert == reference_certificate_encode(d, f)
        assert cert.to_text() == reference_certificate_encode(d, f).to_text()
        assert corrcone._face_certificate(d, f) == cert


def test_face_and_class_round_trips_run_no_lp(enum_results):
    with no_lp():
        faces = [(d, f, certificate_encode(d, f)) for d in (0, 1, 2, 3) for f in corrcone.enumerate_faces(d)]
        for d, f, cert in faces:
            assert certificate_decode(cert) == f
        for res in enum_results.values():
            for form in res.classes:
                cfg = normalize_to_binary(from_slack_matrix(parse_matrix(form.bytes.decode())), "B")
                assert compress.decompress(compress.compress(cfg)) == cfg
    assert len(faces) == 1 + 2 + 8 + 106
    for d, f, cert in faces:
        assert reference_decode(cert) == f


def test_class_round_trips_match_reference(enum_results):
    for d, res in enum_results.items():
        for f in res.classes:
            cfg = normalize_to_binary(from_slack_matrix(parse_matrix(f.bytes.decode())), "B")
            cert = compress.compress(cfg).cert
            assert certificate_decode(cert) == reference_decode(cert)


# compressed certificates of two d = 4 classes whose nonnegative
# decomposition can have a support that spans a set of points which is not
# a face (an LP decoder that starts from that span must look further)
FALLBACK = [
    (4, 1, 1, 2, 1, 3, 1, 2, 1, 1, 3, 0, 2, 2, 0, 4, 4, 3, 3, 4),
    (4, 2, 2, 3, 2, 4, 2, 3, 2, 2, 4, 1, 3, 3, 1, 5, 4, 4, 4, 5),
]


@pytest.mark.parametrize("s", FALLBACK)
def test_fallback_certificates_match_reference(s):
    cert = FaceCertificate(4, s)
    with no_lp():
        back = certificate_decode(cert)
    assert back == reference_decode(cert)


@st.composite
def certificates(draw):
    """(d, s): a sum of lifts with multiplicities, possibly shifted by one.

    Summands that would push an entry past d(d+1)/2 are skipped.  A shift of
    a single entry leaves the block non-symmetric or its diagonal unlike the
    tail; a shift of a symmetric pair, or of a diagonal entry with its tail
    entry, stays in the span of the lifts but may leave the cone.
    """
    d = draw(st.integers(1, 4))
    pts = all_points(d)
    bound = d * (d + 1) // 2
    s = [0] * (d * d + d)
    for idx, mult in draw(st.lists(st.tuples(st.integers(1, len(pts) - 1), st.integers(1, 3)), max_size=5)):
        t = [a + mult * b for a, b in zip(s, lift_raw(pts[idx]))]
        if max(t) <= bound:
            s = t
    kind = draw(st.sampled_from(["sum", "entry", "pair", "diagonal"]))
    i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
    step = draw(st.sampled_from([-1, 1]))
    if kind == "entry":
        s[i * d + j] += step
    elif kind == "pair":
        s[i * d + j] += step
        s[j * d + i if i != j else d * d + i] += step
    elif kind == "diagonal":
        s[i * d + i] += step
    return d, tuple(s)


def _in_span(d, s):
    symmetric = all(s[i * d + j] == s[j * d + i] for i in range(d) for j in range(d))
    return symmetric and all(s[i * d + i] == s[d * d + i] for i in range(d))


@settings(max_examples=200, deadline=None)
@given(certificates())
def test_decode_matches_reference_on_certificates(case):
    d, s = case
    if any(v < 0 or v > d * (d + 1) // 2 for v in s):
        with pytest.raises(NotInCone):
            FaceCertificate(d, s)
        return
    cert = FaceCertificate(d, s)
    got = outcome(certificate_decode, cert)
    kind = "outside the span" if not _in_span(d, s) else "off the cone" if got[0] is NotInCone else "decoded"
    event(f"d={d} {kind}")
    assert got == outcome(reference_decode, cert)


def _d5_certificates():
    """Seeded d = 5 sums of lifts, and the first with its x_1 x_2 pair raised
    above x_1: still in the span of the lifts, but off the cone, where
    x_1 - x_1 x_2 >= 0."""
    rng = random.Random(5)
    pts = all_points(5)
    out = []
    for _ in range(2):
        s = [0] * 30
        for x in rng.sample(pts[1:], 4):
            s = [a + b for a, b in zip(s, lift_raw(x))]
        out.append(tuple(s))
    out.append(tuple(out[0][0] + 1 if i in (1, 5) else v for i, v in enumerate(out[0])))
    return out


@pytest.mark.parametrize("s", _d5_certificates())
def test_decode_matches_reference_on_d5_certificates(s):
    cert = FaceCertificate(5, s)
    assert outcome(certificate_decode, cert) == outcome(reference_decode, cert)


def test_non_symmetric_and_off_diagonal_certificates_run_no_lp():
    # outside the span of the lifts: NotInCone with the reference message
    for s in [(0, 1, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0), (1, 1, 1, 1, 1, 0)]:
        cert = FaceCertificate(2, s)
        want = outcome(reference_decode, cert)
        with no_lp():
            assert outcome(certificate_decode, cert) == want == (NotInCone, "certificate has no nonnegative decomposition")

