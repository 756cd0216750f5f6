"""Faces of the correlation cone and their integer certificates.

The cone lives in dimension d^2 + d: each 0/1 vector x lifts to
z = (x x^T, x), laid out as the row-major outer-product block followed by x
itself.  For integral b the value <(b b^T, -b), lift(x)> equals
<b,x>^2 - <b,x>, which is nonnegative on integer points and zero exactly when
<b,x> is 0 or 1, so every integer vector b cuts out a face.  A face is stored
as its set of 0/1 points (the zero vector belongs to every face), and is
certified by the coordinate sum of a maximal independent subset of its
lifted points: an integer vector with entries in [0, d(d+1)/2] whose face is
the intersection of the facets on which it vanishes.

Only d(d+1)/2 of the d^2 + d coordinates are independent on the lifts: the
block is symmetric and its diagonal equals the tail, because x_i^2 = x_i.
The cone is kept as its facets in the reduced lift (x_i x_j for i < j, then
x), which maps the span of the lifts one to one onto R^(d(d+1)/2), and every
face question is a closure on bitmasks over all_points(d).  The certificate
entries, their text and the weighted-graph text keep the full d^2 + d
layout; a certificate whose block is not symmetric, or whose diagonal is
not its tail, lies outside the span and so outside the cone.

The facets are computed on first use, and their number grows quickly with d
(210 at d = 5), so the face test, the encoder and the decoder refuse
dimensions above _DIM_LIMIT with DimensionTooLarge.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from . import linalg
from .configuration import _subset_sums
from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    NonBinary,
    NotAFace,
    NotInCone,
)

Bit = tuple[int, ...]

# Largest dimension for enumerate_faces.  On 2 cores with Python 3.11.7 the
# 7,814 faces at d = 4 take 0.3 s; d = 5 has 4,846,510 faces and takes 4 min.
_FACE_ENUM_LIMIT = 4

# Largest dimension for face_points, is_face, certificate_encode and
# certificate_decode.  On 2 cores with Python 3.11.7 the 210 facets at d = 5
# take 0.2 s to compute, while the d = 6 computation ran for over 300 s.
# Every d <= 4 class has k = d generators, so every d <= 4 class still
# compresses and decompresses.
_DIM_LIMIT = 5

_NOT_IN_CONE = "certificate has no nonnegative decomposition"


def _check_dimension(d: int) -> None:
    if d < 0:
        raise DimensionMismatch(f"dimension must be nonnegative, got {d}")
    if d > _DIM_LIMIT:
        raise DimensionTooLarge(f"correlation cone facets are limited to d <= {_DIM_LIMIT}")


def _binary(x) -> Bit:
    x = linalg.integers(x, NonBinary, "lift of non-binary vector {}")
    if any(v not in (0, 1) for v in x):
        raise NonBinary(f"lift of non-binary vector {x}")
    return x


def lift_raw(x) -> tuple[int, ...]:
    return _lift(_binary(x))


def _lift(x: Bit) -> tuple[int, ...]:
    """The lift of a 0/1 tuple, which is not checked."""
    d = len(x)
    return tuple(x[i] * x[j] for i in range(d) for j in range(d)) + x


def _reduced_lift(x: Bit) -> tuple[int, ...]:
    """(x_i x_j for i < j, then x): the lift in its independent coordinates,
    of a 0/1 tuple, which is not checked."""
    d = len(x)
    return tuple(x[i] * x[j] for i in range(d) for j in range(i + 1, d)) + x


def all_points(d: int) -> list[Bit]:
    """The points x_0, .., x_(2^d - 1) of {0,1}^d, coordinate i of x_j being
    bit i of j: the point order that enumeration and geometry use too."""
    return [tuple((i >> j) & 1 for j in range(d)) for i in range(1 << d)]


def face_points(d: int, bs) -> tuple[Bit, ...]:
    """All x in {0,1}^d with <b,x> in {0,1} for every integer vector b, sorted.

    The points are the 0/1 points of a face: each b cuts out one (module
    docstring), and so does their intersection (the whole cone when bs is
    empty).  Point x_j has coordinate i equal to bit i of j, so <b, x_j> is
    entry j of b's table of subset sums: one table per b filters all 2^d
    points.
    """
    _check_dimension(d)
    bs = [linalg.integers(b, ValueError, "cut vector {} is not integral") for b in bs]
    for b in bs:
        if len(b) != d:
            raise DimensionMismatch("cut vector of wrong dimension")
    tables = [_subset_sums(b) for b in bs]
    return tuple(sorted(x for j, x in enumerate(all_points(d)) if all(t[j] in (0, 1) for t in tables)))


def _dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def _orthogonal_basis(vectors, width: int) -> list[list[int]]:
    """Integer vectors spanning the orthogonal complement of the vectors in R^width.

    In the fraction-free echelon each pivot row holds D on its own pivot
    column and 0 on the others, so a non-pivot column f gives the vector
    with D at f and minus the column's entry of each pivot row at that row's
    pivot column, orthogonal to every pivot row and so to every vector.
    """
    rows, piv_rows, piv_cols, det = linalg._bareiss([list(v) for v in vectors], width)
    basis = []
    for f in range(width):
        if f not in piv_cols:
            n = [0] * width
            n[f] = det
            for r, c in zip(piv_rows, piv_cols):
                n[c] = -rows[r][f]
            basis.append(n)
    return basis


@functools.cache
def _facets(d: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The facets as sorted pairs (primitive integer normal in the reduced
    lift, mask of the points of all_points(d) on the facet).

    Double description (Fukuda and Prodon 1996) of the cone {a : <a, z> >= 0
    for every reduced lift z}, whose extreme rays are the normals.  It starts
    from n = d(d+1)/2 independent lifts, each ray orthogonal to all but one,
    and adds the other lifts one at a time.  Rays of opposite sign on the
    new lift combine when adjacent: no third ray vanishes on every processed
    lift where both do (counting unprocessed lifts lets redundant rays in).
    """
    n = d * (d + 1) // 2
    lifts = [_reduced_lift(x) for x in all_points(d)]
    start = [k + 1 for k in linalg.first_independent(lifts[1:], n)]
    rays = []  # (normal, mask of the processed lifts it vanishes on)
    for k in start:
        (a,) = _orthogonal_basis([lifts[j] for j in start if j != k], n)
        g = math.gcd(*a) if _dot(a, lifts[k]) > 0 else -math.gcd(*a)
        rays.append(([v // g for v in a], sum(1 << j for j in start if j != k)))
    for k in sorted(set(range(1, len(lifts))) - set(start)):
        vals = [_dot(a, lifts[k]) for a, _ in rays]
        new = [(a, z | (1 << k) if not v else z) for (a, z), v in zip(rays, vals) if v >= 0]
        for (p, zp), vp in zip(rays, vals):
            for (q, zq), vq in zip(rays, vals):
                common = zp & zq
                if vp <= 0 or vq >= 0 or common.bit_count() < n - 2:
                    continue
                if any(z & common == common and r is not p and r is not q for r, z in rays):
                    continue
                a = [vp * x - vq * y for x, y in zip(q, p)]
                g = math.gcd(*a)
                new.append(([v // g for v in a], common | (1 << k)))
        rays = new
    return tuple(sorted(
        (tuple(a), sum(1 << i for i, z in enumerate(lifts) if not _dot(a, z))) for a, _ in rays))


def _close(d: int, mask: int) -> int:
    """The smallest face holding the points of mask: the points on every facet that holds them all."""
    out = (1 << (1 << d)) - 1
    for _, m in _facets(d):
        if m & mask == mask:
            out &= m
    return out


def _points(d: int, mask: int) -> tuple[Bit, ...]:
    return tuple(sorted(x for i, x in enumerate(all_points(d)) if (mask >> i) & 1))


def is_face(d: int, points) -> bool:
    """Face test: the points are exactly the 0/1 points of a face (a fixed point of _close)."""
    _check_dimension(d)
    pts = sorted(set(map(_binary, points)))
    if not pts:
        return False
    if any(len(x) != d for x in pts):
        raise DimensionMismatch(f"face points must have {d} coordinates")
    mask = sum(1 << sum(b << j for j, b in enumerate(x)) for x in pts)
    return _close(d, mask) == mask


@dataclass(frozen=True)
class FaceCertificate:
    """Sum of at most d(d+1)/2 independent lifted points of one face."""

    d: int
    s: tuple[int, ...]

    def __post_init__(self):
        d = self.d
        s = linalg.integers(self.s, NotInCone, "certificate entries must be integers")
        object.__setattr__(self, "s", s)
        if d < 0:
            raise DimensionMismatch(f"dimension must be nonnegative, got {d}")
        if len(s) != d * d + d:
            raise DimensionMismatch(f"certificate needs {d * d + d} entries")
        bound = d * (d + 1) // 2
        if any(v < 0 or v > bound for v in s):
            raise NotInCone(f"certificate entries must lie in [0, {bound}]")

    def to_text(self) -> str:
        return f"{self.d}\n" + " ".join(str(v) for v in self.s) + "\n"


def _reduced_sum(cert: FaceCertificate) -> tuple[int, ...]:
    """The certificate in reduced coordinates; NotInCone when it lies outside
    the span of the lifts (a non-symmetric block or a diagonal unlike the tail)."""
    d, s = cert.d, cert.s
    if any(s[i * d + j] != s[j * d + i] for i in range(d) for j in range(i)):
        raise NotInCone(_NOT_IN_CONE)
    if any(s[i * d + i] != s[d * d + i] for i in range(d)):
        raise NotInCone(_NOT_IN_CONE)
    return tuple(s[i * d + j] for i in range(d) for j in range(i + 1, d)) + s[d * d:]


def certificate_encode(d: int, points) -> FaceCertificate:
    """Certificate of a face: sum the lifts of a greedy independent subset.

    The points are checked to be the point set of a face (NotAFace
    otherwise): this is the encoder for points read from outside.  Points
    that are a face by construction, such as face_points' cuts, go to
    _face_certificate directly.
    """
    pts = sorted(set(map(_binary, points)))
    if not is_face(d, pts):
        raise NotAFace(f"{pts} is not the point set of a face")
    return _face_certificate(d, pts)


def _face_certificate(d: int, pts) -> FaceCertificate:
    """The certificate of the face whose sorted, distinct 0/1 points are pts,
    which is not checked: the sum of the lifts of a greedy independent
    subset of them.

    The subset is picked on the reduced lifts, which are independent exactly
    when the full ones are: the pivot rows of one elimination of them, the
    earliest maximal independent subset in sorted order.
    """
    nonzero = [x for x in pts if any(x)]
    lifts = [list(_reduced_lift(x)) for x in nonzero]
    _, piv_rows, _, _ = linalg._bareiss(lifts, d * (d + 1) // 2)
    chosen = [_lift(nonzero[i]) for i in sorted(piv_rows)]
    dim = d * d + d
    s = [0] * dim
    for z in chosen:
        for i in range(dim):
            s[i] += z[i]
    return FaceCertificate(d, tuple(s))


def certificate_decode(cert: FaceCertificate) -> tuple[Bit, ...]:
    """The 0/1 points of the unique face F whose relative interior holds the sum.

    The sum lies in the cone exactly when it is nonnegative on every facet
    normal (otherwise NotInCone), and F is then the intersection of the
    facets on which it vanishes, or the whole cone when there is none.  The
    zero vector lies on every facet, so it is always included.
    """
    d = cert.d
    _check_dimension(d)
    s = _reduced_sum(cert)
    face = (1 << (1 << d)) - 1
    for a, m in _facets(d):
        v = _dot(a, s)
        if v < 0:
            raise NotInCone(_NOT_IN_CONE)
        if not v:
            face &= m
    return _points(d, face)


def enumerate_faces(d: int) -> tuple[tuple[Bit, ...], ...]:
    """Every face of the correlation cone as a 0/1 point set (small d only).

    NextClosure (Ganter 2010) on the point masks visits each closed mask
    once, in lectic order, starting from the smallest face {0}.
    """
    if d > _FACE_ENUM_LIMIT:
        raise DimensionTooLarge(f"face enumeration is limited to d <= {_FACE_ENUM_LIMIT}")
    _check_dimension(d)
    faces = [_close(d, 0)]
    i = 1 << d
    while i:
        i -= 1
        low = faces[-1] & ((1 << i) - 1)
        if not (faces[-1] >> i) & 1:
            mask = _close(d, low | (1 << i))
            if mask & ((1 << i) - 1) == low:
                faces.append(mask)
                i = 1 << d
    return tuple(sorted((_points(d, m) for m in faces), key=lambda f: (len(f), f)))

