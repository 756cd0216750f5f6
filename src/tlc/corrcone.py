"""Faces of the correlation cone and their integer certificates.

The cone lives in dimension d^2 + d: each 0/1 vector x lifts to
z = (x x^T, x), laid out as the row-major outer-product block followed by x
itself.  For integral b the value <(b b^T, -b), lift(x)> equals
<b,x>^2 - <b,x>, which is nonnegative on integer points and zero exactly when
<b,x> is 0 or 1, so every integer vector b cuts out a face.  A face is stored
as its set of 0/1 points (the zero vector belongs to every face), and is
certified by the coordinate sum of a maximal independent subset of its
lifted points: an integer vector with entries in [0, d(d+1)/2] from which the
face can be recovered by exact linear programming alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    NonBinary,
    NotAFace,
    NotInCone,
    ParseError,
)

Bit = tuple[int, ...]

_FACE_ENUM_LIMIT = 3


def lift_raw(x) -> tuple[int, ...]:
    x = tuple(int(v) for v in x)
    if any(v not in (0, 1) for v in x):
        raise NonBinary(f"lift of non-binary vector {x}")
    d = len(x)
    return tuple(x[i] * x[j] for i in range(d) for j in range(d)) + x


def all_points(d: int) -> list[Bit]:
    return [tuple((i >> j) & 1 for j in range(d)) for i in range(1 << d)]


def face_points(d: int, bs) -> tuple[Bit, ...]:
    """All x in {0,1}^d with <b,x> in {0,1} for every integer vector b."""
    bs = [tuple(int(v) for v in b) for b in bs]
    for b in bs:
        if len(b) != d:
            raise DimensionMismatch("cut vector of wrong dimension")
    out = []
    for x in all_points(d):
        ok = True
        for b in bs:
            s = sum(bi * xi for bi, xi in zip(b, x))
            if s != 0 and s != 1:
                ok = False
                break
        if ok:
            out.append(x)
    return tuple(sorted(out))


def is_face(d: int, points) -> bool:
    """Exposed-face test: a rational functional vanishing on the lifted points
    and at least 1 on every other lifted 0/1 vector (exact LP)."""
    pts = set(tuple(int(v) for v in p) for p in points)
    if not pts:
        return False
    dim = d * d + d
    rows = []
    rhs = []
    nvars = dim
    others = [x for x in all_points(d) if x not in pts]
    for x in sorted(pts):
        rows.append(list(lift_raw(x)) + [0] * len(others))
        rhs.append(Fraction(0))
    for k, y in enumerate(others):
        slack = [0] * len(others)
        slack[k] = -1
        rows.append(list(lift_raw(y)) + slack)
        rhs.append(Fraction(1))
    nonneg = [False] * dim + [True] * len(others)
    return linalg.lp_feasible(rows, rhs, nonneg) is not None


@dataclass(frozen=True)
class FaceCertificate:
    """Sum of at most d(d+1)/2 independent lifted points of one face."""

    d: int
    s: tuple[int, ...]

    def __post_init__(self):
        d = self.d
        s = tuple(int(v) for v in self.s)
        object.__setattr__(self, "s", s)
        if len(s) != d * d + d:
            raise DimensionMismatch(f"certificate needs {d * d + d} entries")
        bound = d * (d + 1) // 2
        if any(v < 0 or v > bound for v in s):
            raise NotInCone(f"certificate entries must lie in [0, {bound}]")

    def to_text(self) -> str:
        return f"{self.d}\n" + " ".join(str(v) for v in self.s) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "FaceCertificate":
        lines = [(i, ln) for i, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
        if len(lines) != 2:
            raise NotInCone("certificate text needs a dimension line and an entry line")
        (i, head), (j, body) = lines
        try:
            d = int(head)
        except ValueError:
            raise ParseError("dimension must be an integer", line=i) from None
        try:
            s = tuple(int(v) for v in body.split())
        except ValueError:
            raise ParseError("certificate entries must be integers", line=j) from None
        return cls(d, s)


def certificate_encode(d: int, points) -> FaceCertificate:
    """Certificate of a face: sum the lifts of a greedy independent subset."""
    pts = sorted(set(tuple(int(v) for v in p) for p in points))
    if not is_face(d, pts):
        raise NotAFace(f"{pts} is not the point set of a face")
    lifts = [lift_raw(x) for x in pts if any(x)]
    chosen = [lifts[i] for i in linalg.first_independent(lifts, linalg.rank(lifts))]
    dim = d * d + d
    s = [0] * dim
    for z in chosen:
        for i in range(dim):
            s[i] += z[i]
    return FaceCertificate(d, tuple(s))


def _decomposable(cert: FaceCertificate) -> bool:
    d = cert.d
    gens = [lift_raw(x) for x in all_points(d) if any(x)]
    rows = [[g[r] for g in gens] for r in range(d * d + d)]
    rhs = [Fraction(v) for v in cert.s]
    return linalg.lp_feasible(rows, rhs, [True] * len(gens)) is not None


def certificate_decode(cert: FaceCertificate) -> tuple[Bit, ...]:
    """The 0/1 points of the unique face whose relative interior holds the sum.

    x belongs exactly when some positive multiple of the certificate
    decomposes over the lifted generators with the coefficient of lift(x) at
    least 1; the multiple is a free scale variable, so the test needs no
    arbitrary threshold.  The zero vector is always included.
    """
    d = cert.d
    if not _decomposable(cert):
        raise NotInCone("certificate has no nonnegative decomposition")
    dim = d * d + d
    nonzero = [x for x in all_points(d) if any(x)]
    gens = [lift_raw(x) for x in nonzero]
    out = [tuple([0] * d)]
    for k, x in enumerate(nonzero):
        zx = gens[k]
        # lift(x) + sum_g lambda_g lift(g) = (1 + tau) s  with lambda, tau >= 0
        cols = gens + [[-v for v in cert.s]]
        rows = [[col[r] for col in cols] for r in range(dim)]
        rhs = [Fraction(cert.s[r] - zx[r]) for r in range(dim)]
        nonneg = [True] * len(cols)
        if linalg.lp_feasible(rows, rhs, nonneg) is not None:
            out.append(x)
    return tuple(sorted(out))


def enumerate_faces(d: int) -> tuple[tuple[Bit, ...], ...]:
    """Every face of the correlation cone as a 0/1 point set (small d only)."""
    if d > _FACE_ENUM_LIMIT:
        raise DimensionTooLarge(f"face enumeration is limited to d <= {_FACE_ENUM_LIMIT}")
    pts = all_points(d)
    zero = tuple([0] * d)
    rest = [x for x in pts if x != zero]
    faces = []
    for mask in range(1 << len(rest)):
        cand = [zero] + [rest[i] for i in range(len(rest)) if (mask >> i) & 1]
        cand = tuple(sorted(cand))
        if is_face(d, cand):
            faces.append(cand)
    return tuple(sorted(faces, key=lambda f: (len(f), f)))


def lifted_rank(d: int) -> int:
    """Rank of all lifted 0/1 vectors; the cone's linear dimension."""
    return linalg.rank([list(lift_raw(x)) for x in all_points(d)])
