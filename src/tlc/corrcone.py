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

Only d(d+1)/2 of the d^2 + d coordinates are independent on the lifts: the
block is symmetric and its diagonal equals the tail, because x_i^2 = x_i.
Every LP therefore runs on the reduced lift (x_i x_j for i < j, then x),
which maps the span of the lifts one to one onto R^(d(d+1)/2).  The
certificate entries, their text and the weighted-graph text keep the full
d^2 + d layout; a certificate whose block is not symmetric, or whose
diagonal is not its tail, lies outside the span and so outside the cone.

The face test, the encoder and the decoder are exponential in d (2^d points,
and the face test's LP has a row per point outside the face), so they refuse
dimensions above _LP_DIM_LIMIT with DimensionTooLarge.
"""

from __future__ import annotations

from dataclasses import dataclass

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

# Largest dimension for face_points, is_face, certificate_encode and
# certificate_decode.  Measured on 2 cores with Python 3.11.7: at d = 5 each
# of these calls took at most 0.5 s on random faces and random in-cone
# certificates, while at d = 6 a single face test took 1 to 3 s and a decode
# that falls back to per-point LPs runs several.  Every d <= 4 class has
# k = d generators, so every d <= 4 class still compresses and decompresses.
_LP_DIM_LIMIT = 5

_NOT_IN_CONE = "certificate has no nonnegative decomposition"


def _check_dimension(d: int) -> None:
    if d < 0:
        raise DimensionMismatch(f"dimension must be nonnegative, got {d}")
    if d > _LP_DIM_LIMIT:
        raise DimensionTooLarge(f"correlation cone LPs are limited to d <= {_LP_DIM_LIMIT}")


def _binary(x) -> Bit:
    x = tuple(int(v) for v in x)
    if any(v not in (0, 1) for v in x):
        raise NonBinary(f"lift of non-binary vector {x}")
    return x


def lift_raw(x) -> tuple[int, ...]:
    x = _binary(x)
    d = len(x)
    return tuple(x[i] * x[j] for i in range(d) for j in range(d)) + x


def _reduced_lift(x) -> tuple[int, ...]:
    """(x_i x_j for i < j, then x): the lift in its independent coordinates."""
    x = _binary(x)
    d = len(x)
    return tuple(x[i] * x[j] for i in range(d) for j in range(i + 1, d)) + x


def all_points(d: int) -> list[Bit]:
    return [tuple((i >> j) & 1 for j in range(d)) for i in range(1 << d)]


def face_points(d: int, bs) -> tuple[Bit, ...]:
    """All x in {0,1}^d with <b,x> in {0,1} for every integer vector b."""
    _check_dimension(d)
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


def _columns(vectors, width: int) -> list[list[int]]:
    """The vectors as the columns of a width-row matrix."""
    return [[v[r] for v in vectors] for r in range(width)]


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


def is_face(d: int, points) -> bool:
    """Exposed-face test: a rational functional vanishing on the lifted points
    and at least 1 on every other lifted 0/1 vector (exact LP).

    The functional is sought in the orthogonal complement of the reduced
    lifts of the points, so the LP has one row per other point.
    """
    _check_dimension(d)
    pts = set(tuple(int(v) for v in p) for p in points)
    if not pts:
        return False
    on = [_reduced_lift(x) for x in sorted(pts)]
    if any(len(x) != d for x in pts):
        raise DimensionMismatch(f"face points must have {d} coordinates")
    off = [_reduced_lift(y) for y in all_points(d) if y not in pts]
    if not off:
        return True
    normals = _orthogonal_basis(on, d * (d + 1) // 2)
    rows = [[_dot(z, n) for n in normals] + [-int(j == k) for j in range(len(off))] for k, z in enumerate(off)]
    nonneg = [False] * len(normals) + [True] * len(off)
    return linalg.lp_feasible(rows, [1] * len(off), nonneg) is not None


@dataclass(frozen=True)
class FaceCertificate:
    """Sum of at most d(d+1)/2 independent lifted points of one face."""

    d: int
    s: tuple[int, ...]

    def __post_init__(self):
        d = self.d
        s = tuple(int(v) for v in self.s)
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

    @classmethod
    def from_text(cls, text: str) -> "FaceCertificate":
        numbered = list(enumerate(text.splitlines(), start=1))
        lines = [(i, ln) for i, ln in numbered if ln.strip()]
        if len(lines) != 2:
            line = lines[2][0] if len(lines) > 2 else len(numbered) + 1
            raise ParseError("certificate text needs a dimension line and an entry line", line=line)
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

    The subset is picked on the reduced lifts, which are independent exactly
    when the full ones are.
    """
    pts = sorted(set(tuple(int(v) for v in p) for p in points))
    if not is_face(d, pts):
        raise NotAFace(f"{pts} is not the point set of a face")
    nonzero = [x for x in pts if any(x)]
    lifts = [_reduced_lift(x) for x in nonzero]
    chosen = [lift_raw(nonzero[i]) for i in linalg.first_independent(lifts, linalg.rank(lifts))]
    dim = d * d + d
    s = [0] * dim
    for z in chosen:
        for i in range(dim):
            s[i] += z[i]
    return FaceCertificate(d, tuple(s))


def _in_face_witness(gens, s, k: int):
    """lambda, tau >= 0 with gens[k] + sum_g lambda_g g = (1 + tau) s, or None.

    Feasible exactly when gens[k] lies in the face whose relative interior
    holds s; the scale tau makes the test need no threshold.  The returned
    vector ends with tau.
    """
    cols = gens + [tuple(-v for v in s)]
    rhs = [v - z for v, z in zip(s, gens[k])]
    return linalg.lp_feasible(_columns(cols, len(s)), rhs, [True] * len(cols))


def _span_members(gens, support, width: int) -> set[int]:
    """Indices of the generators in the span of gens[j], j in support."""
    normals = _orthogonal_basis([gens[j] for j in support], width)
    return {k for k, g in enumerate(gens) if not any(_dot(g, n) for n in normals)}


def certificate_decode(cert: FaceCertificate) -> tuple[Bit, ...]:
    """The 0/1 points of the unique face F whose relative interior holds the sum.

    G is the set of nonzero 0/1 points, worked on through their reduced
    lifts; the zero vector is always included.

    1. One LP writes s = sum_g lambda_g lift(g) with lambda >= 0 (no such
       decomposition: NotInCone).  Every g in the support S of this basic
       solution lies in F, because s is in the relative interior of F and a
       positive combination of points of the cone lies in a face only if
       each of them does.
    2. P is the set of g whose lift lies in span(S): the g orthogonal to
       an integer basis of its complement, from one fraction-free echelon.  span(S) is inside lin(F), and G meets lin(F) exactly in
       G ∩ F (F is the cone cut by a supporting hyperplane that contains
       lin(F)), so P ⊆ G ∩ F.
    3. If P ∪ {0} passes the exposed-face test, cone(P) is a face F' with
       F' ∩ G = P.  It holds s, so F ⊆ F' as F is the smallest face holding
       s; and P ⊆ F gives F' ⊆ F.  Hence F = F' and the answer is P ∪ {0}.
    4. Otherwise some g outside P lies in F, or F = cone(G ∩ F) = cone(P)
       would be a face.  For the generators outside P, in order, one LP asks
       whether some positive multiple of s minus lift(g) stays in the cone,
       which holds exactly when g ∈ F.  A g that fails never enters F, so it
       is not tried again; at the first g that passes, g and the support of
       that LP's solution (all in F, by the argument of step 1) join S, P is
       recomputed, and step 3 runs again.  Each round grows P, so the loop
       ends; when no generator is left to try, every g outside P has failed
       and P = G ∩ F.

    The answer is the set of g for which step 4's LP is feasible: the same
    as testing every generator, with about two LPs when step 3 succeeds.
    """
    d = cert.d
    _check_dimension(d)
    s = _reduced_sum(cert)
    nonzero = [x for x in all_points(d) if any(x)]
    gens = [_reduced_lift(x) for x in nonzero]
    lam = linalg.lp_feasible(_columns(gens, len(s)), s, [True] * len(gens))
    if lam is None:
        raise NotInCone(_NOT_IN_CONE)
    support = {j for j, v in enumerate(lam) if v}
    inside = _span_members(gens, support, len(s))
    zero = tuple([0] * d)

    def face(members):
        return [zero] + [nonzero[k] for k in sorted(members)]

    done = is_face(d, face(inside))
    for k in range(len(gens)):
        if done:
            break
        if k in inside:
            continue
        lam = _in_face_witness(gens, s, k)
        if lam is not None:
            support |= {k} | {j for j, v in enumerate(lam[:-1]) if v}
            inside = _span_members(gens, support, len(s))
            done = is_face(d, face(inside))
    return tuple(sorted(face(inside)))


def enumerate_faces(d: int) -> tuple[tuple[Bit, ...], ...]:
    """Every face of the correlation cone as a 0/1 point set (small d only)."""
    if d > _FACE_ENUM_LIMIT:
        raise DimensionTooLarge(f"face enumeration is limited to d <= {_FACE_ENUM_LIMIT}")
    _check_dimension(d)
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
