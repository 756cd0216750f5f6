"""Succinct encoding of maximal configurations via lattice generators.

Given a maximal configuration with 0/1 point side B, a short generator list
b_1..b_k is grown from d independent vectors by appending members of B that
lie outside the current integer lattice; each append divides the lattice
determinant by an integer factor of at least 2, so k <= d + d*log2(d).  The
maps zeta(a) = (<a,b_1>,..,<a,b_k>) and phi(b) = integer coordinates of b
over the generators satisfy <zeta(a), phi(b)> = <a,b>, which turns the whole
configuration into a dimension-k face certificate plus the k x d generator
matrix: a weighted graph on k nodes with integer weights at most k(k+1)/2.

The round trip runs in integers.  Generator selection computes one Hermite
form per growth step and hands the last one to the GeneratorSet it returns;
any other GeneratorSet computes the form of its generators once, on first
use.  So every phi reduces against that one form;
decompress solves all decoded face points in one fraction-free elimination.
Fractions are built only for the vectors of the Configuration that
decompress returns.

Generators and certificates are checked as they are built (GeneratorSet
ranks its leading generators, decoding tests the certificate against every
facet), as is the weighted-graph text they are read from.  What the round
trip derives is carried, not checked again: the cut that face_points makes
is a face, and the configuration decompress returns carries the products
its closure decided.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import corrcone, linalg
from .configuration import Configuration, _Integral, _with_closure, closure, refuse_trailing
from .errors import (
    DimensionMismatch,
    NonBinaryProduct,
    NotInLattice,
    NotMaximal,
    NotSpanning,
    ParseError,
)
from .linalg import vec


@dataclass(frozen=True)
class GeneratorSet:
    """Ordered 0/1 generators; the first d are independent, k obeys the log bound."""

    d: int
    gens: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        gens = tuple(tuple(int(x) for x in g) for g in self.gens)
        object.__setattr__(self, "gens", gens)
        d = self.d
        if any(len(g) != d for g in gens):
            raise DimensionMismatch("generators of wrong dimension")
        if any(x not in (0, 1) for g in gens for x in g):
            raise NonBinaryProduct("generators must be 0/1 vectors")
        if linalg.rank([list(g) for g in gens[:d]]) != d:
            raise NotSpanning("leading generators are not independent")
        k = len(gens)
        # k <= d + d*log2(d), checked exactly: 2^(k-d) <= d^d (k = 1 at d = 1)
        if (1 << (k - d)) > d ** d:
            raise DimensionMismatch(f"k = {k} exceeds the generator bound for d = {d}")

    @property
    def k(self) -> int:
        return len(self.gens)

    @cached_property
    def hermite(self) -> tuple[list[list[int]], list[list[int]]]:
        """The Hermite form (H, U) of the generator rows, computed on first
        use unless select_generators handed over its own; every phi over
        this set reduces against it."""
        return linalg.hnf(self.gens)

    @cached_property
    def det_history(self) -> tuple[int, ...]:
        """The lattice determinant of the first d, d + 1, .., k generators.
        For a set grown by select_generators each value divides the one
        before it with a quotient of at least 2."""
        return tuple(linalg.lattice_determinant_rect(self.gens[:k]) for k in range(self.d, self.k + 1))


@dataclass(frozen=True)
class CompressedConfig:
    gens: GeneratorSet
    cert: corrcone.FaceCertificate

    def __post_init__(self):
        if self.cert.d != self.gens.k:
            raise DimensionMismatch("certificate dimension must equal the generator count")


def select_generators(b_vectors, d: int) -> GeneratorSet:
    """Grow generators until their lattice equals the lattice of all of B.

    Starts from the first d independent vectors in sorted order and appends
    the first vector outside the current lattice.  Each step computes one
    Hermite form and tests the vectors against it.  The vectors before an
    appended one lie in the smaller lattice, so the next step resumes the
    search after it.  The last step's form is the Hermite form of the
    returned set's generators, and the set keeps it as its `hermite`.
    """
    bs = sorted(set(tuple(int(x) for x in v) for v in b_vectors))
    if any(len(b) != d for b in bs):
        raise DimensionMismatch("vectors of wrong dimension")
    if any(x not in (0, 1) for b in bs for x in b):
        raise NonBinaryProduct("point side must be 0/1 before generator selection")
    idx = linalg.first_independent(bs, d)
    if idx is None:
        raise NotSpanning(f"point side does not span R^{d}")
    chosen = [bs[i] for i in idx]
    start = 0
    while True:
        h, u = linalg.hnf(chosen)
        start = next((i for i in range(start, len(bs)) if linalg._hnf_coords(h, u, bs[i]) is None), None)
        if start is None:
            break
        chosen.append(bs[start])
        start += 1
    gens = GeneratorSet(d, tuple(chosen))
    # the last form is the set's own: hand it over instead of building it again
    gens.__dict__["hermite"] = (h, u)
    return gens


def zeta(a, gens: GeneratorSet) -> tuple[int, ...]:
    """(<a,b_1>, .., <a,b_k>); every product must come out 0 or 1."""
    av = vec(a)
    if len(av) != gens.d:
        raise DimensionMismatch(f"dot of lengths {len(av)} and {gens.d}")
    out = []
    for g in gens.gens:
        # a generator is 0/1: the product sums a's entries where it has a 1
        p = sum(x for x, bit in zip(av, g) if bit)
        if p not in (0, 1):
            raise NonBinaryProduct(f"product {p} of {a} with generator {g}")
        out.append(int(p))
    return tuple(out)


def phi(b, gens: GeneratorSet) -> tuple[int, ...]:
    """Integer coordinates of b over the generators; phi(b_i) = e_i exactly.

    Any valid coordinate vector satisfies <zeta(a), phi(b)> = <a, b>, so the
    representative only affects serialized bytes, not decoded content.
    """
    bt = tuple(int(x) for x in b)
    if len(bt) != gens.d:
        raise DimensionMismatch("vector of wrong dimension")
    for i, g in enumerate(gens.gens):
        if bt == g:
            return tuple(1 if j == i else 0 for j in range(gens.k))
    coords = linalg._hnf_coords(*gens.hermite, bt)
    if coords is None:
        raise NotInLattice(f"{b} is not in the generator lattice")
    return coords


def compress(cfg: Configuration) -> CompressedConfig:
    """Encode a maximal configuration whose B side is 0/1.

    The face is the cut of the phi(b) (face_points), and its certificate is
    encoded without the face test of certificate_encode: every integer
    vector cuts out a face of the correlation cone, and so does an
    intersection of such cuts.
    """
    for v in cfg.B:
        if any(x != 0 and x != 1 for x in v):
            raise NonBinaryProduct("B side must be 0/1; normalize first")
    if not cfg.is_maximal():
        raise NotMaximal("only maximal configurations are compressed")
    gens = select_generators(cfg.B, cfg.d)
    phis = [phi(b, gens) for b in cfg.B]
    a_prime = corrcone.face_points(gens.k, phis)
    return CompressedConfig(gens, corrcone._face_certificate(gens.k, a_prime))


def decompress(cc: CompressedConfig) -> Configuration:
    """Reconstruct the configuration: decode the face, solve back, close.

    Every decoded point a' gives the a with G a = a' when there is one (G the
    k x d generator matrix, of full column rank).  One fraction-free
    elimination of [G | A'^T], A' the decoded points as rows, solves them
    all: a' is consistent exactly when its column is 0 on every non-pivot
    row, and then a_c = (pivot row's entry) / D on each pivot column c.
    closure reads the solved points as these numerators over D
    (_Integral), not by scaling their Fractions back to integers.

    The result carries the products that closure decided, unchecked.  A
    spans, or closure raises NotSpanning.  B spans: each generator g_i has
    the 0/1 product <a, g_i> = a'_i with every decoded a, so it lies in
    closure(A), and the leading d generators are independent.
    """
    gens = cc.gens
    a_prime = corrcone.certificate_decode(cc.cert)
    d = gens.d
    aug = [list(g) + [ap[i] for ap in a_prime] for i, g in enumerate(gens.gens)]
    aug, piv_rows, _, det = linalg._bareiss(aug, d)
    pivots = set(piv_rows)
    zero_rows = [row for i, row in enumerate(aug) if i not in pivots]
    # G has rank d, so pivot row k is the one of column k
    nums = [tuple(aug[r][p] for r in piv_rows) for p in range(d, d + len(a_prime))
            if not any(row[p] for row in zero_rows)]
    # nums is never empty: the zero point lies on every facet, so it is
    # decoded, and its column is zero, so consistent
    return _with_closure(d, closure(_Integral._over(nums, det), d))


def weighted_graph_serialize(cc: CompressedConfig) -> str:
    """Text form: 'k d', the k x d generator bits, the upper triangle of the
    symmetric k x k certificate block (node and edge weights), and the tail."""
    gens = cc.gens
    k, d = gens.k, gens.d
    s = cc.cert.s
    lines = [f"{k} {d}"]
    for g in gens.gens:
        lines.append("".join(str(x) for x in g))
    for i in range(k):
        lines.append(" ".join(str(s[i * k + j]) for j in range(i, k)))
    lines.append(" ".join(str(s[k * k + i]) for i in range(k)))
    return "\n".join(lines) + "\n"


def weighted_graph_parse(text: str) -> CompressedConfig:
    lines = [ln for ln in text.splitlines()]
    if not lines:
        raise ParseError("empty weighted-graph text", line=1)
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError("header must be 'k d'", line=1)
    try:
        k, d = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError("header must be two integers", line=1) from None
    if k < 1 or d < 1:
        raise ParseError("header needs k >= 1 and d >= 1", line=1)
    if len(lines) < 1 + k + k + 1:
        raise ParseError(f"expected {1 + 2 * k + 1} lines", line=len(lines))
    gen_rows = []
    for i in range(k):
        row = lines[1 + i].strip()
        if len(row) != d or any(ch not in "01" for ch in row):
            raise ParseError(f"generator row must be {d} bits", line=2 + i)
        gen_rows.append(tuple(int(ch) for ch in row))
    # row i holds the weights of the pairs (i, i + off): block entry (i, j) is upper[min(i, j)][|i - j|]
    upper = []
    for i in range(k):
        try:
            vals = [int(v) for v in lines[1 + k + i].split()]
        except ValueError:
            raise ParseError("weights must be integers", line=2 + k + i) from None
        if len(vals) != k - i:
            raise ParseError(f"expected {k - i} weights", line=2 + k + i)
        upper.append(vals)
    try:
        tail = [int(v) for v in lines[1 + 2 * k].split()]
    except ValueError:
        raise ParseError("tail must be integers", line=2 + 2 * k) from None
    if len(tail) != k:
        raise ParseError(f"expected {k} tail values", line=2 + 2 * k)
    refuse_trailing(lines, 2 + 2 * k, "weighted graph")
    # the cone's limit on k comes before GeneratorSet ranks the k leading generators
    corrcone._check_dimension(k)
    s = tuple(upper[min(i, j)][abs(i - j)] for i in range(k) for j in range(k)) + tuple(tail)
    return CompressedConfig(GeneratorSet(d, tuple(gen_rows)), corrcone.FaceCertificate(k, s))
