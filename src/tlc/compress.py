"""Succinct encoding of maximal configurations via lattice generators.

Given a maximal configuration with 0/1 point side B, a short generator list
b_1..b_k is grown from d independent vectors by appending members of B that
lie outside the current integer lattice; each append divides the lattice
determinant by an integer factor of at least 2, so k <= d + d*log2(d).  When
that gives k > d but some d members of B already generate B's lattice, the
first such d (in lexicographic order) are taken instead, so k = d.  The
maps zeta(a) = (<a,b_1>,..,<a,b_k>) and phi(b) = integer coordinates of b
over the generators satisfy <zeta(a), phi(b)> = <a,b>, which turns the whole
configuration into a dimension-k face certificate plus the k x d generator
matrix: a weighted graph on k nodes with integer weights at most k(k+1)/2.

The round trip runs in integers.  Generator selection computes one Hermite
form per growth step and hands the last one to the GeneratorSet it returns;
any other GeneratorSet computes the form of its generators once, on first
use, and phi reduces against that one form.  When the first d independent
vectors of B already generate its lattice, the selection's one pass has
reduced every b against their form, and it hands those coordinates over
too, so phi looks each b up instead of reducing it again.  decompress
solves all decoded face points in one fraction-free elimination.
Fractions are built only for the vectors of the Configuration that
decompress returns.

What is read from outside is checked: the weighted-graph text, and the
GeneratorSet and FaceCertificate built from it (the set ranks its leading
generators, decoding tests the certificate against every facet).  What
the round trip derives is built unchecked (configuration._derived) and
carries what the code decided: the selection's generator sets, the cut of
the phi(b), which is a face, its certificate, and the configuration
decompress returns, with the products its closure decided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from . import corrcone, linalg
from .configuration import Configuration, _derived, _Integral, _with_closure, closure, read_header, refuse_trailing
from .errors import (
    DimensionMismatch,
    NonBinaryProduct,
    NotInLattice,
    NotMaximal,
    NotSpanning,
    ParseError,
)


# prefixes, of any length, that _basis_in ranks before it gives up: at d = 5
# that is under 0.1 s, and the four d = 5 class orientations that need it rank 7
_SUBSET_BUDGET = 4096


@dataclass(frozen=True)
class GeneratorSet:
    """Ordered 0/1 generators; the first d are independent, k obeys the log bound.

    The constructor checks all three, for generators read from outside.
    select_generators builds its sets unchecked (configuration._derived),
    as they hold by construction.
    """

    d: int
    gens: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        gens = tuple(linalg.integers(g, NonBinaryProduct, "generators must be 0/1 vectors") for g in self.gens)
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
    def coordinates(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        """phi of the vectors whose coordinates are already known: those
        select_generators found in its one pass when it kept k = d
        generators, handed over with its Hermite form; none otherwise."""
        return {}


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
    When no vector was appended, that one step reduced every vector of B
    against it, and the set keeps those coordinates as its `coordinates`:
    over k = d generators they are unique, so they are phi's.

    When that set has more than d generators, its form's diagonal gives the
    lattice determinant of B, and the first d-subset of B with that
    determinant (_basis_in), if one is found, is returned instead: it is a
    basis of the same lattice.

    The set is built unchecked (configuration._derived), as it is a
    GeneratorSet by construction: its generators are 0/1 members of B, its
    leading d independent, and each append at least halves the lattice
    determinant, which starts at most d^(d/2) (Hadamard), so 2^(k-d) <= d^d.
    """
    bs = sorted({linalg.integers(v, NonBinaryProduct, "point side must be 0/1 before generator selection")
                 for v in b_vectors})
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
        coords = {}
        for i in range(start, len(bs)):
            c = linalg._hnf_coords(h, u, bs[i])
            if c is None:
                break
            coords[bs[i]] = c
        else:
            break
        chosen.append(bs[i])
        start = i + 1
    if len(chosen) > d:
        basis = _basis_in(bs, d, math.prod(h[i][i] for i in range(d)))
        if basis is not None:
            return _derived(GeneratorSet, d=d, gens=tuple(basis))
        return _derived(GeneratorSet, d=d, gens=tuple(chosen), hermite=(h, u))
    return _derived(GeneratorSet, d=d, gens=tuple(chosen), hermite=(h, u), coordinates=coords)


def _basis_in(bs, d: int, det: int):
    """The first d-subset of bs, in lexicographic order, whose determinant
    is +-det, or None when there is none or it ranked _SUBSET_BUDGET
    prefixes first.

    A depth-first walk in that order extends only independent prefixes: a
    subset holding a dependent one has determinant 0.  One fraction-free
    elimination ranks each prefix; for d rows its last pivot is the
    determinant up to sign.
    """
    budget = _SUBSET_BUDGET

    def extend(prefix, start):
        nonlocal budget
        for i in range(start, len(bs) - d + len(prefix) + 1):
            if budget == 0:
                return None
            budget -= 1
            rows = [*prefix, bs[i]]
            _, pivots, _, last = linalg._bareiss([list(r) for r in rows], d)
            if len(pivots) < len(rows):
                continue
            if len(rows) < d:
                found = extend(rows, i + 1)
                if found is not None:
                    return found
            elif abs(last) == det:
                return rows
        return None

    return extend([], 0)


def phi(b, gens: GeneratorSet) -> tuple[int, ...]:
    """Integer coordinates of b over the generators; phi(b_i) = e_i exactly.

    Any valid coordinate vector satisfies <zeta(a), phi(b)> = <a, b>, so the
    representative only affects serialized bytes, not decoded content.
    """
    bt = linalg.integers(b, NotInLattice, "{} is not in the generator lattice")
    if len(bt) != gens.d:
        raise DimensionMismatch("vector of wrong dimension")
    coords = gens.coordinates.get(bt)
    if coords is not None:
        return coords
    for i, g in enumerate(gens.gens):
        if bt == g:
            return tuple(1 if j == i else 0 for j in range(gens.k))
    coords = linalg._hnf_coords(*gens.hermite, bt)
    if coords is None:
        raise NotInLattice(f"{b} is not in the generator lattice")
    return coords


def compress(cfg: Configuration) -> CompressedConfig:
    """Encode a maximal configuration whose B side is 0/1.

    The face is the cut of the phi(b) (face_points, without its checks of
    the phi(b), which are integer vectors of length k), and its certificate
    is encoded without the face test of certificate_encode: every integer
    vector cuts out a face of the correlation cone, and so does an
    intersection of such cuts.  The cone's limit on k is still checked.
    When generator selection kept the first d independent vectors, phi
    reads each phi(b) off the coordinates the selection handed over, so
    each b is reduced once.
    """
    for v in cfg.B:
        if any(x != 0 and x != 1 for x in v):
            raise NonBinaryProduct("B side must be 0/1; normalize first")
    if not cfg.is_maximal():
        raise NotMaximal("only maximal configurations are compressed")
    gens = select_generators(cfg.B, cfg.d)
    phis = [phi(b, gens) for b in cfg.B]
    corrcone._check_dimension(gens.k)
    cert = corrcone._face_certificate(gens.k, corrcone._cut(gens.k, phis))
    return _derived(CompressedConfig, gens=gens, cert=cert)


def decompress(cc: CompressedConfig) -> Configuration:
    """Reconstruct the configuration: decode the face, solve back, close.

    Every decoded point a' gives the a with G a = a' when there is one (G the
    k x d generator matrix, of full column rank).  One fraction-free
    elimination of [G | A'^T], A' the decoded points as rows, solves them
    all (linalg._solve), as integer numerators over D > 0.  closure reads
    the distinct solved points as these numerators over D (_Integral), not
    by scaling their Fractions back to integers.

    The result carries the products that closure decided, unchecked.  A
    spans, or closure raises NotSpanning.  B spans: each generator g_i has
    the 0/1 product <a, g_i> = a'_i with every decoded a, so it lies in
    closure(A), and the leading d generators are independent.
    """
    gens = cc.gens
    a_prime = corrcone.certificate_decode(cc.cert)
    d = gens.d
    xs, det = linalg._solve([list(g) + [ap[i] for ap in a_prime] for i, g in enumerate(gens.gens)], d)
    # never empty: the zero point lies on every facet, so it is decoded, and
    # its column is zero, so consistent
    nums = sorted(set(xs) - {None})
    return _with_closure(d, closure(_Integral._of(nums, det), d))


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
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty weighted-graph text", line=1)
    k, d = read_header(lines, "k d")
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
