"""Inputs, basis choices and the checks of the paper's facts shared by
several test modules."""

from fractions import Fraction

from tlc import linalg
from tlc.compress import GeneratorSet
from tlc.configuration import SIDE_A, BinaryMatrix
from tlc.corrcone import all_points, lift_raw
from tlc.errors import DimensionMismatch, NonBinaryProduct
from tlc.geometry import polytope_completion
from tlc.linalg import vec
from tlc.stabset import BipartiteGraph, _basic_slack, _bipartite, _edge_list


def dot(u, v) -> Fraction:
    """The exact inner product of two vectors of equal length."""
    if len(u) != len(v):
        raise DimensionMismatch(f"dot of lengths {len(u)} and {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def matrix_from_rows(rows) -> BinaryMatrix:
    """The 0/1 matrix with the given rows; DimensionMismatch when their
    lengths differ."""
    rows = [tuple(r) for r in rows]
    n = len(rows[0]) if rows else 0
    if any(len(r) != n for r in rows):
        raise DimensionMismatch("ragged rows")
    return BinaryMatrix(len(rows), n, [x for r in rows for x in r])


def mat_vec(rows, v):
    return tuple(dot(r, v) for r in rows)


def lifted_rank(d: int) -> int:
    """Rank of all lifted 0/1 vectors; the correlation cone's linear dimension."""
    return linalg.rank([list(lift_raw(x)) for x in all_points(d)])


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


def simplex_vertices(d: int) -> tuple[tuple[int, ...], ...]:
    return ((0,) * d,) + tuple(tuple(int(j == i) for j in range(d)) for i in range(d))


def examples_library() -> dict[str, tuple[tuple[int, ...], ...]]:
    """Vertex sets of the built-in two-level polytopes, keyed by name."""
    lib: dict[str, tuple[tuple[int, ...], ...]] = {"segment": tuple(all_points(1))}
    for d in (2, 3, 4):
        lib[f"cube{d}"] = tuple(all_points(d))
        lib[f"simplex{d}"] = simplex_vertices(d)
    lib["simplex1"] = simplex_vertices(1)
    lib["cross2"] = ((1, 0), (-1, 0), (0, 1), (0, -1))
    return lib


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


# seven 0/1 vectors that generate Z^6, none six of which do: every
# independent 6-subset has determinant +-2, +-3 or +-4
NO_BASIS_INSIDE = [(0, 0, 0, 1, 0, 1), (0, 0, 1, 0, 1, 0), (0, 1, 0, 0, 1, 1), (1, 0, 0, 0, 0, 1),
                   (1, 0, 0, 1, 1, 1), (1, 0, 1, 1, 0, 1), (1, 1, 0, 1, 1, 0)]


def det_history(gens: GeneratorSet) -> tuple[int, ...]:
    """The lattice determinant of the first d, d + 1, .., k generators.
    For a set grown by select_generators each value divides the one
    before it with a quotient of at least 2."""
    return tuple(linalg.lattice_determinant_rect(gens.gens[:k]) for k in range(gens.d, gens.k + 1))


def _tight_sets(g: BipartiteGraph) -> tuple[list[tuple[int, ...]], list[int]]:
    """The stable sets and, for each, the mask of the basic rows tight at its
    point (slack bit 0), isolated nodes' rows x_v <= 1 included."""
    rows, cols, _, bits = _basic_slack(g)
    ncols = len(cols)
    return cols, [sum(1 << i for i in range(len(rows)) if not bits[i * ncols + j]) for j in range(ncols)]


def simple_vertices(g: BipartiteGraph) -> list[tuple[int, ...]]:
    """Stable sets lying on exactly n rows of the basic description."""
    cols, tight = _tight_sets(g)
    return [s for s, t in zip(cols, tight) if t.bit_count() == g.n]


def zero_vertex_neighbors(g: BipartiteGraph) -> list[tuple[int, ...]]:
    """Stable sets adjacent to the empty set on the polytope.

    Uses combinatorial adjacency over an exact bounded row description: two
    vertices are adjacent exactly when no third vertex is tight on every row
    tight at both.
    """
    cols, tight = _tight_sets(g)
    empty = cols.index(())
    out = []
    for j, s in enumerate(cols):
        common = tight[empty] & tight[j]
        if j != empty and not any(t & common == common for k, t in enumerate(tight) if k not in (empty, j)):
            out.append(s)
    return out


def reference_bipartite_scan(n: int) -> tuple[int, list[int]]:
    """The count of bipartite edge masks on n nodes and the sorted list of
    those with minimum degree 2, by testing every one of the 2^C(n,2)
    labeled graphs for an odd cycle: the oracle of
    `stabset._bipartite_masks`."""
    edges = _edge_list(n)
    bip = 0
    kept = []
    for mask in range(1 << len(edges)):
        adj = [0] * n
        mm = mask
        while mm:
            low = mm & -mm
            u, v = edges[low.bit_length() - 1]
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            mm ^= low
        if not _bipartite(adj):
            continue
        bip += 1
        if all(a.bit_count() >= 2 for a in adj):
            kept.append(mask)
    return bip, kept
