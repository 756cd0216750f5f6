"""Stable set polytopes of bipartite graphs and the graph census.

For a bipartite graph the polytope is cut out by the rows x_v >= 0, the
edge rows x_u + x_v <= 1 and x_v <= 1 for each isolated node, and every
stable set's characteristic vector has slack 0 or 1 against every row.  The
maximal slack matrix, that of the polytope's completion, is read off the
graph with no closure: its rows are the clique rows x(A) >= 0 and
x(A) <= 1, its points the stable sets and the apex, and each product a
bit count of two node masks (`stab_maximal_slack`).  The census builds the edge masks
of the labeled bipartite graphs on n nodes from their 2-colourings, counts
them, filters to minimum degree 2, groups those into isomorphism classes
as the orbits of the node relabellings on the masks, and compares the class
count with the number of distinct canonical maximal-slack forms, building
a graph only for each class's least mask.  Its result is the JSON object
`stab-census` prints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, permutations

from . import canon
from .configuration import BinaryMatrix, SlackMatrix, _subset_sums, _with_products, slack_matrix
from .linalg import integers
from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    NotBipartite,
    ParseError,
)

_CENSUS_LIMIT = 7
# a graph on n nodes has up to 2^n stable sets, each a slack column; at
# n = 15, on 2 cores with Python 3.11.7, the slowest graph, the edgeless
# one, takes 0.6-0.95 s in a fresh `tlc stab-slack --maximal` and about
# 0.4 s for its basic slack, at 40 MB peak, about 2x more per extra node
_NODE_LIMIT = 15


@dataclass(frozen=True)
class BipartiteGraph:
    """Simple labeled bipartite graph on nodes 0..n-1.

    The constructor keeps each node's neighbours as one node mask (_adj),
    which the bipartite test reads and the stable sets are built from.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    _adj: tuple[int, ...] = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.n > _NODE_LIMIT:
            raise DimensionTooLarge(f"stable-set polytopes are limited to n <= {_NODE_LIMIT} nodes")
        edges = _checked_edges(self.n, self.edges)
        adj = [0] * self.n
        for u, v in edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        if not _bipartite(adj):
            raise NotBipartite("graph has an odd cycle")
        if self.n < 1:
            raise ParseError("graphs need at least one node")
        if len(set(edges)) != len(edges):
            raise ParseError("parallel edge")
        object.__setattr__(self, "edges", tuple(sorted(edges)))
        object.__setattr__(self, "_adj", tuple(adj))

    @classmethod
    def from_edges(cls, n: int, edges) -> "BipartiteGraph":
        return cls(n, tuple(edges))


def _checked_edges(n: int, edges) -> list[tuple[int, int]]:
    """The edges as (low, high) node pairs, each checked to join two distinct
    nodes in range."""
    out = []
    # a TypeError or ValueError here comes from iterating a non-iterable
    # edge list or from unpacking an edge that is not two endpoints
    try:
        for edge in edges:
            u, v = integers(edge, ParseError, "edge endpoints must be integers")
            if u == v:
                raise ParseError(f"loop at node {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(f"edge ({u},{v}) out of range")
            out.append((min(u, v), max(u, v)))
    except (TypeError, ValueError):
        raise ParseError("edges must be pairs of nodes") from None
    return out


def _bipartite(adj: list[int]) -> bool:
    """Whether the graph with adjacency bitmasks adj has no odd cycle.  Each
    component is searched one layer (the bitmask of the nodes at one distance
    from its lowest node) at a time.  An edge inside a layer closes an odd
    cycle; with none, the parities of the layers colour the graph properly."""
    unseen = (1 << len(adj)) - 1
    while unseen:
        layer = seen = unseen & -unseen
        while layer:
            reach, rest = 0, layer
            while rest:
                low = rest & -rest
                nb = adj[low.bit_length() - 1]
                if nb & layer:
                    return False
                reach |= nb
                rest ^= low
            layer = reach & ~seen
            seen |= layer
        unseen &= ~seen
    return True


def graph_from_text(text: str) -> BipartiteGraph:
    """Parse 'n' on the first line, then one 'u v' edge per line (0-based)."""
    lines = [ln for ln in text.splitlines()]
    if not lines or not lines[0].strip():
        raise ParseError("missing node count", line=1)
    try:
        n = int(lines[0])
    except ValueError:
        raise ParseError("node count must be an integer", line=1) from None
    edges = []
    for i, ln in enumerate(lines[1:], start=2):
        if not ln.strip():
            continue
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError("edge lines are 'u v'", line=i)
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ParseError("edge endpoints must be integers", line=i) from None
    return BipartiteGraph.from_edges(n, edges)


def _stable_masks(g: BipartiteGraph) -> list[int]:
    """All stable sets, as node bitmasks.  Node by node, each stable set
    found so far that holds no neighbour of v gains a copy with v."""
    sets = [0]
    for v in range(g.n):
        sets += [s | 1 << v for s in sets if not s & g._adj[v]]
    return sets


def _clique_line(n: int, a: int, flip: int, masks) -> tuple[tuple[int, ...], list[int]]:
    """The row of the clique A of node mask a, (1_A, 0), or (-1_A, -1) when
    flip is 1, and its products with the points (1_S, -1) of the stable
    sets S of node masks masks.  These are |A n S| and 1 - |A n S|, and
    |A n S| is 0 or 1 because S holds at most one node of a clique, so each
    product is (a & s).bit_count(), xor flip: none is multiplied out."""
    row = tuple((-1 if flip else 1) if a >> v & 1 else 0 for v in range(n)) + (-flip,)
    return row, [(a & s).bit_count() ^ flip for s in masks]


def _basic_slack(g: BipartiteGraph):
    """The basic rows (a, b) of x.a >= b, the points (1_S, -1) of the stable
    sets S in the order of their sorted node tuples, and the row-major
    slack bits of the rows against the points.

    The rows are x_v >= 0, x_u + x_v <= 1 for every edge, and x_v <= 1 for
    every isolated node v, which keeps the description bounded: (1_A, 0)
    for A = {v}, and (-1_A, -1) for A an edge or an isolated node, each a
    clique (_clique_line).
    """
    n = g.n
    masks = sorted(_stable_masks(g), key=lambda s: [v for v in range(n) if s >> v & 1])
    # (node mask of A, 1 for the row (-1_A, -1))
    cliques = [(1 << v, 0) for v in range(n)]
    cliques += [(1 << u | 1 << v, 1) for u, v in g.edges]
    cliques += [(1 << v, 1) for v in range(n) if not g._adj[v]]
    rows, bits = [], []
    for a, flip in cliques:
        row, line = _clique_line(n, a, flip, masks)
        rows.append(row)
        bits += line
    points = tuple(tuple(s >> v & 1 for v in range(n)) + (-1,) for s in masks)
    return tuple(rows), points, bits


def stab_basic_slack(g: BipartiteGraph) -> SlackMatrix:
    """Slack of every stable set against the basic rows (see _basic_slack)."""
    rows, points, bits = _basic_slack(g)
    return SlackMatrix(BinaryMatrix(len(rows), len(points), bits), rows, points)


def stab_maximal_slack(g: BipartiteGraph) -> SlackMatrix:
    """Maximal slack matrix of the stable set polytope: the slack matrix of
    its completion from the stable sets, built from the graph with no
    closure.

    The rows are (1_A, 0) and (-1_A, -1) for each clique A (the empty set,
    the single nodes and the edges of a bipartite graph), and the points
    are (1_S, -1) for each stable set S and the apex 0 (Chvatal, JCTB 1975):
    1. The empty set and every singleton are stable.  Against (0, -1) a row
       (a, b) has product -b, so b is 0 or -1, and against (e_v, -1) it has
       a_v - b, so a = 1_A when b = 0 and a = -1_A when b = -1, for A the
       nodes with a_v nonzero.
    2. The products of those rows with (1_S, -1) are |A n S| and
       1 - |A n S|.  These are 0/1 for every stable S exactly when A is a
       clique: a set that is not one holds two nodes with no edge between
       them, a stable pair.
    3. Closing those rows again, a point (x, t) has product -t with the
       row (0, -1), so t is 0 or -1.  At t = 0 the rows (e_v, 0) and
       (-e_v, -1) give x_v and -x_v in {0,1}, so x = 0.  At t = -1 the
       rows (e_v, 0) make x a 0/1 vector 1_S, and each edge row
       (-1_uv, -1) gives 1 - x_u - x_v in {0,1}, so S is stable.
    Both sides span R^(n+1), as _with_products requires: the rows hold
    (0, -1) and each (e_v, 0), the points (0, -1) and each (e_v, -1).
    Rows and points are sorted as int tuples, the order closure gives its
    numerators over a positive denominator.  No product is multiplied out:
    each row and its products against the stable sets are a _clique_line,
    and every product with the apex is 0.
    """
    n = g.n
    cliques = [0] + [1 << v for v in range(n)] + [1 << u | 1 << v for u, v in g.edges]
    # (point, stable-set mask), sorted
    points = sorted((tuple(s >> v & 1 for v in range(n)) + (-1,), s) for s in _stable_masks(g))
    masks = [s for _, s in points]
    # the rows are distinct, so the sort compares no bits
    lines = sorted(_clique_line(n, a, flip, masks) for a in cliques for flip in (0, 1))
    # the apex (0, 0) sorts right after the empty set's point (0, -1)
    points.insert(1, ((0,) * (n + 1), None))
    for _, bits in lines:
        bits.insert(1, 0)
    return slack_matrix(_with_products(n + 1, tuple(r for r, _ in lines), tuple(p for p, _ in points), [b for _, b in lines]))


# --- census ----------------------------------------------------------------


def _edge_list(n: int) -> list[tuple[int, int]]:
    return list(combinations(range(n), 2))


def _bipartite_masks(n: int) -> tuple[int, list[int]]:
    """The number of bipartite edge masks on n nodes and the sorted list of
    those with minimum degree 2.  A graph is bipartite exactly when its edges
    lie among the cross edges of some 2-colouring, so the masks are the ORs
    of the subsets of each colouring's cross edges (sums of distinct bits),
    with node n-1 kept on side 0 (the other half of the colourings repeats
    these)."""
    edges = _edge_list(n)
    masks = set()
    for side in range(1 << (n - 1)):
        cross = [1 << e for e, (u, v) in enumerate(edges) if (side >> u ^ side >> v) & 1]
        masks.update(_subset_sums(cross))
    kept = list(masks)
    for v in range(n):
        inc = sum(1 << e for e, edge in enumerate(edges) if v in edge)
        kept = [m for m in kept if (m & inc).bit_count() >= 2]
    return len(masks), sorted(kept)


def graph_from_mask(n: int, mask: int) -> BipartiteGraph:
    return BipartiteGraph.from_edges(n, [edge for e, edge in enumerate(_edge_list(n)) if mask >> e & 1])


def census(n: int) -> dict:
    """The census's JSON object: the bipartite counts of the labeled graphs
    on n nodes, the isomorphism classes and maximal slack forms of minimum
    degree 2, and the count sandwich's exponents and exact tests."""
    if n < 1:
        raise DimensionMismatch(f"node count must be at least 1, got {n}")
    if n > _CENSUS_LIMIT:
        raise DimensionTooLarge(f"census is limited to 1 <= n <= {_CENSUS_LIMIT}")
    bip, kept = _bipartite_masks(n)

    # two graphs are isomorphic exactly when a node relabelling p carries one
    # edge set onto the other, edge (u, v) to the edge {p(u), p(v)}.  The kept
    # masks are closed under relabelling (bipartiteness and degrees are
    # invariants), so in sorted order a mask not yet placed is the least of a
    # new class and its n! images are the whole class; only that least mask
    # becomes a graph.  moves[e] holds, for each relabelling, the bit that
    # edge e moves to, so an image sums one column of its edges' rows.
    bit = {pair: 1 << e for e, (u, v) in enumerate(_edge_list(n)) for pair in ((u, v), (v, u))}
    moves = [[bit[p[u], p[v]] for p in permutations(range(n))] for u, v in _edge_list(n)]
    unplaced, reps = set(kept), []
    for mask in kept:
        if mask in unplaced:
            reps.append(mask)
            unplaced.difference_update(map(sum, zip(*[row for e, row in enumerate(moves) if mask >> e & 1])))
    forms = {canon.canonical_form(stab_maximal_slack(graph_from_mask(n, m)).matrix).bytes for m in reps}

    upper_exp = Fraction(n * n, 4) + n
    # exact sandwich tests: count^4 vs 2^(n^2+4n) and (count*n^2)^4 vs same
    power = n * n + 4 * n
    return {
        "nodes": n,
        "labeled_bipartite": bip,
        "labeled_bipartite_min_degree2": len(kept),
        "isomorphism_classes_min_degree2": len(reps),
        "maximal_slack_forms_min_degree2": len(forms),
        "bounds": {
            "lower_log2": float(upper_exp) - 2 * math.log2(n),
            "lower_log2_exact_part": str(upper_exp),
            "lower_log2_note": "exact part minus 2*log2(n)",
            "upper_log2": str(upper_exp),
        },
        "within_lower": (bip * n * n) ** 4 >= 2 ** power,
        "within_upper": bip ** 4 <= 2 ** power,
    }
