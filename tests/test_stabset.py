import hashlib
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from tlc import canon, configuration, geometry, stabset
from tlc.errors import DimensionMismatch, DimensionTooLarge, NotBipartite, ParseError
from tlc.stabset import (
    BipartiteGraph,
    census,
    graph_from_mask,
    graph_from_text,
    stab_basic_slack,
    stab_maximal_slack,
)

from helpers import char_vec, reference_bipartite_scan, simple_vertices, stable_sets, zero_vertex_neighbors

F = Fraction

# hand-derived labeled counts: bipartite graphs, then minimum-degree-2 ones,
# then their isomorphism classes (n = 1..6; the 41 comes from
# inclusion-exclusion over the four triangles on 4 nodes, the 355 from the
# 3+3 and 2+4 bipartition case split)
BIPARTITE_COUNTS = {1: 1, 2: 2, 3: 7, 4: 41}
MIN_DEG2_COUNTS = {1: 0, 2: 0, 3: 0, 4: 3, 5: 10, 6: 355, 7: 7616}
ISO_CLASS_COUNTS = {4: 1, 5: 1, 6: 5, 7: 9}


def K2():
    return BipartiteGraph.from_edges(2, [(0, 1)])


def C4():
    return BipartiteGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


def P3():
    return BipartiteGraph.from_edges(3, [(0, 1), (1, 2)])


def test_graph_construction_rejects_odd_cycle():
    with pytest.raises(NotBipartite):
        BipartiteGraph.from_edges(3, [(0, 1), (1, 2), (2, 0)])


def test_graph_rejects_loops():
    with pytest.raises(ParseError):
        BipartiteGraph.from_edges(2, [(0, 0)])


def test_graph_error_precedence():
    # the constructor checks, in order: node limit, edges, odd cycle, n < 1,
    # parallel edge; from_edges and a direct construction agree
    cases = [
        (3, [(0, 1), (1, 2), (2, 0), (0, 1)], NotBipartite),
        (0, [], ParseError),
        (16, [(3, 3)], DimensionTooLarge),
        (2, [(0, 1), (1, 0)], ParseError),
    ]
    for n, edges, error in cases:
        for build in (BipartiteGraph.from_edges, lambda n, e: BipartiteGraph(n, tuple(e))):
            with pytest.raises(error):
                build(n, edges)
    with pytest.raises(DimensionTooLarge):
        BipartiteGraph(16, ())
    with pytest.raises(DimensionTooLarge):
        BipartiteGraph(20, ((0, 1),))
    assert BipartiteGraph(4, ((3, 2), (0, 1))).edges == ((0, 1), (2, 3))


def test_graph_text_roundtrip():
    g = C4()
    text = f"{g.n}\n" + "".join(f"{u} {v}\n" for u, v in g.edges)
    assert graph_from_text(text).edges == g.edges


def test_stable_sets_c4():
    sets = stable_sets(C4())
    assert len(sets) == 7
    assert () in sets and (0, 2) in sets and (1, 3) in sets


def test_basic_slack_k2():
    s = stab_basic_slack(K2())
    assert (s.matrix.rows, s.matrix.cols) == (3, 3)
    rows = sorted(s.matrix.row_tuples())
    assert rows == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_basic_slack_c4():
    s = stab_basic_slack(C4())
    assert (s.matrix.rows, s.matrix.cols) == (8, 7)


def test_basic_slack_with_isolated_nodes():
    # an isolated node v adds the row x_v <= 1 after the nonnegativity and edge rows
    g = BipartiteGraph.from_edges(3, [(0, 1)])
    assert stab_basic_slack(g).matrix.to_text() == "5 6\n011000\n000110\n001011\n100001\n110100\n"
    square = BipartiteGraph.from_edges(2, [])
    assert stab_basic_slack(square).matrix.to_text() == "4 4\n0110\n0011\n1001\n1100\n"
    for h in (g, square):
        # every basic row is a row of the maximal slack matrix
        assert set(stab_basic_slack(h).row_labels) <= set(stab_maximal_slack(h).row_labels)


def test_basic_slack_entries_binary_random_graphs():
    rng = random.Random(17)
    built = 0
    while built < 500:
        n = rng.randint(2, 8)
        side = [rng.randint(0, 1) for _ in range(n)]
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if side[u] != side[v] and rng.random() < 0.6
        ]
        g = BipartiteGraph(n, tuple(edges))
        built += 1
        s = stab_basic_slack(g)
        assert set(s.matrix.bits) <= {0, 1}


def test_maximal_slack_k2_is_triangle():
    s = stab_maximal_slack(K2())
    assert (s.matrix.rows, s.matrix.cols) == (8, 4)
    basic = stab_basic_slack(K2())
    # maximal rows strictly contain the basic rows
    assert set(basic.row_labels) < set(s.row_labels)


def test_maximal_slack_empty_graph_is_segment():
    g = BipartiteGraph.from_edges(1, [])
    s = stab_maximal_slack(g)
    assert (s.matrix.rows, s.matrix.cols) == (4, 3)


def test_maximal_slack_invariant_under_relabeling():
    g = C4()
    relabeled = BipartiteGraph.from_edges(4, [(2, 3), (3, 1), (1, 0), (0, 2)])
    s1 = stab_maximal_slack(g).matrix
    s2 = stab_maximal_slack(relabeled).matrix
    assert canon.equivalent(s1, s2)


def test_simple_vertices():
    assert simple_vertices(C4()) == [()]
    assert simple_vertices(K2()) == [(), (0,), (1,)]
    assert simple_vertices(P3()) == [(), (0,), (0, 2), (2,)]
    # the square: every vertex lies on two of x_v >= 0, x_v <= 1
    assert simple_vertices(BipartiteGraph.from_edges(2, [])) == [(), (0,), (0, 1), (1,)]


def _bipartite_graphs(top):
    """Every labelled bipartite graph on 1..top nodes."""
    for n in range(1, top + 1):
        for mask in range(1 << n * (n - 1) // 2):
            try:
                yield graph_from_mask(n, mask)
            except NotBipartite:
                continue


def _simple_by_facets(g):
    """The stable sets whose points lie on exactly n facets, the facets being
    the rows of the completion that `complete_maximal_pair` keeps."""
    n = g.n
    sets = stable_sets(g)
    cfg, non_facet = geometry.complete_maximal_pair([[int(v in s) for v in range(n)] for s in sets])
    m = configuration.slack_matrix(cfg).matrix
    facets = [m.row_tuples()[i] for i, r in enumerate(cfg.A) if any(r[:n]) and i not in non_facet]
    col = {u: j for j, u in enumerate(cfg.B)}
    points = [col[tuple(int(v in s) for v in range(n)) + (-1,)] for s in sets]
    return [s for s, j in zip(sets, points) if sum(1 for f in facets if not f[j]) == n]


def reference_basic_slack(g):
    """The earlier `_basic_slack`: every product multiplied out and checked
    by `configuration.slack_bits`."""
    n = g.n
    rows = [tuple(1 if i == v else 0 for i in range(n)) + (0,) for v in range(n)]
    rows += [tuple(-1 if i in (u, v) else 0 for i in range(n)) + (-1,) for u, v in g.edges]
    rows += [tuple(-1 if i == v else 0 for i in range(n)) + (-1,) for v in range(n)
             if not any(v in e for e in g.edges)]
    points = tuple(char_vec(s, n) + (-1,) for s in stable_sets(g))
    return tuple(rows), points, configuration.slack_bits(rows, points)


def test_basic_slack_bit_counts_match_the_products_on_all_small_graphs():
    count = 0
    for g in _bipartite_graphs(5):
        assert stabset._basic_slack(g) == reference_basic_slack(g), (g.n, g.edges)
        count += 1
    assert count == 427


def test_simple_vertices_match_facet_count_on_all_small_graphs():
    graphs = list(_bipartite_graphs(5))
    assert len(graphs) == 427
    for g in graphs:
        assert simple_vertices(g) == _simple_by_facets(g), (g.n, g.edges)


def reference_zero_vertex_neighbors(g):
    """The earlier `zero_vertex_neighbors`, on frozensets of tight rows."""
    rows, _, bits = stabset._basic_slack(g)
    cols = stable_sets(g)
    tight_sets = [
        frozenset(i for i in range(len(rows)) if not bits[i * len(cols) + j])
        for j in range(len(cols))
    ]
    empty_idx = cols.index(())
    out = []
    for j, s in enumerate(cols):
        if j == empty_idx:
            continue
        common = tight_sets[empty_idx] & tight_sets[j]
        if not any(
            k != empty_idx and k != j and tight_sets[k] >= common
            for k in range(len(cols))
        ):
            out.append(s)
    return sorted(out)


def test_zero_vertex_neighbors_match_reference_on_all_small_graphs():
    count = 0
    for g in _bipartite_graphs(6):
        assert zero_vertex_neighbors(g) == reference_zero_vertex_neighbors(g), (g.n, g.edges)
        count += 1
    assert count == 5604


def test_zero_vertex_neighbors():
    assert zero_vertex_neighbors(C4()) == [(0,), (1,), (2,), (3,)]
    assert zero_vertex_neighbors(K2()) == [(0,), (1,)]
    g = BipartiteGraph.from_edges(2, [])
    assert zero_vertex_neighbors(g) == [(0,), (1,)]


def test_census_small_counts():
    for n in (1, 2, 3, 4):
        rep = census(n)
        assert rep["labeled_bipartite"] == BIPARTITE_COUNTS[n]
        assert rep["labeled_bipartite_min_degree2"] == MIN_DEG2_COUNTS[n]
        if n >= 4:
            assert rep["isomorphism_classes_min_degree2"] == ISO_CLASS_COUNTS[n]
            assert rep["maximal_slack_forms_min_degree2"] == ISO_CLASS_COUNTS[n]


def test_census_n5():
    rep = census(5)
    assert rep["labeled_bipartite"] == 376
    assert rep["labeled_bipartite_min_degree2"] == MIN_DEG2_COUNTS[5]
    assert rep["isomorphism_classes_min_degree2"] == 1  # K_{2,3} only
    assert rep["maximal_slack_forms_min_degree2"] == 1
    assert rep["within_lower"] and rep["within_upper"]


def test_census_n7_finds_classes(census_n7):
    rep = census_n7
    assert rep["labeled_bipartite"] == 103237
    assert rep["labeled_bipartite_min_degree2"] == MIN_DEG2_COUNTS[7]
    assert rep["isomorphism_classes_min_degree2"] == ISO_CLASS_COUNTS[7]
    assert rep["maximal_slack_forms_min_degree2"] == ISO_CLASS_COUNTS[7]


# sha256 of the n = 7 minimum-degree-2 masks, in increasing order as
# decimal numbers joined by spaces, from reference_bipartite_scan(7) (about
# 8 s)
N7_MIN_DEG2_MASKS_SHA256 = "c97d685d2a9b9ec7896f16b62dbd36fc13f5bc4a01a952a70c1ef861de772fa5"


def test_bipartite_masks_match_the_scan():
    for n in range(1, 7):
        assert stabset._bipartite_masks(n) == reference_bipartite_scan(n)


def test_bipartite_masks_n7_pinned():
    bip, kept = stabset._bipartite_masks(7)
    assert (bip, len(kept)) == (103237, MIN_DEG2_COUNTS[7])
    assert hashlib.sha256(" ".join(map(str, kept)).encode("ascii")).hexdigest() == N7_MIN_DEG2_MASKS_SHA256


def test_census_builds_one_graph_per_class(monkeypatch):
    # only the first mask of each of the 5 classes at n = 6 becomes a
    # BipartiteGraph; the other 350 minimum-degree-2 masks are read as bits
    built = []
    checked = BipartiteGraph.__post_init__
    monkeypatch.setattr(BipartiteGraph, "__post_init__", lambda g: built.append(g.n) or checked(g))
    rep = census(6)
    assert rep["isomorphism_classes_min_degree2"] == 5
    assert built == [6] * 5


def test_census_canonicalises_only_slack_matrices(monkeypatch):
    # the classes are relabelling orbits of the masks, so canon sees only the
    # maximal slack matrix of each class's least mask: 5 calls at n = 6
    least = _permutation_classes(6, reference_bipartite_scan(6)[1])
    expected = [stab_maximal_slack(graph_from_mask(6, m)).matrix for m in least]
    calls = []
    form = stabset.canon.canonical_form
    monkeypatch.setattr(stabset.canon, "canonical_form", lambda m: calls.append(m) or form(m))
    census(6)
    assert calls == expected


def test_census_limit():
    with pytest.raises(DimensionTooLarge):
        census(8)


def test_census_needs_a_node():
    for n in (0, -1):
        with pytest.raises(DimensionMismatch, match=f"node count must be at least 1, got {n}"):
            census(n)


def _permutation_classes(n, masks):
    """The earlier census grouping, kept as the oracle: the least image of
    each edge mask under all n! node relabelings, one per class."""
    edges = list(combinations(range(n), 2))
    index = {e: k for k, e in enumerate(edges)}
    perms = list(permutations(range(n)))
    reps = set()
    for mask in masks:
        chosen = [edges[k] for k in range(len(edges)) if mask >> k & 1]
        reps.add(min(sum(1 << index[tuple(sorted((p[u], p[v])))] for u, v in chosen) for p in perms))
    return sorted(reps)


def test_census_classes_match_permutation_grouping():
    for n in (4, 5, 6):
        _, masks = reference_bipartite_scan(n)
        reps = _permutation_classes(n, masks)
        forms = {canon.canonical_form(stab_maximal_slack(graph_from_mask(n, m)).matrix).bytes for m in reps}
        rep = census(n)
        assert rep["isomorphism_classes_min_degree2"] == len(reps)
        assert rep["maximal_slack_forms_min_degree2"] == len(forms)


def test_node_limit_precedes_allocation():
    # a 10^18-node graph would need per-node lists far beyond memory
    for n in (stabset._NODE_LIMIT + 1, 10 ** 18):
        with pytest.raises(DimensionTooLarge):
            BipartiteGraph.from_edges(n, [])
    n = stabset._NODE_LIMIT
    assert BipartiteGraph.from_edges(n, [(v, v + 1) for v in range(n - 1)]).n == n


def test_two_color_bitmask():
    # the path 0-1-2 plus the isolated node 3, then the triangle
    assert stabset._bipartite([0b010, 0b101, 0b010, 0]) is True
    assert stabset._bipartite([0b110, 0b101, 0b011]) is False


def reference_two_color(adj):
    """The earlier depth-first colouring, kept as the oracle: a proper 0/1
    colouring of the graph with adjacency bitmasks adj, or None for an odd
    cycle."""
    n = len(adj)
    color = [-1] * n
    for start in range(n):
        if color[start] != -1:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            x = stack.pop()
            cx = color[x]
            nb = adj[x]
            while nb:
                low = nb & -nb
                y = low.bit_length() - 1
                if color[y] == -1:
                    color[y] = 1 - cx
                    stack.append(y)
                elif color[y] == cx:
                    return None
                nb ^= low
    return tuple(color)


def test_bipartite_matches_two_colouring_on_all_small_graphs():
    seen = set()
    for n in range(1, 7):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            adj = [0] * n
            for e, (u, v) in enumerate(pairs):
                if mask >> e & 1:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
            want = reference_two_color(adj) is not None
            assert stabset._bipartite(adj) == want, (n, mask)
            seen.add(want)
    assert seen == {True, False}


def test_stable_sets_match_brute_force_on_all_small_graphs():
    # every labelled bipartite graph on 1..6 nodes: the stable sets are the
    # node subsets that hold no edge, in sorted order
    for n in range(1, 7):
        pairs = list(combinations(range(n), 2))
        subsets = sorted(c for k in range(n + 1) for c in combinations(range(n), k))
        for mask in range(1 << len(pairs)):
            try:
                g = graph_from_mask(n, mask)
            except NotBipartite:
                continue
            edges = set(g.edges)
            want = [c for c in subsets if not any(e in edges for e in combinations(c, 2))]
            assert stable_sets(g) == want, (n, g.edges)


def test_maximal_slack_checks_products_once(monkeypatch):
    original = configuration._slack_bits
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    for mod in (configuration, geometry, stabset):
        if getattr(mod, "_slack_bits", None) is original:
            monkeypatch.setattr(mod, "_slack_bits", counted)
    # the clique/stable-set construction decides each product of the
    # completion once, from bitmasks: neither it nor its slack matrix
    # multiplies them out, nor does polytope_completion (whose products come
    # from closure's pattern filter), and the validating constructor, the
    # oracle here, does so once
    cycle6 = BipartiteGraph.from_edges(6, [(v, (v + 1) % 6) for v in range(6)])
    for g in (K2(), P3(), C4(), cycle6):
        calls.clear()
        slack = stab_maximal_slack(g)
        assert calls == []
        cfg = geometry.polytope_completion([char_vec(s, g.n) for s in stable_sets(g)])
        configuration.slack_matrix(cfg)
        assert calls == []
        assert configuration.Configuration(cfg.d, cfg.A, cfg.B)._slack == slack.matrix
        assert len(calls) == 1


def completion_slack(g):
    """The oracle for stab_maximal_slack: the slack matrix of the completion
    of g's stable-set vertices by two closures."""
    return configuration.slack_matrix(geometry.polytope_completion([char_vec(s, g.n) for s in stable_sets(g)]))


def assert_maximal_slack_matches_completion(g):
    got, want = stab_maximal_slack(g), completion_slack(g)
    assert got.matrix == want.matrix, (g.n, g.edges)
    assert got.row_labels == want.row_labels, (g.n, g.edges)
    assert got.col_labels == want.col_labels, (g.n, g.edges)


def test_maximal_slack_matches_completion_on_all_small_graphs():
    seen = 0
    for n in range(1, 6):
        for mask in range(1 << n * (n - 1) // 2):
            try:
                g = graph_from_mask(n, mask)
            except NotBipartite:
                continue
            assert_maximal_slack_matches_completion(g)
            seen += 1
    assert seen == 427


def test_maximal_slack_matches_completion_on_census_classes(monkeypatch):
    graphs = []
    maximal = stabset.stab_maximal_slack
    monkeypatch.setattr(stabset, "stab_maximal_slack", lambda g: graphs.append(g) or maximal(g))
    for n in (6, 7):
        census(n)
    assert len(graphs) == ISO_CLASS_COUNTS[6] + ISO_CLASS_COUNTS[7]
    for g in graphs:
        assert_maximal_slack_matches_completion(g)


def test_maximal_slack_matches_completion_on_named_graphs():
    for n in (8, 10):
        named = (
            [],
            [(0, v) for v in range(1, n)],
            [(v, v + 1) for v in range(n - 1)],
            [(2 * i, 2 * i + 1) for i in range(n // 2)],
        )
        for edges in named:
            assert_maximal_slack_matches_completion(BipartiteGraph.from_edges(n, edges))


def test_census_report_json_shape():
    import json

    rep = census(3)
    payload = json.loads(json.dumps(rep, sort_keys=True))
    assert payload == rep
    assert payload["nodes"] == 3
    assert payload["labeled_bipartite"] == 7
    assert payload["within_lower"] and payload["within_upper"]


def test_graph_from_mask_roundtrip():
    g = graph_from_mask(4, 0b000011)
    assert g.n == 4 and len(g.edges) == 2
