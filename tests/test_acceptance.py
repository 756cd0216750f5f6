"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Everything here is exact;
there are no numeric tolerances anywhere.
"""

import io
import random
import time
from fractions import Fraction
from functools import wraps
from itertools import combinations, product

from tlc import canon, cli, compress, corrcone, geometry, linalg, stabset
from tlc.errors import NotBipartite
from tlc.configuration import (
    BinaryMatrix,
    closure,
    from_slack_matrix,
    is_maximal_in_md,
    normalize_to_binary,
    parse_matrix,
    slack_matrix,
    spans,
)
from tlc.enumeration import oracle_is_maximal, oracle_maximal

from helpers import (
    det_history,
    dot,
    examples_library,
    lifted_rank,
    mat_vec,
    opposite_basis,
    simple_vertices,
    zero_vertex_neighbors,
    zeta,
)

F = Fraction


def criterion(number, name):
    def deco(fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.time()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE criterion {number} ({name}): FAIL")
                raise
            print(f"ACCEPTANCE criterion {number} ({name}): PASS [{time.time() - t0:.1f}s]")
        return wrapper
    return deco


def _bitvecs(mask, d):
    return [tuple((j >> k) & 1 for k in range(d)) for j in range(1 << d) if (mask >> j) & 1]


def _random_spanning_seed(rng, d):
    while True:
        mask = rng.getrandbits(1 << d)
        vs = _bitvecs(mask, d)
        if vs and linalg.rank(vs) == d:
            return vs


@criterion(1, "oracle equivalence")
def test_criterion_01_oracle_equivalence(enum_results):
    for d, expected in ((1, 1), (2, 2)):
        enum_forms = {f.bytes for f in enum_results[d].classes}
        oracle_forms = {f.bytes for f in oracle_maximal(d)}
        assert enum_forms == oracle_forms
        assert len(enum_forms) == expected
    from tlc.enumeration import transpose_identified_count

    assert transpose_identified_count(enum_results[2].classes) == 1


@criterion(2, "closure laws")
def test_criterion_02_closure_laws():
    rng = random.Random(20260809)
    degenerate_cases = 0
    for d in (2, 3, 4, 5):
        for _ in range(200):
            x = _random_spanning_seed(rng, d)
            extra = _random_spanning_seed(rng, d)
            y = x + extra  # X subset of Y, both spanning
            cx = closure(x, d)
            cy = closure(y, d)
            assert set(cy) <= set(cx)  # antitone
            assert len(cx) <= 1 << d
            assert tuple([F(0)] * d) in cx
            if not spans(cx, d):
                degenerate_cases += 1
                continue
            ccx = closure(cx, d)
            assert {tuple(F(v) for v in w) for w in x} <= set(ccx)
            if spans(ccx, d):
                assert closure(ccx, d) == cx  # triple application = single
    # whether a spanning seed can have a non-spanning closure is an open
    # point; occurrences are recorded, not failed
    print(f"non-spanning closures of spanning seeds observed: {degenerate_cases}")


@criterion(3, "maximality characterization")
def test_criterion_03_maximality_characterization():
    for r in range(1, 5):
        for c in range(1, 5):
            for mask in range(1 << (r * c)):
                m = BinaryMatrix(r, c, tuple((mask >> i) & 1 for i in range(r * c)))
                assert is_maximal_in_md(m) == oracle_is_maximal(m), m.row_tuples()


@criterion(4, "binary normalization")
def test_criterion_04_normalization(enum_results):
    configs = []
    for d, res in enum_results.items():
        for f in res.classes:
            configs.append(from_slack_matrix(parse_matrix(f.bytes.decode())))
    for name, verts in examples_library().items():
        configs.append(geometry.polytope_completion(verts))
    for cfg in configs:
        for side in ("A", "B"):
            out = normalize_to_binary(cfg, side)
            chosen = out.A if side == "A" else out.B
            assert all(x in (0, 1) for v in chosen for x in v)
            basis = {
                tuple(F(1) if j == i else F(0) for j in range(cfg.d))
                for i in range(cfg.d)
            }
            opposite = out.B if side == "A" else out.A
            assert basis <= set(opposite)
            # entrywise slack preservation under the tracked transform
            bas = opposite_basis(cfg, side)
            t_rows = [list(col) for col in zip(*bas)]
            inv, _ = linalg.inverse_and_det(t_rows)
            tt = [list(b) for b in bas]
            if side == "A":
                fa = lambda a: mat_vec(tt, a)
                fb = lambda b: mat_vec(inv, b)
            else:
                fa = lambda a: mat_vec(inv, a)
                fb = lambda b: mat_vec(tt, b)
            for a in cfg.A:
                for b in cfg.B:
                    assert dot(fa(a), fb(b)) == dot(a, b)
            assert {tuple(fa(a)) for a in cfg.A} == set(out.A)
            assert {tuple(fb(b)) for b in cfg.B} == set(out.B)


@criterion(5, "correlation cone")
def test_criterion_05_correlation_cone():
    # (a) lifted generators span a space of dimension d(d+1)/2
    for d in (1, 2, 3):
        assert lifted_rank(d) == d * (d + 1) // 2
    # (b) every cut family with entries in [-2,2]: single vectors and pairs,
    # deduplicated by resulting point set, all pass the exposed-face test
    for d in (1, 2, 3):
        singles = list(product(range(-2, 3), repeat=d))
        seen = set()
        for b in singles:
            seen.add(corrcone.face_points(d, [b]))
        for b1, b2 in combinations(singles, 2):
            seen.add(corrcone.face_points(d, [b1, b2]))
        for pts in sorted(seen):
            assert corrcone.is_face(d, pts)
    # (c) encode/decode roundtrips on every enumerated face
    # (d) certificates have entries in [0, d(d+1)/2] and at most that many summands
    for d in (1, 2, 3):
        bound = d * (d + 1) // 2
        faces = corrcone.enumerate_faces(d)
        for f in faces:
            cert = corrcone.certificate_encode(d, f)
            assert corrcone.certificate_decode(cert) == f
            assert all(0 <= v <= bound for v in cert.s)
            # the encoder sums one lift per independent direction of the face
            summands = linalg.rank([list(corrcone.lift_raw(x)) for x in f])
            assert summands <= bound


@criterion(6, "compression")
def test_criterion_06_compression(enum_results, enum_d4):
    def check_roundtrip(form_bytes, d):
        m = parse_matrix(form_bytes.decode())
        cfg = normalize_to_binary(from_slack_matrix(m), "B")
        assert cfg.is_maximal()
        gens = compress.select_generators(cfg.B, d)
        # k bound, exact: 2^(k-d) <= d^d encodes k <= d + d*log2(d)
        if d == 1:
            assert gens.k == 1
        else:
            assert (1 << (gens.k - d)) <= d ** d
        hist = det_history(gens)
        assert hist[0] <= d ** d
        for a, b in zip(hist, hist[1:]):
            assert a % b == 0 and a // b >= 2
        phis = {b: compress.phi(tuple(int(x) for x in b), gens) for b in cfg.B}
        for a in cfg.A:
            za = zeta(a, gens)
            for b in cfg.B:
                assert sum(z * l for z, l in zip(za, phis[b])) == dot(a, b)
        cc = compress.compress(cfg)
        a_prime = set(corrcone.certificate_decode(cc.cert))
        assert {zeta(a, cc.gens) for a in cfg.A} <= a_prime
        assert all(all(x in (0, 1) for x in ap) for ap in a_prime)
        back = compress.decompress(cc)
        assert canon.equivalent(slack_matrix(back).matrix, m)

    for d, res in enum_results.items():
        for f in res.classes:
            check_roundtrip(f.bytes, d)
    sampled = enum_d4.classes[:20]
    assert len(sampled) >= 20
    for f in sampled:
        check_roundtrip(f.bytes, 4)


@criterion(7, "stable set lower-bound family")
def test_criterion_07_stabset_family():
    total_graphs = 0
    for n in (2, 3, 4, 5, 6):
        edge_count = n * (n - 1) // 2
        masks = []
        for mask in range(1 << edge_count):
            try:
                g = stabset.graph_from_mask(n, mask)
            except NotBipartite:
                continue
            if min(sum(v in e for e in g.edges) for v in range(g.n)) >= 2:
                masks.append((mask, g))
        for mask, g in masks:
            total_graphs += 1
            # the empty set is the unique simple vertex under min degree 2
            assert simple_vertices(g) == [()], (n, mask)
            # the origin's polytope neighbors are exactly the singletons
            singles = [(v,) for v in range(n)]
            assert zero_vertex_neighbors(g) == singles, (n, mask)
        # isomorphism classes vs distinct canonical maximal-slack forms
        rep = stabset.census(n)
        assert rep["isomorphism_classes_min_degree2"] == rep["maximal_slack_forms_min_degree2"]
        assert rep["labeled_bipartite_min_degree2"] == len(masks)
    assert total_graphs == 3 + 10 + 355
    # relabeling invariance spot check on the 6-cycle
    rng = random.Random(6)
    base = stabset.BipartiteGraph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
    base_form = canon.canonical_form(stabset.stab_maximal_slack(base).matrix)
    for _ in range(3):
        perm = list(range(6))
        rng.shuffle(perm)
        relabeled = stabset.BipartiteGraph.from_edges(
            6, [(perm[u], perm[v]) for u, v in base.edges]
        )
        assert canon.canonical_form(stabset.stab_maximal_slack(relabeled).matrix) == base_form


@criterion(8, "labeled bipartite counts vs the count sandwich")
def test_criterion_08_count_sandwich(census_n7):
    expected = {2: 2, 3: 7}
    findings = []
    for n in range(2, 8):
        rep = census_n7 if n == 7 else stabset.census(n)
        if n in expected:
            assert rep["labeled_bipartite"] == expected[n]
        if not (rep["within_lower"] and rep["within_upper"]):
            findings.append((n, rep["labeled_bipartite"]))
    # violations are findings, not failures
    if findings:
        print(f"count sandwich findings (reported, not asserted): {findings}")
    # fixed regression values: n=2 count 2 in [2, 8]; n=3 count 7 in [~4.2, ~38]
    rep2 = stabset.census(2)
    assert rep2["labeled_bipartite"] == 2 and rep2["within_lower"] and rep2["within_upper"]
    rep3 = stabset.census(3)
    assert rep3["labeled_bipartite"] == 7 and rep3["within_lower"] and rep3["within_upper"]


@criterion(9, "geometry adapters")
def test_criterion_09_geometry_adapters():
    lib = examples_library()
    cases = {"segment": 1, "cube2": 2, "simplex2": 2, "simplex3": 3, "cube3": 3}
    for name, d in cases.items():
        cfg = geometry.polytope_completion(lib[name])
        assert closure(cfg.B, d + 1) == cfg.A and closure(cfg.A, d + 1) == cfg.B
        s = slack_matrix(cfg)
        core = geometry.find_triangular_core(s, d + 1)
        for i in range(d + 1):
            assert s.matrix.row_tuples()[core.row_indices[i]][core.col_indices[i]] == 1
            for j in range(i + 1, d + 1):
                assert s.matrix.row_tuples()[core.row_indices[i]][core.col_indices[j]] == 0
        core_out, out = geometry.to_binary_integral_configuration(cfg)
        assert core_out == core
        assert all(x in (0, 1) for v in out.A for x in v)
        assert all(x.denominator == 1 for v in out.B for x in v)
        basis = {
            tuple(F(1) if j == i else F(0) for j in range(d + 1)) for i in range(d + 1)
        }
        assert basis <= set(out.B)
        assert canon.equivalent(slack_matrix(out).matrix, s.matrix)


@criterion(10, "determinism across --jobs")
def test_criterion_10_determinism(tmp_path):
    def run(args, store):
        out = io.StringIO()
        code = cli.run(["--store", str(store)] + args, out=out, err=io.StringIO())
        assert code == 0
        return out.getvalue()

    probes = [
        ["enum", "--dim", "1"],
        ["enum", "--dim", "2"],
        ["face-enum", "--dim", "3"],
        ["stab-census", "--nodes", "6"],
    ]
    for i, probe in enumerate(probes):
        a = run(["--jobs", "1"] + probe, tmp_path / f"s{i}a")
        b = run(["--jobs", "2"] + probe, tmp_path / f"s{i}b")
        assert a == b, probe
    # report built from stores written under different job counts
    ra = run(["--jobs", "1", "enum", "--dim", "3"], tmp_path / "ra")
    rb = run(["--jobs", "2", "enum", "--dim", "3"], tmp_path / "rb")
    assert ra == rb
    assert run(["report"], tmp_path / "ra") == run(["report"], tmp_path / "rb")
