"""Configurations built from products the code has already decided, against
the validating constructor.

`configuration._with_products` takes the two sides and their known 0/1
products and checks nothing: no scaling, no rank, no product.  It is fed by
the rank factorizations (`from_slack_matrix`, `normalize_to_binary`,
`to_binary_integral_configuration`) and by the bits that closure decides
(`_with_closure`: `maximal_completion`, `polytope_completion`,
`decompress`).  The tests
here rebuild each such configuration through `Configuration(d, A, B)`, the
validating path that input read from outside still takes, and require the
same sides and the same bits; they count the checks that no longer run;
and they pin what `decompress` returns or refuses to the validating path.
The oracle for the other carried fact is here too: the certificate
`compress` encodes without a face test is `certificate_encode`'s.
"""

import random
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlc import compress, configuration, corrcone, geometry, linalg, stabset
from tlc.compress import decompress, phi, select_generators, weighted_graph_parse
from tlc.configuration import (
    SIDE_A,
    SIDE_B,
    Configuration,
    closure,
    configuration_from_json,
    configuration_to_json,
    from_slack_matrix,
    maximal_completion,
    normalize_to_binary,
    parse_matrix,
)
from tlc.errors import NotAFace, NotBipartite, NotSpanning, TlcError
from tlc.geometry import examples_library, polytope_completion, to_binary_integral_configuration

from helpers import core_inputs, dot
from test_cli import _weighted_graph_text, run_cli

F = Fraction


def validated(cfg):
    """cfg rebuilt by the validating constructor: equal as a configuration
    and in its product bits, or AssertionError."""
    want = Configuration(cfg.d, cfg.A, cfg.B)
    assert cfg == want
    assert cfg._bits == want._bits
    return cfg


def _class_matrices(enum_results, enum_d4):
    """The slack matrices of the 40 classes of d <= 4 and their transposes."""
    out = []
    for res in (*enum_results.values(), enum_d4):
        for f in res.classes:
            m = parse_matrix(f.bytes.decode())
            out += [m, m.transpose()]
    assert len(out) == 80
    return out


def _class_round_trip(m):
    """from_slack_matrix, both normalizations, and compress -> decompress of
    the side-B normal form: every configuration the class round trip builds."""
    cfg = from_slack_matrix(m)
    binary_b = normalize_to_binary(cfg, SIDE_B)
    back = decompress(compress.compress(binary_b))
    return cfg, normalize_to_binary(cfg, SIDE_A), binary_b, back


def _stable_set_polytopes():
    """The stable-set vertex sets of every labelled bipartite graph on 1..5 nodes."""
    out = []
    for n in range(1, 6):
        for mask in range(1 << (n * (n - 1) // 2)):
            try:
                g = stabset.graph_from_mask(n, mask)
            except NotBipartite:
                continue
            out.append((g, [stabset._char_vec(s, n) for s in stabset.stable_sets(g)]))
    assert len(out) == 1 + 2 + 7 + 41 + 376
    return out


# --- the carried products against the validating constructor -----------------


def test_class_round_trip_matches_validating_constructor(enum_results, enum_d4):
    for m in _class_matrices(enum_results, enum_d4):
        _, _, binary_b, back = map(validated, _class_round_trip(m))
        assert back == binary_b


def test_stable_set_completions_match_validating_constructor():
    for g, verts in _stable_set_polytopes():
        cfg = validated(polytope_completion(verts))
        assert stabset.stab_maximal_slack(g).matrix.bits == cfg._bits


def test_polytopes_and_core_rewrites_match_validating_constructor():
    completions = [polytope_completion(v) for v in examples_library().values()] + core_inputs()
    for cfg in completions:
        validated(cfg)
        validated(to_binary_integral_configuration(cfg)[1])


def test_maximal_completions_match_validating_constructor():
    rng = random.Random(31)
    seeds = [[[int(i == j) for j in range(d)] for i in range(d)] for d in (1, 2, 3, 4)]
    for _ in range(150):
        d = rng.randint(1, 4)
        seeds.append([[rng.choice([0, 1, 1, -1, F(1, 2)]) for _ in range(d)] for _ in range(rng.randint(d, d + 3))])
    built = 0
    for seed in seeds:
        try:
            cfg = maximal_completion(seed, len(seed[0]))
        except TlcError:
            continue
        validated(cfg)
        built += 1
    assert built > 30


def test_closure_carries_its_products():
    rng = random.Random(77)
    checked = 0
    for _ in range(200):
        d = rng.randint(1, 4)
        family = [tuple(rng.choice([0, 1, 1, 2, -1, F(1, 2), F(-2, 3)]) for _ in range(d))
                  for _ in range(rng.randint(d, d + 4))]
        try:
            ys = closure(family, d)
        except TlcError:
            continue
        assert ys.family == tuple(sorted(set(family)))
        rows = [tuple(dot(x, y) for y in ys) for x in ys.family]
        assert list(ys.products()) == rows
        assert list(ys.products()) == rows  # read again
        checked += 1
    assert checked > 100


def _closure_outcome(family, d):
    """closure(family, d), or the type and message of its refusal."""
    try:
        return closure(family, d)
    except TlcError as e:
        return type(e), str(e)


def test_closure_reads_integers_over_a_denominator_as_their_fractions():
    # decompress and the completions hand closure numerators over D; D may
    # come negative and the numerators repeated or unsorted
    rng = random.Random(30)
    checked = 0
    for _ in range(300):
        d = rng.randint(1, 4)
        den = rng.choice([1, 2, 3, 6, -1, -2, -4])
        nums = [tuple(rng.choice([0, 1, 1, 2, -1, -2, 3]) for _ in range(d)) for _ in range(rng.randint(d, d + 4))]
        nums += [rng.choice(nums) for _ in range(rng.randint(0, 2))]
        family = configuration._Integral._over(nums, den)
        fractions = linalg.divide_rows(nums, den)
        assert family == tuple(sorted(set(fractions)))
        assert family.den > 0 and family.nums == sorted(family.nums)
        keyed, scale = configuration._scaled(fractions)
        assert family.scaled() == (sorted(keyed), scale)
        got, want = _closure_outcome(family, d), _closure_outcome(fractions, d)
        assert got == want
        if isinstance(got, configuration._Closure):
            assert got.family == want.family
            assert list(got.products()) == list(want.products())
            # a closure read as integers gives the closure of its own vectors
            assert _closure_outcome(got, d) == _closure_outcome(tuple(got), d)
            checked += 1
    assert checked > 100


def test_carried_closures_go_through_closure(enum_results, enum_d4, monkeypatch):
    calls = []
    for module in (configuration, compress, geometry):
        counted = module.closure
        monkeypatch.setattr(module, "closure", lambda v, d, f=counted: calls.append(d) or f(v, d))
    for m in _class_matrices(enum_results, enum_d4):
        decompress(compress.compress(normalize_to_binary(from_slack_matrix(m), SIDE_B)))
    assert len(calls) == 80
    maximal_completion([[1, 0], [0, 1]], 2)
    polytope_completion([(0, 0), (1, 0), (0, 1)])
    assert len(calls) == 80 + 2 + 2


# --- the checks that no longer run -------------------------------------------------


def test_derived_configurations_run_no_check(enum_results, enum_d4, monkeypatch):
    checks = []
    post_init = Configuration.__post_init__
    monkeypatch.setattr(Configuration, "__post_init__", lambda self: checks.append(1) or post_init(self))
    for m in _class_matrices(enum_results, enum_d4):
        _class_round_trip(m)
    for g, _ in _stable_set_polytopes():
        stabset.stab_maximal_slack(g)
    assert checks == []
    texts = [configuration_to_json(maximal_completion([[1, 0], [0, 1]], 2)), '{"d": 1, "A": [[1]], "B": [[1]]}']
    for i, text in enumerate(texts, start=1):
        configuration_from_json(text)
        assert len(checks) == i


def test_compress_runs_no_face_test(enum_results, enum_d4, monkeypatch):
    calls = []
    is_face = corrcone.is_face
    monkeypatch.setattr(corrcone, "is_face", lambda d, points: calls.append(d) or is_face(d, points))
    for m in _class_matrices(enum_results, enum_d4):
        compress.compress(normalize_to_binary(from_slack_matrix(m), SIDE_B))
    assert calls == []
    # the encoder for points read from outside still tests them
    with pytest.raises(NotAFace):
        corrcone.certificate_encode(2, [(1, 0), (0, 1)])
    assert calls == [2]


def test_compressed_certificate_is_certificate_encode_of_a_face(enum_results, enum_d4):
    for m in _class_matrices(enum_results, enum_d4):
        cfg = normalize_to_binary(from_slack_matrix(m), SIDE_B)
        cc = compress.compress(cfg)
        points = corrcone.face_points(cc.gens.k, [phi(b, cc.gens) for b in cfg.B])
        assert corrcone.is_face(cc.gens.k, points)
        assert cc.cert == corrcone.certificate_encode(cc.gens.k, points)


def test_face_points_of_several_cuts_are_faces():
    rng = random.Random(8)
    for _ in range(150):
        d = rng.randint(1, 4)
        cuts = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(rng.randint(0, 3))]
        points = corrcone.face_points(d, cuts)
        # the earlier filter: every point against every cut
        assert points == tuple(sorted(x for x in corrcone.all_points(d)
                                      if all(sum(b * v for b, v in zip(c, x)) in (0, 1) for c in cuts)))
        assert corrcone.is_face(d, points)


def test_selected_leading_generators_are_independent(enum_results, enum_d4):
    rng = random.Random(12)
    point_sets = [normalize_to_binary(from_slack_matrix(m), SIDE_B).B for m in _class_matrices(enum_results, enum_d4)]
    point_sets += [[tuple(rng.randint(0, 1) for _ in range(d)) for _ in range(3 * d)]
                   for d in (2, 3, 4, 5, 6) for _ in range(20)]
    grown = 0
    for pts in point_sets:
        d = len(pts[0])
        if not configuration.spans(pts, d):
            continue
        gens = select_generators(pts, d)
        assert linalg.rank([list(g) for g in gens.gens[:d]]) == d
        grown += gens.k > d
    assert grown > 0


# --- decompress against the validating path ---------------------------------------


@contextmanager
def _validating_path():
    """decompress as it was before the round trip carried the products
    its closure decided: the result built by Configuration(d, A, B), which
    checks the spans and every product."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(compress, "_with_closure", lambda d, y: Configuration(d, y.family, y))
        yield


def _outcome(text):
    """The JSON and bits of the decoded configuration, or the type and
    message of the refusal (which fixes the exit code)."""
    try:
        cfg = decompress(weighted_graph_parse(text))
    except TlcError as e:
        return type(e), str(e)
    return configuration_to_json(cfg), cfg._bits


def _small_weighted_graph_texts():
    """Every weighted-graph text with k = d <= 2, 0/1 generators and all
    weights in [0, k(k+1)/2]."""
    for k in (1, 2):
        top = k * (k + 1) // 2
        for gens in product(product((0, 1), repeat=k), repeat=k):
            for upper in product(range(top + 1), repeat=top):
                rows = [upper[:k], upper[k:]][:k]
                for tail in product(range(top + 1), repeat=k):
                    lines = [f"{k} {k}", *("".join(map(str, g)) for g in gens),
                             *(" ".join(map(str, r)) for r in rows), " ".join(map(str, tail))]
                    yield "\n".join(lines) + "\n"


def test_decompress_matches_validating_path_on_small_weighted_graphs():
    seen = {}
    for text in _small_weighted_graph_texts():
        got = _outcome(text)
        with _validating_path():
            assert got == _outcome(text), text
        kind = got[0] if isinstance(got[0], type) else "decoded"
        seen[kind] = seen.get(kind, 0) + 1
    assert sum(seen.values()) == 2 * 2 * 2 + 16 * 64 * 16
    # results and refusals both occur
    assert seen["decoded"] > 100 and seen[NotSpanning] > 1000 and len(seen) >= 3, seen


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.text(), _weighted_graph_text()))
def test_decompress_cli_matches_validating_path_on_fuzz(tmp_path_factory, text):
    base = tmp_path_factory.getbasetemp()
    path = base / "pinned.txt"
    path.write_text(text, encoding="utf-8", errors="surrogatepass")
    got = run_cli(["decompress", str(path)], store=base / "pinned_store")
    with _validating_path():
        want = run_cli(["decompress", str(path)], store=base / "pinned_store")
    assert got == want
