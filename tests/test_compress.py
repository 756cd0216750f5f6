import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlc import canon, compress, corrcone, linalg
from tlc.compress import (
    GeneratorSet,
    decompress,
    phi,
    select_generators,
    weighted_graph_parse,
    weighted_graph_serialize,
    zeta,
)
from tlc.configuration import (
    Configuration,
    from_slack_matrix,
    maximal_completion,
    normalize_to_binary,
    parse_matrix,
    slack_matrix,
)
from tlc.errors import NonBinaryProduct, NotInCone, NotInLattice, NotMaximal, NotSpanning, ParseError, TlcError

F = Fraction


def test_select_generators_square():
    gens = select_generators([(0, 1), (1, 0), (1, 1)], 2)
    assert gens.gens == ((0, 1), (1, 0))
    assert gens.k == 2
    assert gens.det_history == (1,)


def test_select_generators_needs_extra():
    gens = select_generators([(1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)], 3)
    assert gens.k == 4
    assert gens.det_history == (2, 1)


def test_select_generators_d1():
    gens = select_generators([(1,)], 1)
    assert gens.gens == ((1,),) and gens.k == 1


def test_select_generators_rejects_nonspanning():
    with pytest.raises(NotSpanning):
        select_generators([(1, 0)], 2)


def test_select_generators_hands_over_its_last_hermite_form(enum_results, enum_d4, monkeypatch):
    # the handed-over form is the set's own, and phi over it builds no other
    hnf = linalg.hnf
    calls = []
    monkeypatch.setattr(linalg, "hnf", lambda m: calls.append(1) or hnf(m))
    for res in (*enum_results.values(), enum_d4):
        for f in res.classes:
            cfg = normalize_to_binary(from_slack_matrix(parse_matrix(f.bytes.decode())), "B")
            gens = select_generators(cfg.B, cfg.d)
            assert "hermite" in vars(gens)
            assert gens.hermite == hnf(gens.gens)
            before = len(calls)
            coords = [phi(b, gens) for b in cfg.B]
            assert len(calls) == before
            # _hnf_coords leaves the form as it was
            assert gens.hermite == hnf(gens.gens)
            assert coords == [phi(b, GeneratorSet(gens.d, gens.gens)) for b in cfg.B]


def test_det_history_decreases_by_integer_factors():
    gens = select_generators([(1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)], 3)
    hist = gens.det_history
    for a, b in zip(hist, hist[1:]):
        assert a % b == 0 and a // b >= 2


def test_zeta_examples():
    gens = select_generators([(1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)], 3)
    # sorted generator order: (0,1,1), (1,0,1), (1,1,0), (1,1,1)
    assert zeta((1, 0, 0), gens) == (0, 1, 1, 1)
    assert zeta((0, 0, 0), gens) == (0, 0, 0, 0)
    # generators sort lexicographically, so the standard basis comes out as
    # ((0,1),(1,0)) and zeta permutes coordinates accordingly
    basis = select_generators([(1, 0), (0, 1)], 2)
    assert zeta((1, 0), basis) == (0, 1)
    assert zeta((0, 1), basis) == (1, 0)


def test_zeta_rejects_non_binary_product():
    gens = select_generators([(1, 0), (0, 1)], 2)
    with pytest.raises(NonBinaryProduct):
        zeta((2, 0), gens)


def test_phi_generator_override():
    gens = select_generators([(1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)], 3)
    for i, g in enumerate(gens.gens):
        e = tuple(1 if j == i else 0 for j in range(gens.k))
        assert phi(g, gens) == e


def test_phi_identity_for_any_representative():
    gens = select_generators([(1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)], 3)
    lam = phi((2, 2, 2), gens)
    assert tuple(sum(lam[i] * gens.gens[i][j] for i in range(gens.k)) for j in range(3)) == (2, 2, 2)
    for a in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]:
        za = zeta(a, gens)
        lhs = sum(z * l for z, l in zip(za, lam))
        rhs = sum(F(x) * y for x, y in zip(a, (2, 2, 2)))
        assert lhs == rhs


def test_phi_rejects_outside_lattice():
    g2 = select_generators([(1, 1, 0), (1, 0, 1), (0, 1, 1)], 3)
    with pytest.raises(NotInLattice):
        phi((1, 1, 1), g2)


def test_phi_exists_exactly_on_the_lattice():
    rng = random.Random(11)
    point_sets = [[(1, 1, 0), (1, 0, 1), (0, 1, 1)], [(1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)]]
    for _ in range(40):
        d = rng.randint(1, 4)
        point_sets.append([tuple(rng.randint(0, 1) for _ in range(d)) for _ in range(rng.randint(d, 2 * d + 2))])
    seen = set()
    for pts in point_sets:
        d = len(pts[0])
        try:
            gens = select_generators(pts, d)
        except NotSpanning:
            continue
        for b in product(range(-1, 3), repeat=d):
            member = linalg.lattice_member(gens.gens, b)
            seen.add(member)
            if member:
                lam = phi(b, gens)
                assert tuple(sum(x * g[j] for x, g in zip(lam, gens.gens)) for j in range(d)) == b
            else:
                with pytest.raises(NotInLattice):
                    phi(b, gens)
    assert seen == {True, False}


def test_compress_d1():
    cfg = maximal_completion([(0,), (1,)], 1)
    cc = compress.compress(cfg)
    assert cc.gens.gens == ((1,),)
    assert cc.cert.d == 1
    back = decompress(cc)
    assert back.A == cfg.A and back.B == cfg.B


def test_compress_d2_example():
    cfg = maximal_completion([(1, 0), (0, 1)], 2)
    cc = compress.compress(cfg)
    assert cc.gens.gens == ((0, 1), (1, 0))
    a_prime = corrcone.certificate_decode(cc.cert)
    assert a_prime == tuple(sorted(corrcone.all_points(2)))
    back = decompress(cc)
    assert back.A == cfg.A and back.B == cfg.B


def test_compress_requires_binary_b():
    cfg = maximal_completion([(1, 1), (1, 0)], 2)  # B = {0,(1,0),(1,1)} is binary
    normalized = normalize_to_binary(cfg, "B")
    compress.compress(normalized)
    bad = maximal_completion([(F(1, 2), F(1, 2)), (1, 0)], 2)
    if any(x not in (0, 1) for v in bad.B for x in v):
        with pytest.raises(NonBinaryProduct):
            compress.compress(bad)


def test_compress_refuses_non_maximal_as_domain_error():
    side = ((0, 0), (0, 1), (1, 0))
    with pytest.raises(TlcError) as info:
        compress.compress(Configuration(2, side, side))
    assert isinstance(info.value, NotMaximal)


def test_zeta_image_inside_decoded_face(enum_results):
    for d, res in enum_results.items():
        for f in res.classes:
            cfg = normalize_to_binary(from_slack_matrix(parse_matrix(f.bytes.decode())), "B")
            cc = compress.compress(cfg)
            a_prime = set(corrcone.certificate_decode(cc.cert))
            for a in cfg.A:
                assert zeta(a, cc.gens) in a_prime


def test_roundtrip_all_small_classes(enum_results, enum_d4):
    for res in (*enum_results.values(), enum_d4):
        for f in res.classes:
            m = parse_matrix(f.bytes.decode())
            cfg = normalize_to_binary(from_slack_matrix(m), "B")
            cc = compress.compress(cfg)
            back = decompress(cc)
            assert canon.equivalent(slack_matrix(back).matrix, m)
            # the decoded zero point always has the preimage 0
            assert (0,) * res.d in back.A


@st.composite
def _certificates(draw):
    """In-range certificates of d = 1..3 with a symmetric block, and a tail
    that is either its diagonal or drawn freely."""
    d = draw(st.integers(1, 3))
    entry = st.integers(0, d * (d + 1) // 2)
    upper = {(i, j): draw(entry) for i in range(d) for j in range(i, d)}
    block = [upper[min(i, j), max(i, j)] for i in range(d) for j in range(d)]
    tail = [upper[i, i] for i in range(d)] if draw(st.booleans()) else [draw(entry) for _ in range(d)]
    return corrcone.FaceCertificate(d, tuple(block + tail))


@settings(max_examples=200, deadline=None)
@given(_certificates())
def test_decoded_face_starts_with_the_zero_point(cert):
    try:
        points = corrcone.certificate_decode(cert)
    except NotInCone:
        return
    assert points[0] == (0,) * cert.d


def test_zeta_phi_identity_exhaustive(enum_results):
    for d, res in enum_results.items():
        for f in res.classes:
            cfg = normalize_to_binary(from_slack_matrix(parse_matrix(f.bytes.decode())), "B")
            gens = select_generators(cfg.B, cfg.d)
            phis = {b: phi(tuple(int(x) for x in b), gens) for b in cfg.B}
            for a in cfg.A:
                za = zeta(a, gens)
                for b in cfg.B:
                    lhs = sum(z * l for z, l in zip(za, phis[b]))
                    assert lhs == sum(F(x) * y for x, y in zip(a, b))


def test_serialize_parse_roundtrip():
    cfg = maximal_completion([(1, 0), (0, 1)], 2)
    cc = compress.compress(cfg)
    text = weighted_graph_serialize(cc)
    assert weighted_graph_parse(text) == cc
    lines = text.splitlines()
    assert lines[0] == "2 2"
    assert len(lines) == 1 + 2 + 2 + 1


def test_serialized_weights_bounded():
    cfg = maximal_completion([(1, 1), (1, 0)], 2)
    cc = compress.compress(normalize_to_binary(cfg, "B"))
    k = cc.gens.k
    assert all(0 <= v <= k * (k + 1) // 2 for v in cc.cert.s)


def test_generator_bound_enforced():
    with pytest.raises(Exception):
        GeneratorSet(1, ((1,), (1,)))


def test_weighted_graph_header_needs_positive_sizes():
    for header in ("-1 2", "0 2", "2 0", "1 -3"):
        with pytest.raises(ParseError) as e:
            weighted_graph_parse(header + "\n")
        assert e.value.line == 1
