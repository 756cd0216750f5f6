import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlc import linalg
from tlc.configuration import (
    BinaryMatrix,
    Configuration,
    _scaled,
    _slack_bits,
    closure,
    configuration_from_json,
    configuration_to_json,
    emit_matrix,
    from_slack_matrix,
    is_maximal_in_md,
    maximal_completion,
    normalization_basis,
    normalize_to_binary,
    parse_matrix,
    slack_matrix,
    spans,
)
from tlc.errors import (
    NonBinarySlack,
    NotSpanning,
    ParseError,
    RepeatedLine,
)

F = Fraction


def _reference_scaled(vectors):
    """The earlier _scaled, kept as the oracle: every vector holding a
    non-int entry goes back through linalg.vec before it is keyed."""
    vs = []
    scale = 1
    ints = True
    for v in map(tuple, vectors):
        for x in v:
            if type(x) is not int:
                v = linalg.vec(v)
                scale = lcm(scale, *(x.denominator for x in v))
                ints = False
                break
        vs.append(v)
    if ints:
        return {v: v for v in vs}, 1
    return {tuple(x.numerator * (scale // x.denominator) for x in v): v for v in vs}, scale


@pytest.mark.parametrize("vectors", [
    [(0, 1), (1, 0), (1, 1)],
    [(F(1, 2), F(0)), (F(0), F(1, 3)), (F(1, 2), F(1, 3))],
    [(0, F(1, 2)), (1, 0), (F(2, 3), 1), (F(1, 2), F(1, 2))],
    [("1/2", "0"), ("0", "1"), (F(1, 3), 1), ("1/2", "0")],
    [(True, 0), (1, F(1, 4))],
    [],
])
def test_scaled_matches_reference(vectors):
    keyed, scale = _scaled(vectors)
    want, want_scale = _reference_scaled(vectors)
    assert scale == want_scale and list(keyed) == list(want)
    assert [linalg.vec(v) for v in keyed.values()] == [linalg.vec(v) for v in want.values()]


def test_scaled_keeps_error_messages():
    for vectors in ([(0, 1), ("x", 1)], [(F(1, 2), 1), (1, "1/0")]):
        with pytest.raises(Exception) as new:
            _scaled(vectors)
        with pytest.raises(Exception) as old:
            _reference_scaled(vectors)
        assert (type(new.value), str(new.value)) == (type(old.value), str(old.value))
    rows, points = [(F(1, 2), 1)], [(1, 1)]
    with pytest.raises(NonBinarySlack) as new:
        _slack_bits(*_scaled(rows), *_scaled(points))
    with pytest.raises(NonBinarySlack) as old:
        _slack_bits(*_reference_scaled(rows), *_reference_scaled(points))
    assert str(new.value) == str(old.value)


def bitvecs(indices, d):
    return [tuple((i >> j) & 1 for j in range(d)) for i in indices]


def as_set(vectors):
    return {tuple(v) for v in vectors}


# --- closure ----------------------------------------------------------------


def test_closure_standard_basis():
    out = closure([(1, 0), (0, 1)], 2)
    assert as_set(out) == {(0, 0), (1, 0), (0, 1), (1, 1)}


def test_closure_full_square():
    out = closure([(0, 0), (1, 0), (0, 1), (1, 1)], 2)
    assert as_set(out) == {(0, 0), (1, 0), (0, 1)}


def test_closure_skew_basis():
    out = closure([(1, 1), (1, 0)], 2)
    assert as_set(out) == {(0, 0), (0, 1), (1, 0), (1, -1)}


def test_closure_rejects_nonspanning():
    with pytest.raises(NotSpanning):
        closure([(1, 0)], 2)


def test_closure_contains_zero_and_bounded():
    rng = random.Random(3)
    for d in (2, 3, 4):
        for _ in range(30):
            mask = rng.getrandbits(1 << d)
            vs = bitvecs([j for j in range(1 << d) if (mask >> j) & 1], d)
            if not vs or linalg.rank(vs) != d:
                continue
            out = closure(vs, d)
            assert tuple([F(0)] * d) in out
            assert len(out) <= 1 << d
            assert len(set(out)) == len(out)


def _random_spanning_seed(rng, d):
    while True:
        mask = rng.getrandbits(1 << d)
        vs = bitvecs([j for j in range(1 << d) if (mask >> j) & 1], d)
        if vs and linalg.rank(vs) == d:
            return vs


def test_closure_galois_laws():
    rng = random.Random(11)
    for d in (2, 3, 4):
        for _ in range(25):
            x = _random_spanning_seed(rng, d)
            y = x + _random_spanning_seed(rng, d)
            cx, cy = closure(x, d), closure(y, d)
            # antitone on nested spanning families
            assert as_set(cy) <= as_set(cx)
            # X inside double closure, triple = single
            if spans(cx, d):
                ccx = closure(cx, d)
                assert as_set(x) <= as_set(ccx)
                if spans(ccx, d):
                    assert closure(ccx, d) == cx


# --- completion and slack ----------------------------------------------------


def test_completion_standard_basis():
    cfg = maximal_completion([(1, 0), (0, 1)], 2)
    assert as_set(cfg.A) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    assert as_set(cfg.B) == {(0, 0), (1, 0), (0, 1)}
    assert cfg.is_maximal()


def test_completion_dimension_one():
    cfg = maximal_completion([(0,), (1,)], 1)
    assert as_set(cfg.A) == {(0,), (1,)}
    assert as_set(cfg.B) == {(0,), (1,)}


def test_completion_skew_seed():
    cfg = maximal_completion([(1, 1), (1, 0)], 2)
    assert as_set(cfg.A) == {(0, 0), (0, 1), (1, 0), (1, -1)}
    assert as_set(cfg.B) == {(0, 0), (1, 0), (1, 1)}


def test_completion_contains_seed():
    rng = random.Random(5)
    for d in (2, 3):
        for _ in range(10):
            seed = _random_spanning_seed(rng, d)
            cfg = maximal_completion(seed, d)
            assert as_set(seed) <= as_set(cfg.B)
            assert cfg.is_maximal()


def test_completion_slack_is_maximal():
    rng = random.Random(31)
    for d in (2, 3):
        for _ in range(10):
            cfg = maximal_completion(_random_spanning_seed(rng, d), d)
            assert is_maximal_in_md(slack_matrix(cfg).matrix)


def test_slack_matrix_d1():
    cfg = maximal_completion([(0,), (1,)], 1)
    s = slack_matrix(cfg)
    assert s.matrix.row_tuples() == [(0, 0), (0, 1)]


def test_slack_matrix_square_class():
    cfg = maximal_completion([(1, 0), (0, 1)], 2)
    s = slack_matrix(cfg)
    assert sorted(s.matrix.row_tuples()) == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)]
    assert linalg.rank(s.matrix.row_tuples()) == 2


def test_configuration_rejects_bad_products():
    with pytest.raises(NonBinarySlack):
        Configuration(1, ((F(2),),), ((F(1),),))


def test_configuration_rejects_nonspanning_side():
    with pytest.raises(NotSpanning):
        Configuration(2, ((F(1), F(0)),), ((F(1), F(0)), (F(0), F(1))))


# --- maximality test ----------------------------------------------------------


def test_is_maximal_d1_class():
    assert is_maximal_in_md(BinaryMatrix.from_rows([[0, 0], [0, 1]]))


def test_is_maximal_rejects_submatrix():
    assert not is_maximal_in_md(BinaryMatrix.from_rows([[1]]))


def test_is_maximal_4x3():
    m = BinaryMatrix.from_rows([[0, 0, 0], [0, 1, 0], [0, 0, 1], [0, 1, 1]])
    assert is_maximal_in_md(m)


def test_is_maximal_rejects_repeats_and_zero():
    assert not is_maximal_in_md(BinaryMatrix.from_rows([[0, 0], [0, 0]]))
    assert not is_maximal_in_md(BinaryMatrix.from_rows([[0]]))


# --- rank factorization --------------------------------------------------------


def test_from_slack_matrix_d1():
    cfg = from_slack_matrix(BinaryMatrix.from_rows([[0, 0], [0, 1]]))
    assert cfg.d == 1
    s = slack_matrix(cfg)
    assert sorted(s.matrix.row_tuples()) == [(0, 0), (0, 1)]


def test_from_slack_matrix_rejects_repeats():
    with pytest.raises(RepeatedLine):
        from_slack_matrix(BinaryMatrix.from_rows([[0, 1], [0, 1]]))


def test_from_slack_matrix_permutation_equivalent_inputs():
    from tlc import canon

    m = BinaryMatrix.from_rows([[0, 0, 0], [0, 1, 0], [0, 0, 1], [0, 1, 1]])
    perm = BinaryMatrix.from_rows([[0, 1, 1], [0, 0, 1], [0, 1, 0], [0, 0, 0]])
    c1 = from_slack_matrix(m)
    c2 = from_slack_matrix(perm)
    assert canon.equivalent(slack_matrix(c1).matrix, slack_matrix(c2).matrix)


def test_from_slack_matrix_reproduces_matrix():
    from tlc import canon

    rng = random.Random(9)
    for _ in range(15):
        seed = _random_spanning_seed(rng, 3)
        cfg = maximal_completion(seed, 3)
        m = slack_matrix(cfg).matrix
        again = slack_matrix(from_slack_matrix(m)).matrix
        assert canon.equivalent(m, again)


# --- binary normalization -------------------------------------------------------


def _transform_for(cfg, side):
    basis = normalization_basis(cfg, side)
    t_rows = [list(col) for col in zip(*basis)]
    inv, _ = linalg.inverse_and_det(t_rows)
    tt = [list(b) for b in basis]
    return tt, inv


def _norm_maps(cfg, side):
    tt, inv = _transform_for(cfg, side)
    if side == "A":
        fa = lambda a: linalg.mat_vec(tt, a)
        fb = lambda b: linalg.mat_vec(inv, b)
    else:
        fa = lambda a: linalg.mat_vec(inv, a)
        fb = lambda b: linalg.mat_vec(tt, b)
    return fa, fb


@pytest.mark.parametrize("side", ["A", "B"])
def test_normalize_makes_side_binary(side):
    cfg = maximal_completion([(1, 1), (1, 0)], 2)
    out = normalize_to_binary(cfg, side)
    chosen = out.A if side == "A" else out.B
    opposite = out.B if side == "A" else out.A
    assert all(x in (0, 1) for v in chosen for x in v)
    basis_vectors = {tuple(F(1) if j == i else F(0) for j in range(2)) for i in range(2)}
    assert basis_vectors <= as_set(opposite)


@pytest.mark.parametrize("side", ["A", "B"])
def test_normalize_preserves_slack_entrywise(side):
    cfg = maximal_completion([(1, 1), (1, 0)], 2)
    fa, fb = _norm_maps(cfg, side)
    for a in cfg.A:
        for b in cfg.B:
            assert linalg.dot(fa(a), fb(b)) == linalg.dot(a, b)
    out = normalize_to_binary(cfg, side)
    assert as_set(fa(a) for a in cfg.A) == as_set(out.A)
    assert as_set(fb(b) for b in cfg.B) == as_set(out.B)


def test_normalize_binary_side_stays_binary():
    from tlc import canon

    cfg = maximal_completion([(1, 0), (0, 1)], 2)
    out = normalize_to_binary(cfg, "B")
    assert all(x in (0, 1) for v in out.B for x in v)
    assert canon.equivalent(slack_matrix(cfg).matrix, slack_matrix(out).matrix)


# --- matrix text and JSON formats -------------------------------------------------


def test_parse_matrix_roundtrip():
    m = parse_matrix("2 2\n00\n01\n")
    assert m.row_tuples() == [(0, 0), (0, 1)]
    assert emit_matrix(m) == "2 2\n00\n01\n"


def test_parse_matrix_bad_character():
    with pytest.raises(ParseError) as e:
        parse_matrix("1 3\n012\n")
    assert e.value.line == 2 and e.value.column == 3


def test_parse_matrix_bad_header():
    with pytest.raises(ParseError):
        parse_matrix("2\n00\n")


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_matrix_text_roundtrips(data):
    m = data.draw(st.integers(1, 6))
    n = data.draw(st.integers(1, 6))
    bits = tuple(data.draw(st.integers(0, 1)) for _ in range(m * n))
    mat = BinaryMatrix(m, n, bits)
    assert parse_matrix(emit_matrix(mat)) == mat


def test_configuration_json_roundtrip():
    cfg = maximal_completion([(1, 1), (1, 0)], 2)
    text = configuration_to_json(cfg)
    back = configuration_from_json(text)
    assert back.d == cfg.d and back.A == cfg.A and back.B == cfg.B


def test_configuration_json_rejects_decimals():
    with pytest.raises(ParseError):
        configuration_from_json('{"d": 1, "A": [["0.5"]], "B": [["1"]]}')
