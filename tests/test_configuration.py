import hashlib
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlc import linalg
from tlc.compress import compress, decompress
from tlc.configuration import (
    BinaryMatrix,
    Configuration,
    _scaled,
    _slack_bits,
    closure,
    configuration_from_json,
    configuration_to_json,
    from_slack_matrix,
    is_maximal_in_md,
    maximal_completion,
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

from helpers import dot, mat_vec, opposite_basis

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


# --- maximality by counting, against the earlier path -------------------------


def _reference_from_slack_matrix(m):
    """The earlier from_slack_matrix, kept as the oracle: rank, the first
    independent rows, then one solve per row."""
    rows = m.row_tuples()
    d = linalg.rank(rows)
    basis_idx = linalg.first_independent(rows, d)
    r = [rows[i] for i in basis_idx]
    rt = [[r[i][j] for i in range(d)] for j in range(m.cols)]
    b_side = [linalg.vec(col) for col in zip(*r)]
    a_side = [linalg.solve(rt, rows[i]) for i in range(m.rows)]
    return Configuration(d, tuple(a_side), tuple(b_side))


def _reference_is_maximal_in_md(m):
    """The earlier is_maximal_in_md, kept as the oracle: the rank
    factorization and both closures."""
    if m.rows == 0 or m.cols == 0 or not m.distinct_lines() or linalg.rank(m.row_tuples()) == 0:
        return False
    cfg = _reference_from_slack_matrix(m)
    return closure(cfg.B, cfg.d) == cfg.A and closure(cfg.A, cfg.d) == cfg.B


def _one_line_deletions(m):
    rows, cols = m.row_tuples(), m.col_tuples()
    for i in range(m.rows):
        yield BinaryMatrix.from_rows(rows[:i] + rows[i + 1:]) if m.rows > 1 else BinaryMatrix(0, m.cols, ())
    for j in range(m.cols):
        yield BinaryMatrix.from_rows(cols[:j] + cols[j + 1:]).transpose() if m.cols > 1 else BinaryMatrix(m.rows, 0, ())


def _golden_classes(enum_results, enum_d4):
    """The 1 + 2 + 6 + 31 classes of d = 1..4."""
    out = [(res.d, parse_matrix(f.bytes.decode())) for res in (*enum_results.values(), enum_d4) for f in res.classes]
    assert len(out) == 40
    return out


def _random_matrices(seed, count, size=6):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        r, c = rng.randint(1, size), rng.randint(1, size)
        out.append(BinaryMatrix(r, c, tuple(rng.getrandbits(1) for _ in range(r * c))))
    return out


def _stable_set_matrices(n_full=5, n6_sample=30):
    """Maximal stable-set slack matrices: every bipartite graph on n <= 5
    nodes, and a seeded sample of those on 6."""
    from tlc import stabset
    from tlc.errors import NotBipartite

    def graphs(n, masks):
        for mask in masks:
            try:
                yield stabset.graph_from_mask(n, mask)
            except NotBipartite:
                continue

    rng = random.Random(606)
    chosen = [g for n in range(1, n_full + 1) for g in graphs(n, range(1 << (n * (n - 1) // 2)))]
    chosen += list(graphs(6, rng.sample(range(1 << 15), 10 * n6_sample)))[:n6_sample]
    return [stabset.stab_maximal_slack(g).matrix for g in chosen]


def _factorable(m):
    return m.rows and m.cols and m.distinct_lines() and any(m.bits)


def _oracle_sized(m):
    # oracle_is_maximal tries all 2^rows + 2^cols 0/1 vectors
    return m.rows <= 8 and m.cols <= 8


def test_is_maximal_in_md_matches_old_path_on_golden_classes(enum_results, enum_d4):
    from tlc.enumeration import oracle_is_maximal

    checked = 0
    for d, m in _golden_classes(enum_results, enum_d4):
        assert is_maximal_in_md(m) and _reference_is_maximal_in_md(m)
        for sub in _one_line_deletions(m):
            got = is_maximal_in_md(sub)
            assert got == _reference_is_maximal_in_md(sub), sub.row_tuples()
            if d <= 3 and _oracle_sized(sub):
                assert got == oracle_is_maximal(sub), sub.row_tuples()
            checked += 1
    assert checked == 4 + 14 + 68 + 526


def test_is_maximal_in_md_matches_old_path_on_random_matrices():
    from tlc.enumeration import oracle_is_maximal

    maximal = 0
    for m in _random_matrices(20261018, 1500):
        got = is_maximal_in_md(m)
        assert got == _reference_is_maximal_in_md(m) == oracle_is_maximal(m), m.row_tuples()
        maximal += got
    assert maximal > 0


def test_is_maximal_in_md_matches_old_path_on_stable_set_slack():
    from tlc.enumeration import oracle_is_maximal

    matrices = _stable_set_matrices()
    assert len(matrices) == 1 + 2 + 7 + 41 + 376 + 30
    for m in matrices:
        assert is_maximal_in_md(m) and _reference_is_maximal_in_md(m)
        for sub in _one_line_deletions(m) if m.rows <= 12 and m.cols <= 12 else ():
            got = is_maximal_in_md(sub)
            assert got == _reference_is_maximal_in_md(sub), sub.row_tuples()
            if _oracle_sized(sub):
                assert got == oracle_is_maximal(sub), sub.row_tuples()


def test_is_maximal_in_md_needs_no_closure_or_solve(monkeypatch, enum_results):
    from tlc import configuration

    def refuse(*args, **kwargs):
        raise AssertionError("the maximality count left the integers")

    cases = []
    for res in enum_results.values():
        for f in res.classes:
            m = parse_matrix(f.bytes.decode())
            cases += [(m, True)] + [(sub, _reference_is_maximal_in_md(sub)) for sub in _one_line_deletions(m)]
    monkeypatch.setattr(configuration, "closure", refuse)
    monkeypatch.setattr(configuration, "from_slack_matrix", refuse)
    monkeypatch.setattr(linalg, "solve", refuse)
    assert [is_maximal_in_md(m) for m, _ in cases] == [want for _, want in cases]
    assert any(not want for _, want in cases)


def test_configuration_is_maximal_matches_closures(enum_results, enum_d4):
    configs = []
    for _, m in _golden_classes(enum_results, enum_d4):
        cfg = from_slack_matrix(m)
        configs += [cfg, normalize_to_binary(cfg, "A"), normalize_to_binary(cfg, "B")]
        configs += [from_slack_matrix(sub) for sub in _one_line_deletions(m) if _factorable(sub)]
    for cfg in configs:
        want = closure(cfg.B, cfg.d) == cfg.A and closure(cfg.A, cfg.d) == cfg.B
        fresh = Configuration(cfg.d, cfg.A, cfg.B)
        assert fresh.is_maximal() == want
    assert sum(Configuration(c.d, c.A, c.B).is_maximal() for c in configs) == 3 * 40


def test_rank_17_identity_raises_as_before():
    from tlc.errors import DimensionTooLarge

    m = BinaryMatrix.from_rows([[int(i == j) for j in range(17)] for i in range(17)])
    with pytest.raises(DimensionTooLarge) as new:
        is_maximal_in_md(m)
    with pytest.raises(DimensionTooLarge) as old:
        _reference_is_maximal_in_md(m)
    assert str(new.value) == str(old.value) == "closure is limited to rank <= 16"
    with pytest.raises(DimensionTooLarge) as cfg:
        from_slack_matrix(m).is_maximal()
    assert str(cfg.value) == str(old.value)
    sixteen = BinaryMatrix.from_rows([[int(i == j) for j in range(16)] for i in range(16)])
    assert is_maximal_in_md(sixteen) is False


def test_bytes_at_the_rational_boundary(enum_results, enum_d4):
    # the JSON of every class and its transpose as built from the slack bits,
    # normalized to either side and round-tripped through compress, pinned to
    # the bytes of the code that turned every side into Fractions
    h = hashlib.sha256()
    for _, m in _golden_classes(enum_results, enum_d4):
        for mm in (m, m.transpose()):
            cfg = from_slack_matrix(mm)
            b = normalize_to_binary(cfg, "B")
            for c in (cfg, normalize_to_binary(cfg, "A"), b, decompress(compress(b))):
                h.update(configuration_to_json(c).encode() + b"\n")
    assert h.hexdigest() == "f9188db03016c8ee3a7eea5648bbfef9c1b614ea55b6c96fa27109435b3065b1"
    # a side built of ints is stored as ints
    assert type(from_slack_matrix(BinaryMatrix.from_rows([(0, 0), (0, 1), (1, 0), (1, 1)])).B[0][0]) is int


def test_from_slack_matrix_matches_old_path(enum_results, enum_d4):
    matrices = []
    for _, m in _golden_classes(enum_results, enum_d4):
        matrices += [m, m.transpose(), *_one_line_deletions(m)]
    matrices += _random_matrices(7, 600) + _stable_set_matrices(n_full=4, n6_sample=10)
    compared = 0
    for m in matrices:
        if not _factorable(m):
            continue
        new, old = from_slack_matrix(m), _reference_from_slack_matrix(m)
        assert new == old
        assert new._bits == old._bits
        compared += 1
    assert compared > 800


# --- binary normalization -------------------------------------------------------


def _transform_for(cfg, side):
    basis = opposite_basis(cfg, side)
    t_rows = [list(col) for col in zip(*basis)]
    inv, _ = linalg.inverse_and_det(t_rows)
    tt = [list(b) for b in basis]
    return tt, inv


def _norm_maps(cfg, side):
    tt, inv = _transform_for(cfg, side)
    if side == "A":
        fa = lambda a: mat_vec(tt, a)
        fb = lambda b: mat_vec(inv, b)
    else:
        fa = lambda a: mat_vec(inv, a)
        fb = lambda b: mat_vec(tt, b)
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
            assert dot(fa(a), fb(b)) == dot(a, b)
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
    assert m.to_text() == "2 2\n00\n01\n"


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
    assert parse_matrix(mat.to_text()) == mat


def test_configuration_json_roundtrip():
    cfg = maximal_completion([(1, 1), (1, 0)], 2)
    text = configuration_to_json(cfg)
    back = configuration_from_json(text)
    assert back.d == cfg.d and back.A == cfg.A and back.B == cfg.B


def test_configuration_json_rejects_decimals():
    with pytest.raises(ParseError):
        configuration_from_json('{"d": 1, "A": [["0.5"]], "B": [["1"]]}')
