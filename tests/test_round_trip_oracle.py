"""The integer class round trip against the earlier Fraction and per-vector paths.

The `reference_*` functions are the earlier code, kept here as oracles:
`reference_lattice_coords` converts every entry through a Fraction and
builds a Hermite form for each vector it tests, `reference_select_generators`
and `reference_phi` call it once per vector, `reference_decompress` runs one
`linalg.solve` per decoded face point, `reference_unit_basis` applies
T^-1 and T^T as Fraction matrices to the vectors of both sides, and
`reference_zero_one_patterns` builds a full subset-sum table for every
non-pivot column.  `tlc` does the same work in integers: one Hermite form
per generator set, one elimination for all decoded points, the rank
factorization of the slack bits (`_rank_factor`) for the change of basis,
and sums of the surviving patterns only.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from tlc import compress, configuration, corrcone, linalg
from tlc.compress import CompressedConfig, GeneratorSet, decompress, phi, select_generators
from tlc.configuration import (
    SIDE_A,
    SIDE_B,
    BinaryMatrix,
    Configuration,
    _rank_factor,
    _subset_sums,
    _zero_one_patterns,
    closure,
    from_slack_matrix,
    normalize_to_binary,
    parse_matrix,
)
from tlc.errors import DimensionMismatch, NonBinaryProduct, NotInLattice, NotSpanning, TlcError
from tlc.geometry import examples_library, find_triangular_core, polytope_completion, to_binary_integral_configuration

from helpers import core_inputs, mat_vec, opposite_basis

F = Fraction


# --- the earlier paths --------------------------------------------------------


def reference_check_int_matrix(rows):
    out = []
    for r in rows:
        row = []
        for x in r:
            f = linalg.frac(x)
            if f.denominator != 1:
                raise ValueError("integer matrix required")
            row.append(int(f))
        out.append(row)
    if out and any(len(r) != len(out[0]) for r in out):
        raise DimensionMismatch("ragged rows")
    return out


def reference_lattice_coords(gens, v):
    rows = reference_check_int_matrix(gens)
    v = [int(x) for x in v]
    if not rows:
        return None if any(v) else ()
    if len(v) != len(rows[0]):
        raise DimensionMismatch(f"vector of length {len(v)} vs generator dimension {len(rows[0])}")
    h, u = linalg.hnf(rows)
    mu = [0] * len(rows)
    for i, row in enumerate(h):
        c = next((j for j, x in enumerate(row) if x), None)
        if c is None:
            break
        if v[c]:
            q, rem = divmod(v[c], row[c])
            if rem:
                return None
            mu[i] = q
            v = [a - q * b for a, b in zip(v, row)]
    if any(v):
        return None
    return tuple(sum(m * r[j] for m, r in zip(mu, u)) for j in range(len(rows)))


def reference_determinant(gens):
    h, _ = linalg.hnf(reference_check_int_matrix(gens))
    det = 1
    for i in range(len(gens[0])):
        det *= next(x for x in h[i] if x)
    return abs(det)


@dataclass(frozen=True)
class ReferenceGenerators:
    """The earlier GeneratorSet, which kept the determinants recorded as
    its generators were grown."""

    d: int
    gens: tuple
    det_history: tuple

    @property
    def k(self):
        return len(self.gens)


def reference_select_generators(b_vectors, d):
    bs = sorted(set(tuple(int(x) for x in v) for v in b_vectors))
    if any(len(b) != d for b in bs):
        raise DimensionMismatch("vectors of wrong dimension")
    if any(x not in (0, 1) for b in bs for x in b):
        raise NonBinaryProduct("point side must be 0/1 before generator selection")
    idx = linalg.first_independent(bs, d)
    if idx is None:
        raise NotSpanning(f"point side does not span R^{d}")
    chosen = [bs[i] for i in idx]
    dets = [reference_determinant(chosen)]
    while True:
        extra = next((b for b in bs if reference_lattice_coords(chosen, b) is None), None)
        if extra is None:
            break
        chosen.append(extra)
        dets.append(reference_determinant(chosen))
    return ReferenceGenerators(d, tuple(chosen), tuple(dets))


def reference_phi(b, gens):
    bt = tuple(int(x) for x in b)
    if len(bt) != gens.d:
        raise DimensionMismatch("vector of wrong dimension")
    for i, g in enumerate(gens.gens):
        if bt == g:
            return tuple(1 if j == i else 0 for j in range(gens.k))
    coords = reference_lattice_coords(gens.gens, bt)
    if coords is None:
        raise NotInLattice(f"{b} is not in the generator lattice")
    return coords


def reference_decompress(cc):
    gens = cc.gens
    a_prime = corrcone.certificate_decode(cc.cert)
    g_rows = [[Fraction(x) for x in g] for g in gens.gens]
    a_side = []
    for ap in a_prime:
        sol = linalg.solve(g_rows, [Fraction(x) for x in ap])
        if sol is not None:
            a_side.append(sol)
    assert a_side
    b_side = closure(a_side, gens.d)
    return Configuration(gens.d, tuple(a_side), b_side)


def reference_unit_basis(cfg, side, basis):
    t_inv, _ = linalg.inverse_and_det([list(col) for col in zip(*basis)])
    tt_rows = [list(b) for b in basis]
    if side == SIDE_A:
        new_a = [mat_vec(tt_rows, a) for a in cfg.A]
        new_b = [mat_vec(t_inv, b) for b in cfg.B]
    else:
        new_a = [mat_vec(t_inv, a) for a in cfg.A]
        new_b = [mat_vec(tt_rows, b) for b in cfg.B]
    return Configuration(cfg.d, tuple(new_a), tuple(new_b))


def reference_zero_one_patterns(pivots, piv_cols, det, ncols):
    alive = range(1 << len(pivots))
    basis = set(piv_cols)
    for j in range(ncols):
        if j not in basis:
            sums = _subset_sums([row[j] for row in pivots])
            alive = [s for s in alive if sums[s] == 0 or sums[s] == det]
    return list(alive)


def outcome(fn, *args):
    """The result, or the type and message of the error raised."""
    try:
        return fn(*args)
    except (TlcError, ValueError) as e:
        return type(e), str(e)


# --- inputs -------------------------------------------------------------------


def _golden_configurations(enum_results, enum_d4):
    """from_slack_matrix of the 1 + 2 + 6 + 31 classes of d = 1..4."""
    out = [from_slack_matrix(parse_matrix(f.bytes.decode()))
           for res in (*enum_results.values(), enum_d4) for f in res.classes]
    assert len(out) == 40
    return out


def _permuted_configurations(enum_results, enum_d4):
    """from_slack_matrix of each class's slack matrix and of its transpose,
    both with rows and columns shuffled, so the first independent lines
    differ from the canonical ones."""
    rng = random.Random(4242)
    out = []
    for res in (*enum_results.values(), enum_d4):
        for f in res.classes:
            m = parse_matrix(f.bytes.decode())
            for rows in (m.row_tuples(), m.col_tuples()):
                rows = rng.sample(rows, len(rows))
                cols = rng.sample(list(zip(*rows)), len(rows[0]))
                out.append(from_slack_matrix(BinaryMatrix.from_rows(zip(*cols))))
    assert len(out) == 80
    return out


def _binary_b(cfg, side):
    """The configuration normalized on `side`, with that side as B."""
    out = normalize_to_binary(cfg, side)
    return out if side == SIDE_B else Configuration(out.d, out.B, out.A)


def _rational_copy(cfg, rng):
    """cfg under a random rational change of basis M: B -> M b and
    A -> M^-T a, so every product is kept and both sides hold fractions."""
    d = cfg.d
    while True:
        m = [[F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(d)] for _ in range(d)]
        inv = linalg.inverse_and_det(m)
        if inv is not None:
            break
    m_inv_t = [list(col) for col in zip(*inv[0])]
    return Configuration(d, tuple(mat_vec(m_inv_t, a) for a in cfg.A), tuple(mat_vec(m, b) for b in cfg.B))


# --- the change of basis --------------------------------------------------------
#
# Every change of basis that sends d vectors of one side to e_1..e_d is, in
# `tlc`, the rank factorization of the slack bits over the matching lines.
# The tests below name it for what it does (a unit basis); the oracle is
# the earlier T^-1 / T^T in Fractions.


def _independent_positions(lines, basis_idx, last=False):
    """d positions at which the lines at basis_idx are independent: the
    first ones in position order, or the last ones."""
    n = len(lines[0])
    order = list(range(n))[::-1] if last else list(range(n))
    r = [[lines[i][j] for j in order] for i in basis_idx]
    return [order[c] for c in linalg._bareiss(r, n)[2]]


def _factored(cfg, side, basis_idx, last=False):
    """_rank_factor of cfg's slack bits over the lines at basis_idx, as a
    configuration: the lines are the slack rows (labelled by A) for side B
    and the slack columns (labelled by B) for side A."""
    m = configuration.slack_matrix(cfg).matrix
    lines = m.row_tuples() if side == SIDE_B else m.col_tuples()
    binary, other, _ = _rank_factor(lines, basis_idx, _independent_positions(lines, basis_idx, last))
    a, b = (other, binary) if side == SIDE_B else (binary, other)
    return Configuration(cfg.d, a, b)


@pytest.mark.parametrize("side", [SIDE_A, SIDE_B])
def test_unit_basis_matches_reference_on_golden_classes(enum_results, enum_d4, side):
    for cfg in _golden_configurations(enum_results, enum_d4) + _permuted_configurations(enum_results, enum_d4):
        want = reference_unit_basis(cfg, side, opposite_basis(cfg, side))
        got = normalize_to_binary(cfg, side)
        assert got == want
        assert got._bits == want._bits


@pytest.mark.parametrize("side", [SIDE_A, SIDE_B])
def test_unit_basis_matches_reference_on_fractional_sides(enum_results, enum_d4, side):
    rng = random.Random(1313)
    fractional = 0
    for cfg in _golden_configurations(enum_results, enum_d4):
        cfg = _rational_copy(cfg, rng)
        fractional += any(x.denominator != 1 for v in cfg.A + cfg.B for x in v)
        assert normalize_to_binary(cfg, side) == reference_unit_basis(cfg, side, opposite_basis(cfg, side))
        # d independent vectors taken from the end
        opposite = cfg.B if side == SIDE_A else cfg.A
        idx = [len(opposite) - 1 - i for i in linalg.first_independent(opposite[::-1], cfg.d)]
        got = _factored(cfg, side, idx)
        want = reference_unit_basis(cfg, side, [opposite[i] for i in idx])
        assert got == want
        assert got._bits == want._bits
        # any independent positions give the same factorization
        assert _factored(cfg, side, idx, last=True) == got
    assert fractional == 40


def test_unit_basis_matches_reference_on_core_inputs():
    for cfg in core_inputs():
        core = find_triangular_core(configuration.slack_matrix(cfg), cfg.d)
        want = reference_unit_basis(cfg, SIDE_A, [cfg.B[j] for j in core.col_indices])
        assert _factored(cfg, SIDE_A, core.col_indices) == want
        assert to_binary_integral_configuration(cfg) == (core, want)
        for side in (SIDE_A, SIDE_B):
            assert normalize_to_binary(cfg, side) == reference_unit_basis(cfg, side, opposite_basis(cfg, side))


def test_unit_basis_keeps_the_maximal_flag():
    # a change of basis keeps the answer is_maximal() computes
    cfg = polytope_completion(examples_library()["cube2"])
    outs = [cfg, *(normalize_to_binary(cfg, side) for side in (SIDE_A, SIDE_B))]
    outs.append(to_binary_integral_configuration(cfg)[1])
    assert all(c.is_maximal() for c in outs)
    square = Configuration(2, ((1, 0), (0, 1)), ((1, 0), (0, 1)))
    _, out = to_binary_integral_configuration(square)
    assert not out.is_maximal()


# --- generators, phi and decode ---------------------------------------------------


@pytest.mark.parametrize("side", [SIDE_A, SIDE_B])
def test_generators_phi_and_decode_match_reference_on_golden_classes(enum_results, enum_d4, side):
    for cfg in _golden_configurations(enum_results, enum_d4):
        cfg = _binary_b(cfg, side)
        gens = select_generators(cfg.B, cfg.d)
        want = reference_select_generators(cfg.B, cfg.d)
        assert (gens.gens, gens.det_history) == (want.gens, want.det_history)
        for b in cfg.B:
            assert phi(b, gens) == reference_phi(b, want)
        cc = compress.compress(cfg)
        assert cc.gens == gens
        assert decompress(cc) == reference_decompress(cc) == cfg


def _hand_made_generator_sets():
    """Generator sets with k > d (no d <= 4 class needs one), built by
    select_generators from point sets whose lattice needs an extra vector."""
    point_sets = [
        [(1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)],
        [(0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0), (0, 1, 1, 1), (1, 0, 0, 0), (1, 1, 0, 1), (1, 1, 1, 0)],
    ]
    return [select_generators(p, len(p[0])) for p in point_sets]


def test_det_history_of_hand_built_sets_matches_reference():
    # the last set is not one select_generators grows, so its history does
    # not halve
    sets = _hand_made_generator_sets() + [GeneratorSet(3, ((1, 0, 0), (0, 1, 0), (1, 1, 1), (0, 0, 1)))]
    for gens in sets:
        assert gens.k > gens.d
        assert gens.det_history == tuple(reference_determinant(gens.gens[:k]) for k in range(gens.d, gens.k + 1))
    assert [g.det_history for g in sets] == [(2, 1), (2, 1), (1, 1)]


def test_generators_and_phi_match_reference_on_random_point_sets():
    rng = random.Random(2024)
    sets = [[(1,)], [(0, 1), (1, 1)], [(1, 0), (2, 0)], [(1, 0, 0), (0, 1)]]
    for _ in range(300):
        d = rng.randint(2, 7)
        sets.append([tuple(rng.randint(0, 1) for _ in range(d)) for _ in range(rng.randint(d, 4 * d))])
    grown = 0
    for pts in sets:
        d = len(pts[0])
        want = outcome(reference_select_generators, pts, d)
        got = outcome(select_generators, pts, d)
        if isinstance(want, tuple):
            assert got == want
            continue
        assert (got.gens, got.det_history) == (want.gens, want.det_history)
        grown += got.k > d
        for b in [tuple(rng.randint(-1, 2) for _ in range(d)) for _ in range(20)] + list(pts):
            assert outcome(phi, b, got) == outcome(reference_phi, b, want)
    assert grown >= 15


def test_generator_set_builds_its_hermite_form_once(monkeypatch):
    gens = GeneratorSet(3, ((1, 0, 0), (0, 1, 0), (1, 1, 1), (0, 0, 1)))
    points = [(1, 1, 0), (0, 1, 1), (2, 1, 3), (1, 1, 1)]
    want = [reference_phi(b, gens) for b in points]
    calls = []
    hnf = linalg.hnf
    monkeypatch.setattr(linalg, "hnf", lambda m: calls.append(1) or hnf(m))
    assert [phi(b, gens) for b in points] == want
    assert len(calls) == 1
    # the cached form is not a field: equality and hashing ignore it
    twin = GeneratorSet(3, gens.gens)
    assert twin == gens and hash(twin) == hash(gens)


def test_decode_matches_reference_with_extra_generators():
    rng = random.Random(515)
    checked = skipped = 0
    for gens in _hand_made_generator_sets():
        k = gens.k
        assert k > gens.d
        faces = {corrcone.face_points(k, [[rng.randint(-1, 1) for _ in range(k)] for _ in range(rng.randint(0, 3))])
                 for _ in range(60)}
        for face in sorted(faces):
            cc = CompressedConfig(gens, corrcone.certificate_encode(k, face))
            got = outcome(decompress, cc)
            assert got == outcome(reference_decompress, cc)
            checked += 1
            # some decoded points have no preimage under G
            skipped += isinstance(got, Configuration) and len(got.A) < len(face)
    assert checked > 60 and skipped > 0


def test_lattice_coords_matches_reference():
    rng = random.Random(77)
    for _ in range(300):
        k, d = rng.randint(0, 5), rng.randint(1, 4)
        gens = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(k)]
        if rng.random() < 0.3:
            gens = [[F(x) for x in g] for g in gens]
        for _ in range(10):
            v = [rng.randint(-4, 4) for _ in range(d)]
            assert outcome(linalg.lattice_coords, gens, v) == outcome(reference_lattice_coords, gens, v)
            if gens:
                h, u = linalg.hnf(gens)
                assert linalg._hnf_coords(h, u, v) == reference_lattice_coords(gens, v)
    assert outcome(linalg.lattice_coords, [[F(1, 2), 1]], [1, 1]) == (ValueError, "integer matrix required")


def test_compress_builds_no_fraction_in_generators_or_phi(enum_results, enum_d4, monkeypatch):
    cfgs = [normalize_to_binary(cfg, SIDE_B) for cfg in _golden_configurations(enum_results, enum_d4)]
    inside = [0]
    built = [0]
    calls = {"select_generators": 0, "phi": 0}
    real_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built[0] += inside[0] > 0
        return real_new(cls, *args, **kwargs)

    def watched(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            inside[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                inside[0] -= 1
        return wrapper

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    monkeypatch.setattr(compress, "select_generators", watched(select_generators))
    monkeypatch.setattr(compress, "phi", watched(phi))
    for cfg in cfgs:
        compress.compress(cfg)
    assert built[0] == 0
    assert calls["select_generators"] == 40 and calls["phi"] > 300
    # the counter sees a Fraction built inside a watched call
    inside[0] += 1
    Fraction(1, 2)
    inside[0] -= 1
    assert built[0] == 1


# --- the 0/1 pattern filter ----------------------------------------------------


def test_zero_one_patterns_match_table_on_random_pivot_rows():
    rng = random.Random(4242)
    shrank = 0
    for _ in range(400):
        n, ncols = rng.randint(0, 9), rng.randint(0, 14)
        det = rng.choice([1, 2, 3, -2, 6])
        # a row may run on past ncols (augmented columns), which the filter ignores
        width = ncols + rng.randint(0, 3)
        pivots = [[rng.choice([0, 0, 0, det, det, 1, -1, 2 * det, -det]) for _ in range(width)] for _ in range(n)]
        piv_cols = rng.sample(range(ncols), min(n, ncols))
        got = _zero_one_patterns(pivots, piv_cols, det, ncols)[0]
        assert got == reference_zero_one_patterns(pivots, piv_cols, det, ncols)
        shrank += 0 < len(got) < (1 << n) // 2
    assert shrank > 50


def test_zero_one_patterns_match_table_on_eliminated_matrices():
    rng = random.Random(99)
    for _ in range(300):
        rows, cols = rng.randint(1, 12), rng.randint(1, 12)
        m = [[rng.getrandbits(1) for _ in range(cols)] for _ in range(rows)]
        elim, piv_rows, piv_cols, det = linalg._bareiss([list(r) for r in m], cols)
        pivots = [elim[r] for r in piv_rows]
        assert _zero_one_patterns(pivots, piv_cols, det, cols)[0] == \
            reference_zero_one_patterns(pivots, piv_cols, det, cols)
