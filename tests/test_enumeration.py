import functools
import hashlib
import itertools
import math
import multiprocessing.pool
import operator
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from tlc import canon, configuration, enumeration, geometry, linalg
from tlc.configuration import (
    BinaryMatrix,
    _scaled,
    _slack_bits,
    _subset_sums,
    closure,
    is_maximal_in_md,
    parse_matrix,
    slack_bits,
    slack_matrix,
    spans,
)
from tlc.corrcone import all_points
from tlc.enumeration import (
    enumerate_maximal,
    oracle_is_maximal,
    oracle_maximal,
    report,
    transpose_identified_count,
)
from tlc.errors import DimensionMismatch, DimensionTooLarge
from tlc.linalg import _bareiss, rank

from helpers import examples_library, matrix_from_rows

# class counts produced by the full scans and reproduced by independent
# reruns (reversed seed order, pre/post memoization); artifacts of this
# computation, not published values
CLASS_COUNTS = {1: 1, 2: 2, 3: 6, 4: 31}
# sha256 of the sorted canonical bytes of all d = 4 classes, concatenated
D4_CLASS_SET_SHA256 = "a57cb77326b3a2d1a1991a1b969ba1aa4d2c21e5123c9396e49ec289dfb4eace"


def test_enumerate_d1(enum_results):
    res = enum_results[1]
    assert len(res.classes) == 1
    assert res.classes[0].bytes == b"2 2\n00\n01\n"


def test_enumerate_d2(enum_results):
    res = enum_results[2]
    assert len(res.classes) == 2
    assert sorted(f.shape for f in res.classes) == [(3, 4), (4, 3)]
    assert transpose_identified_count(res.classes) == 1


def _reversed_scan(monkeypatch, d):
    """enumerate_maximal(d) with the seed list scanned in reverse order."""
    forward = enumeration._seed_masks
    with monkeypatch.context() as patch:
        patch.setattr(enumeration, "_seed_masks", lambda d: forward(d)[::-1])
        return enumerate_maximal(d)


def test_enumerate_d3_count_and_determinism(monkeypatch, enum_results):
    res = enum_results[3]
    assert len(res.classes) == CLASS_COUNTS[3]
    rerun = _reversed_scan(monkeypatch, 3)
    assert [f.bytes for f in rerun.classes] == [f.bytes for f in res.classes]
    assert res.stats.degenerate_seeds == 0


def test_enumerate_rejects_large_dimension():
    with pytest.raises(DimensionTooLarge):
        enumerate_maximal(6)


def _decoded_u(d):
    """U_d as closure returns vectors: each integer row (q, q y) as y."""
    return tuple(tuple(Fraction(x, q) for x in y) for q, *y in enumeration._seed_context(d)[0])


def _context_answer(d, m):
    """The seed's spanning flag and decoded first closure, read off the
    context by an AND and an OR over its points."""
    _, closed, missed, _ = enumeration._seed_context(d)
    u = _decoded_u(d)
    key, span = (1 << len(u)) - 1, 0
    for j in range(1 << d):
        if m >> j & 1:
            key &= closed[j]
            span |= missed[j]
    spanning = span == functools.reduce(operator.or_, missed)
    return spanning, tuple(u[i] for i in range(len(u)) if key >> i & 1) if spanning else None


def _closure_answer(d, m):
    vectors = [x for j, x in enumerate(all_points(d)) if m >> j & 1]
    spanning = rank(vectors) == d
    return spanning, closure(vectors, d) if spanning else None


def _reference_seed_context(d):
    """The context as _seed_context builds it, inverting every 0/1 basis
    instead of one per S_d orbit, with each mask summed bit by bit."""
    points = all_points(d)
    found, cuts = set(), set()
    for basis in itertools.combinations(points[1:], d):
        rows, piv_rows, _, det = _bareiss([[*b, *points[1 << i]] for i, b in enumerate(basis)], d)
        if len(piv_rows) == d:
            inverse = [rows[r][d:] for r in piv_rows]
            for y in zip(*map(_subset_sums, inverse)):
                g = math.gcd(det, *y) if det > 0 else -math.gcd(det, *y)
                found.add(tuple(x // g for x in (det, *y)))
            cuts.update(tuple(p != 0 for p in _subset_sums(n)) for n in zip(*inverse))
    scale = math.lcm(*(v[0] for v in found))
    u = sorted(found, key=lambda v: [x * (scale // v[0]) for x in v[1:]])
    products = [(den, _subset_sums(y)) for den, *y in u]

    def masks(table):
        return tuple(sum(b << i for i, b in enumerate(column)) for column in zip(*table))

    closed = masks([[p == 0 or p == den for p in sums] for den, sums in products])
    ones = tuple(sum((p == den) << j for j, p in enumerate(sums)) for den, sums in products)
    return tuple(u), closed, masks(sorted(cuts)), ones


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_seed_context_matches_every_basis(d):
    got = enumeration._seed_context(d)
    want = _reference_seed_context(d)
    for name, a, b in zip(("u", "closed", "missed", "ones"), got, want):
        assert a == b, name


def test_seed_context_d5_pinned():
    # U_5 as the full scan over all 169,911 bases built it
    u, closed, missed, ones = enumeration._seed_context(5)
    assert len(u) == len(ones) == 28250 and len(closed) == len(missed) == 32
    assert functools.reduce(operator.or_, missed).bit_count() == 625
    assert hashlib.sha256(repr(u).encode()).hexdigest() == (
        "30fff2bceb22e3f17d0186943c990f190058b47df050f9e6cc8af1c04506f621")


def test_point_tables_fold_every_subset():
    rng = random.Random(25)
    for d in (4, 5):
        u, closed, missed, _ = enumeration._seed_context(d)
        ands, ors = enumeration._point_tables(d)
        assert len(ands) == len(ors) == max(2, (1 << d) // 8)
        n = 1 << d
        for m in [0, 1, 255, 256, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(300)]:
            key, span = (1 << len(u)) - 1, 0
            for j in range(n):
                if m >> j & 1:
                    key &= closed[j]
                    span |= missed[j]
            runs = [m >> (8 * k) & 255 for k in range(len(ands))]
            assert functools.reduce(operator.and_, map(operator.getitem, ands, runs)) == key, m
            assert functools.reduce(operator.or_, map(operator.getitem, ors, runs)) == span, m


def test_seed_context_sizes():
    for d, size, hyperplanes in ((1, 2, 1), (2, 6, 3), (3, 36, 9), (4, 580, 45)):
        u, closed, missed, ones = enumeration._seed_context(d)
        assert len(u) == len(ones) == size and len(closed) == len(missed) == 1 << d
        # integer rows (q, q y) in lowest terms, no Fraction
        assert all(type(x) is int for row in u for x in row)
        assert all(q > 0 and len(y) == d and math.gcd(q, *y) == 1 for q, *y in u)
        assert functools.reduce(operator.or_, missed).bit_count() == hyperplanes
        # the zero point has product 0 with every y and lies on every hyperplane
        assert closed[0] == (1 << size) - 1 and missed[0] == 0 and not any(o & 1 for o in ones)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_seed_context_masks_are_exact_products(d):
    _, closed, _, ones = enumeration._seed_context(d)
    u = _decoded_u(d)
    products = [[sum(a * b for a, b in zip(y, x)) for x in all_points(d)] for y in u]
    for i, row in enumerate(products):
        assert ones[i] == sum(1 << j for j, p in enumerate(row) if p == 1), i
    for j, column in enumerate(zip(*products)):
        assert closed[j] == sum(1 << i for i, p in enumerate(column) if p in (0, 1)), j


@functools.cache
def _first_closure_keys(d):
    """Every distinct first closure, as a mask over U_d, of the spanning
    seeds of the full scan."""
    _, closed, missed, _ = enumeration._seed_context(d)
    hyperplanes = functools.reduce(operator.or_, missed)
    keys = set()
    for m in enumeration._seed_masks(d):
        # the zero point's mask is all of U_d
        key, span = closed[0], 0
        for j in range(1 << d):
            if m >> j & 1:
                key &= closed[j]
                span |= missed[j]
        if span == hyperplanes:
            keys.add(key)
    return frozenset(keys)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_mask_slack_matches_exact_miss_path(d):
    # the earlier miss path, kept as the oracle: decode the first closure,
    # close it again and multiply both sides exactly
    u = _decoded_u(d)
    keys = _first_closure_keys(d)
    assert len(keys) == {1: 1, 2: 4, 3: 72, 4: 6963}[d]
    for key in keys:
        a = tuple(u[i] for i in range(len(u)) if key >> i & 1)
        assert spans(a, d)
        b = closure(a, d)
        assert all(x in (0, 1) for y in b for x in y)
        want = BinaryMatrix(len(a), len(b), tuple(_slack_bits(*_scaled(a), *_scaled(b))))
        assert enumeration._mask_slack(d, key, _intent(d, key)) == want


def test_mask_slack_matches_exact_products_at_d5():
    # the same oracle on spanning d = 5 seeds of 5 to 12 points: each
    # seed's first closure and intent, and the least image of that intent
    u = _decoded_u(5)
    closed, missed = enumeration._seed_context(5)[1:3]
    hyperplanes = functools.reduce(operator.or_, missed)
    rng = random.Random(37)
    pairs = []
    while len(pairs) < 120:
        seed = rng.sample(range(32), rng.randint(5, 12))
        if functools.reduce(operator.or_, (missed[j] for j in seed)) != hyperplanes:
            continue
        key = functools.reduce(operator.and_, (closed[j] for j in seed))
        rep = enumeration._orbit_min(5, _intent(5, key))
        rep_key = functools.reduce(operator.and_, (closed[j] for j in range(32) if rep >> j & 1))
        pairs += [(key, _intent(5, key)), (rep_key, rep)]
    for key, intent in pairs:
        a = tuple(u[i] for i in range(len(u)) if key >> i & 1)
        b = closure(a, 5)
        assert set(b) == {x for j, x in enumerate(all_points(5)) if intent >> j & 1}
        want = BinaryMatrix(len(a), len(b), tuple(_slack_bits(*_scaled(a), *_scaled(b))))
        assert enumeration._mask_slack(5, key, intent) == want


def _intent(d, key):
    """The 0/1 points of the completion whose first closure is key, as a
    mask over {0,1}^d."""
    closed = enumeration._seed_context(d)[1]
    return sum(1 << j for j in range(1 << d) if key & ~closed[j] == 0)


def _brute_orbit_min(d, mask):
    """The least image of a point mask, mapping the points one by one under
    every coordinate permutation, with no tables."""
    points = [x for j, x in enumerate(all_points(d)) if mask >> j & 1]
    return min(sum(1 << sum(x[i] << s for i, s in enumerate(sigma)) for x in points)
               for sigma in itertools.permutations(range(d)))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_orbit_form_matches_per_key_canon(d):
    # the per-key miss path, kept as the oracle: canon on each first closure
    keys = _first_closure_keys(d)
    assert len(keys) == {1: 1, 2: 4, 3: 72, 4: 6963}[d]
    for key in keys:
        want = canon.canonical_form(enumeration._mask_slack(d, key, _intent(d, key)))
        assert enumeration._orbit_form(d, enumeration._orbit_min(d, _intent(d, key))) == want


def test_orbit_min_matches_brute_force():
    masks = {d: range(1 << (1 << d)) for d in (1, 2, 3)}
    rng = random.Random(15)
    masks[4] = {_intent(4, key) for key in _first_closure_keys(4)} | {rng.getrandbits(16) for _ in range(500)}
    for d, group in masks.items():
        for mask in group:
            want = _brute_orbit_min(d, mask)
            assert enumeration._orbit_min(d, mask) == min(enumeration._orbit_images(d, mask)) == want, (d, mask)
    # four bytes a mask at d = 5
    for mask in [1, (1 << 32) - 1] + [rng.getrandbits(32) for _ in range(300)]:
        assert enumeration._orbit_min(5, mask) == _brute_orbit_min(5, mask), mask


def test_full_scan_runs_canon_once_per_orbit(monkeypatch):
    # the form cache lives for the whole process, so clear it before counting
    enumeration._orbit_form.cache_clear()
    calls = []
    original = canon.canonical_form
    monkeypatch.setattr(canon, "canonical_form", lambda m: calls.append(m) or original(m))
    for d, orbits in ((1, 1), (2, 3), (3, 19), (4, 399)):
        before = len(calls)
        assert len(enumerate_maximal(d).classes) == CLASS_COUNTS[d]
        assert len(calls) - before == orbits, d
    size = enumeration._orbit_form.cache_info().currsize
    assert size == len(calls) == 422
    for d in (1, 2, 3, 4):
        _reversed_scan(monkeypatch, d)
    assert enumeration._orbit_form.cache_info().currsize == size and len(calls) == size


def _refuse_exact_path(monkeypatch):
    """Make closure, rank and slack_bits raise wherever the scan could reach them."""
    def refuse(*args, **kwargs):
        raise AssertionError("the seed scan left the U_d masks")

    for module, name in ((configuration, "closure"), (configuration, "slack_bits"),
                         (linalg, "rank"), (enumeration, "rank")):
        monkeypatch.setattr(module, name, refuse)


def test_small_scan_runs_on_masks_only(monkeypatch, enum_results, enum_d4):
    _refuse_exact_path(monkeypatch)
    for d, want in (*enum_results.items(), (4, enum_d4)):
        got = enumerate_maximal(d)
        assert [f.bytes for f in got.classes] == [f.bytes for f in want.classes]
        assert got.stats == want.stats
    assert enum_d4.stats == enumeration.EnumStats(64839, 62924, 62924, 0, 31)


def _cache_sizes_after_import(*names):
    """The cache sizes of the named tlc.enumeration functions in a fresh
    process that has imported tlc.cli and tlc.enumeration, as printed."""
    src = str(Path(enumeration.__file__).parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import tlc.cli, tlc.enumeration as e; "
            "print(*(getattr(e, name).cache_info().currsize for name in sys.argv[2:]))")
    proc = subprocess.run([sys.executable, "-c", code, src, *names], capture_output=True, text=True, timeout=60)
    return proc.stdout


def test_seed_context_is_not_built_at_import():
    assert _cache_sizes_after_import("_seed_context") == "0\n"


def test_orbit_tables_are_not_built_at_import():
    assert _cache_sizes_after_import("_orbit_tables", "_orbit_form", "_point_tables") == "0 0 0\n"


@pytest.mark.parametrize("d", [1, 2, 3])
def test_seed_context_matches_closure_on_every_seed(d):
    for m in range(1, 1 << (1 << d)):
        assert _context_answer(d, m) == _closure_answer(d, m), m


def test_seed_context_matches_closure_at_d4():
    small = [m for m in range(1, 1 << 16) if bin(m).count("1") <= 4]
    rng = random.Random(2024)
    sample = [rng.getrandbits(16) or 1 for _ in range(2000)]
    spanning = 0
    for m in small + sample:
        want = _closure_answer(4, m)
        assert _context_answer(4, m) == want, m
        spanning += want[0]
    # both kinds of seed occur among the small ones and the sample
    assert 0 < spanning < len(small) + len(sample)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_first_closure_of_a_zero_one_seed_holds_the_unit_vectors(d):
    # e_i has 0/1 products with every 0/1 point, so no seed is degenerate
    rng = random.Random(900 + d)
    units = {tuple(Fraction(int(i == j)) for j in range(d)) for i in range(d)}
    seeds = 0
    while seeds < 40:
        seed = {tuple(rng.getrandbits(1) for _ in range(d)) for _ in range(rng.randint(d, 3 * d))}
        if rank(list(seed)) != d:
            continue
        first = closure(seed, d)
        assert units <= set(first)
        assert spans(first, d)
        seeds += 1


def _sampled_masks(count):
    """count distinct d = 5 seeds of at least five points, drawn from
    random.Random(0) and sorted by (popcount, mask)."""
    rng = random.Random(0)
    seen = set()
    while len(seen) < count:
        m = rng.getrandbits(32)
        if bin(m).count("1") >= 5:
            seen.add(m)
    return sorted(seen, key=lambda m: (bin(m).count("1"), m))


def _rational_scan(d, masks):
    """The classes and spanning seed count of a seed scan on the exact
    rational path, kept as the oracle of the mask scan: rank each seed,
    close it twice exactly and run canon on the fixed point's slack bits."""
    points = all_points(d)
    forms, memo, spanning = {}, {}, 0
    for m in masks:
        vectors = [points[j] for j in range(1 << d) if m >> j & 1]
        if rank(vectors) != d:
            continue
        spanning += 1
        a = closure(vectors, d)
        if a not in memo:
            b = closure(a, d)
            memo[a] = canon.canonical_form(BinaryMatrix(len(a), len(b), tuple(slack_bits(a, b))))
        forms[memo[a].bytes] = memo[a]
    return [forms[k] for k in sorted(forms)], spanning


def test_rational_oracle_on_d5_seeds_lands_in_the_fixture(d5_classes):
    want, spanning = _rational_scan(5, _sampled_masks(2000))
    assert (len(want), spanning) == (42, 2000)
    assert {f.bytes for f in want} <= set(d5_classes)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_orbit_search_matches_the_seed_scan(d, monkeypatch, enum_results, enum_d4):
    _refuse_exact_path(monkeypatch)
    forms, seeds, spanning = enumeration._orbit_search(d)
    want = enum_d4 if d == 4 else enum_results[d]
    assert [forms[k].bytes for k in sorted(forms)] == [f.bytes for f in want.classes]
    assert 0 < spanning <= seeds


def test_refusals_come_before_the_u5_build(monkeypatch):
    def refuse(d):
        raise AssertionError("a refused run built U_d")

    for name in ("_seed_context", "_point_tables", "_orbit_tables"):
        monkeypatch.setattr(enumeration, name, refuse)
    for d, error, message in ((0, DimensionMismatch, "dimension must be at least 1, got 0"),
                              (6, DimensionTooLarge, "enumeration is limited to d <= 5")):
        with pytest.raises(error) as info:
            enumerate_maximal(d)
        assert str(info.value) == message


def test_d5_fixture_holds_the_422_classes(d5_classes):
    """tests/data/classes_d5.txt is the output of `tlc --store S enum --dim 5`
    (about 40 s): the 422 files of S/md/5 sorted by content and concatenated,

        python -c "import pathlib, sys; sys.stdout.buffer.write(b''.join(sorted(
            p.read_bytes() for p in pathlib.Path('S/md/5').glob('*.mat'))))" > tests/data/classes_d5.txt
    """
    assert len(d5_classes) == len(set(d5_classes)) == 422
    assert hashlib.sha256(b"".join(d5_classes)).hexdigest().startswith("898829c95772")
    forms = []
    for form in d5_classes:
        m = parse_matrix(form.decode())
        forms.append(canon.canonical_form(m))
        assert forms[-1].bytes == form
        assert rank(m.row_tuples()) == 5 and is_maximal_in_md(m)
    assert transpose_identified_count(forms) == 213


def test_every_class_is_maximal(enum_results):
    for d, res in enum_results.items():
        for f in res.classes:
            m = parse_matrix(f.bytes.decode())
            assert m.distinct_lines()
            assert is_maximal_in_md(m)


def test_classes_closed_under_transposition(enum_results):
    for d, res in enum_results.items():
        byte_set = {f.bytes for f in res.classes}
        for f in res.classes:
            m = parse_matrix(f.bytes.decode())
            assert canon.canonical_form(m.transpose()).bytes in byte_set


def test_polytope_classes_appear(enum_results):
    lib = examples_library()
    by_dim = {2: ["segment"], 3: ["cube2", "simplex2", "cross2"]}
    for d, names in by_dim.items():
        byte_set = {f.bytes for f in enum_results[d].classes}
        for name in names:
            cfg = geometry.polytope_completion(lib[name])
            f = canon.canonical_form(slack_matrix(cfg).matrix)
            assert f.bytes in byte_set, name


def test_polytope_classes_appear_d4(enum_d4):
    lib = examples_library()
    byte_set = {f.bytes for f in enum_d4.classes}
    assert len(enum_d4.classes) == CLASS_COUNTS[4]
    for name in ("cube3", "simplex3"):
        cfg = geometry.polytope_completion(lib[name])
        f = canon.canonical_form(slack_matrix(cfg).matrix)
        assert f.bytes in byte_set, name


def test_d4_class_set_pinned(enum_d4):
    # the fixture passes jobs=4, which has no effect: the scan is serial
    assert enum_d4.stats.seeds_total == 64839 and enum_d4.stats.seeds_spanning == 62924
    digest = hashlib.sha256(b"".join(sorted(f.bytes for f in enum_d4.classes))).hexdigest()
    assert digest == D4_CLASS_SET_SHA256


def test_enumeration_starts_no_process_pool(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerate_maximal started a process pool")

    monkeypatch.setattr(multiprocessing.pool, "Pool", refuse)
    with pytest.raises(AssertionError):
        multiprocessing.Pool(2)
    res = enumerate_maximal(4, jobs=4)
    assert res.stats == enumeration.EnumStats(64839, 62924, 62924, 0, 31)
    digest = hashlib.sha256(b"".join(sorted(f.bytes for f in res.classes))).hexdigest()
    assert digest == D4_CLASS_SET_SHA256


def test_oracle_maximal_d1():
    forms = oracle_maximal(1)
    assert len(forms) == 1
    assert forms[0].bytes == b"2 2\n00\n01\n"


def test_oracle_agreement_d2(enum_results):
    forms = oracle_maximal(2)
    assert {f.bytes for f in forms} == {f.bytes for f in enum_results[2].classes}


def test_oracle_limits():
    with pytest.raises(DimensionTooLarge):
        oracle_maximal(3)


def test_oracle_is_maximal_examples():
    assert oracle_is_maximal(matrix_from_rows([[0, 0], [0, 1]]))
    assert not oracle_is_maximal(matrix_from_rows([[1]]))
    assert not oracle_is_maximal(matrix_from_rows([[0]]))
    assert oracle_is_maximal(matrix_from_rows([[0, 0, 0], [0, 1, 0], [0, 0, 1], [0, 1, 1]]))


def test_oracle_agrees_with_closure_test_sampled():
    rng = random.Random(23)
    for _ in range(400):
        r = rng.randint(1, 4)
        c = rng.randint(1, 4)
        m = BinaryMatrix(r, c, tuple(rng.randint(0, 1) for _ in range(r * c)))
        assert oracle_is_maximal(m) == is_maximal_in_md(m)


def test_report_deterministic(enum_results):
    text1 = report({d: res.classes for d, res in enum_results.items()})
    text2 = report({d: res.classes[::-1] for d, res in reversed(list(enum_results.items()))})
    assert text1 == text2
    assert "1 | 1 | 1" in text1
    assert "2 | 2 | 1" in text1
    assert "sampled" not in text1


def test_report_rows_for_dimension_5(enum_results, d5_classes):
    exact = {d: res.classes for d, res in enum_results.items()}
    forms = [canon.canonical_form(parse_matrix(form.decode())) for form in d5_classes]
    text = report({**exact, 5: forms})
    assert text.startswith(report(exact))
    rows = text.splitlines()[len(report(exact).splitlines()):]
    assert len(rows) == 1 and rows[0].startswith("5 | 422 | 213 | ")


def test_stats_fields(enum_results):
    st = enum_results[2].stats
    assert st.seeds_total == sum(1 for m in range(16) if bin(m).count("1") >= 2)
    assert 0 < st.classes <= st.completions
