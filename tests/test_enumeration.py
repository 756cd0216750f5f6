import functools
import hashlib
import itertools
import math
import operator
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from tlc import canon, enumeration, geometry
from tlc.configuration import (
    BinaryMatrix,
    _scaled,
    _slack_bits,
    closure,
    is_maximal_in_md,
    parse_matrix,
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
from tlc.linalg import rank

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
    with pytest.raises(DimensionTooLarge):
        enumerate_maximal(5)  # needs an explicit sampled budget
    with pytest.raises(DimensionTooLarge):
        enumerate_maximal(5, seed_limit=enumeration._SAMPLED_SEED_LIMIT + 1)
    with pytest.raises(DimensionTooLarge):
        enumerate_maximal(5, seed_limit=0)
    with pytest.raises(DimensionMismatch):
        enumerate_maximal(4, seed_limit=10)


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


def test_seed_context_sizes():
    for d, size, hyperplanes in ((1, 2, 1), (2, 6, 3), (3, 36, 9), (4, 580, 45)):
        u, closed, missed, ones = enumeration._seed_context(d)
        assert len(u) == size and len(closed) == len(missed) == len(ones) == 1 << d
        # integer rows (q, q y) in lowest terms, no Fraction
        assert all(type(x) is int for row in u for x in row)
        assert all(q > 0 and len(y) == d and math.gcd(q, *y) == 1 for q, *y in u)
        assert functools.reduce(operator.or_, missed).bit_count() == hyperplanes
        # the zero point has product 0 with every y and lies on every hyperplane
        assert closed[0] == (1 << size) - 1 and missed[0] == 0 and ones[0] == 0


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_seed_context_masks_are_exact_products(d):
    _, closed, _, ones = enumeration._seed_context(d)
    u = _decoded_u(d)
    for j, x in enumerate(all_points(d)):
        products = [sum(a * b for a, b in zip(y, x)) for y in u]
        assert ones[j] == sum(1 << i for i, p in enumerate(products) if p == 1), j
        assert closed[j] == sum(1 << i for i, p in enumerate(products) if p in (0, 1)), j


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
        assert enumeration._mask_slack(d, key) == want


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
        want = canon.canonical_form(enumeration._mask_slack(d, key))
        assert enumeration._orbit_form(d, enumeration._orbit_min(d, _intent(d, key))) == want


def test_orbit_min_matches_brute_force():
    masks = {d: range(1 << (1 << d)) for d in (1, 2, 3)}
    rng = random.Random(15)
    masks[4] = {_intent(4, key) for key in _first_closure_keys(4)} | {rng.getrandbits(16) for _ in range(500)}
    for d, group in masks.items():
        for mask in group:
            assert enumeration._orbit_min(d, mask) == _brute_orbit_min(d, mask), (d, mask)


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


def test_small_scan_runs_on_masks_only(monkeypatch, enum_results, enum_d4):
    def refuse(*args, **kwargs):
        raise AssertionError("the d <= 4 scan left the U_d masks")

    for name in ("closure", "rank", "slack_bits"):
        monkeypatch.setattr(enumeration, name, refuse)
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
    assert _cache_sizes_after_import("_orbit_tables", "_orbit_form") == "0 0\n"


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


def test_enumerate_d5_sampled_runs():
    res = enumerate_maximal(5, seed_limit=40)
    assert res.stats.seeds_total == 40
    for f in res.classes:
        assert is_maximal_in_md(parse_matrix(f.bytes.decode()))


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
    lib = geometry.examples_library()
    by_dim = {2: ["segment"], 3: ["cube2", "simplex2", "cross2"]}
    for d, names in by_dim.items():
        byte_set = {f.bytes for f in enum_results[d].classes}
        for name in names:
            cfg = geometry.polytope_completion(lib[name])
            f = canon.canonical_form(slack_matrix(cfg).matrix)
            assert f.bytes in byte_set, name


def test_polytope_classes_appear_d4(enum_d4):
    lib = geometry.examples_library()
    byte_set = {f.bytes for f in enum_d4.classes}
    assert len(enum_d4.classes) == CLASS_COUNTS[4]
    for name in ("cube3", "simplex3"):
        cfg = geometry.polytope_completion(lib[name])
        f = canon.canonical_form(slack_matrix(cfg).matrix)
        assert f.bytes in byte_set, name


def test_d4_class_set_pinned(enum_d4):
    # the fixture runs with jobs=4, so on a multi-core machine the scan is
    # split across a process pool
    assert enum_d4.stats.seeds_total == 64839 and enum_d4.stats.seeds_spanning == 62924
    digest = hashlib.sha256(b"".join(sorted(f.bytes for f in enum_d4.classes))).hexdigest()
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
    assert oracle_is_maximal(BinaryMatrix.from_rows([[0, 0], [0, 1]]))
    assert not oracle_is_maximal(BinaryMatrix.from_rows([[1]]))
    assert not oracle_is_maximal(BinaryMatrix.from_rows([[0]]))
    assert oracle_is_maximal(BinaryMatrix.from_rows([[0, 0, 0], [0, 1, 0], [0, 0, 1], [0, 1, 1]]))


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


def test_report_marks_sampled_dimension_5(enum_results):
    exact = {d: res.classes for d, res in enum_results.items()}
    sampled = enumerate_maximal(5, seed_limit=50).classes
    text = report({**exact, 5: sampled})
    assert text.startswith(report(exact))
    rows = text.splitlines()[len(report(exact).splitlines()):]
    assert rows[0].startswith(f"5 | {len(sampled)} | ")
    assert rows[1:] == ["d = 5 comes from a sampled --seed-limit run: its counts are lower bounds"]


def test_stats_fields(enum_results):
    st = enum_results[2].stats
    assert st.seeds_total == sum(1 for m in range(16) if bin(m).count("1") >= 2)
    assert 0 < st.classes <= st.completions
