import functools
import operator
import random
import time
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlc import canon, enumeration, stabset
from tlc.canon import canonical_form, equivalent
from tlc.configuration import BinaryMatrix, parse_matrix
from tlc.errors import DimensionTooLarge


def _permute(m, row_perm, col_perm):
    rows = m.row_tuples()
    return BinaryMatrix.from_rows(
        [[rows[row_perm[i]][col_perm[j]] for j in range(m.cols)] for i in range(m.rows)]
    )


def _brute_force_equivalent(m1, m2):
    if (m1.rows, m1.cols) != (m2.rows, m2.cols):
        return False
    target = m2.row_tuples()
    for rp in permutations(range(m1.rows)):
        for cp in permutations(range(m1.cols)):
            if _permute(m1, rp, cp).row_tuples() == target:
                return True
    return False


def test_row_reversal_invariant():
    m = BinaryMatrix.from_rows([[0, 1, 1], [1, 0, 0], [1, 1, 0]])
    rev = BinaryMatrix.from_rows(list(reversed(m.row_tuples())))
    assert canonical_form(m) == canonical_form(rev)


def test_transpose_not_identified():
    m = BinaryMatrix.from_rows([[0, 0, 0], [0, 1, 0], [0, 0, 1], [0, 1, 1]])
    assert canonical_form(m).shape != canonical_form(m.transpose()).shape
    assert not equivalent(m, m.transpose())


def test_distinct_forms_for_inequivalent_rows():
    m1 = BinaryMatrix.from_rows([[0, 0, 0], [0, 1, 0], [0, 0, 1], [0, 1, 1]])
    m2 = BinaryMatrix.from_rows([[0, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]])
    assert not _brute_force_equivalent(m1, m2)
    assert canonical_form(m1) != canonical_form(m2)


def test_self_and_column_permutation_equivalent():
    m = BinaryMatrix.from_rows([[0, 1], [1, 1]])
    assert equivalent(m, m)
    assert equivalent(m, _permute(m, (0, 1), (1, 0)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_permutation_invariance(data):
    rows = data.draw(st.integers(1, 6))
    cols = data.draw(st.integers(1, 6))
    bits = tuple(data.draw(st.integers(0, 1)) for _ in range(rows * cols))
    m = BinaryMatrix(rows, cols, bits)
    rp = data.draw(st.permutations(list(range(rows))))
    cp = data.draw(st.permutations(list(range(cols))))
    assert canonical_form(m) == canonical_form(_permute(m, rp, cp))


def test_permutation_invariance_bulk_random():
    rng = random.Random(42)
    for _ in range(1000):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        bits = tuple(rng.randint(0, 1) for _ in range(rows * cols))
        m = BinaryMatrix(rows, cols, bits)
        rp = list(range(rows))
        cp = list(range(cols))
        rng.shuffle(rp)
        rng.shuffle(cp)
        assert canonical_form(m) == canonical_form(_permute(m, rp, cp))


def test_idempotent():
    rng = random.Random(20)
    for _ in range(50):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = BinaryMatrix(rows, cols, tuple(rng.randint(0, 1) for _ in range(rows * cols)))
        f = canonical_form(m)
        assert canonical_form(parse_matrix(f.bytes.decode())) == f


def test_canonical_bytes_parse_back():
    m = BinaryMatrix.from_rows([[1, 0], [0, 1]])
    f = canonical_form(m)
    assert f.shape == (2, 2)
    assert parse_matrix(f.bytes.decode("ascii")) == BinaryMatrix.from_rows([[0, 1], [1, 0]])


def test_canonical_agrees_with_brute_force_minimum():
    rng = random.Random(4)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = BinaryMatrix(rows, cols, tuple(rng.randint(0, 1) for _ in range(rows * cols)))
        smallest = min(
            tuple(x for r in _permute(m, rp, cp).row_tuples() for x in r)
            for rp in permutations(range(rows))
            for cp in permutations(range(cols))
        )
        got = parse_matrix(canonical_form(m).bytes.decode())
        assert got.bits == smallest


def test_class_count_of_2x2_distinct_line_matrices():
    members = []
    for mask in range(16):
        bits = tuple((mask >> i) & 1 for i in range(4))
        m = BinaryMatrix(2, 2, bits)
        if m.distinct_lines():
            members.append(m)
    assert len(members) == 10
    reps = {canonical_form(m) for m in members}
    # brute-force class count oracle
    classes = []
    for m in members:
        if not any(_brute_force_equivalent(m, c) for c in classes):
            classes.append(m)
    assert len(classes) == 3
    assert len(reps) == 3


def test_enumerated_same_shape_classes_brute_force_inequivalent(enum_results):
    # exhaust the column permutations; row freedom reduces to comparing the
    # sorted row multisets
    def brute_equivalent(m1, m2):
        rows2 = sorted(m2.row_tuples())
        for cp in permutations(range(m1.cols)):
            remapped = sorted(tuple(r[cp[j]] for j in range(m1.cols)) for r in m1.row_tuples())
            if remapped == rows2:
                return True
        return False

    mats = [parse_matrix(f.bytes.decode()) for d in (1, 2, 3) for f in enum_results[d].classes]
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            a, b = mats[i], mats[j]
            if (a.rows, a.cols) != (b.rows, b.cols):
                continue
            assert not brute_equivalent(a, b)


def test_six_cube_slack_matrix_is_fast():
    # the 14 x 65 maximal slack matrix of the edgeless 6-node graph has every
    # symmetry of the 6-cube; without orbit pruning it took about a minute
    m = stabset.stab_maximal_slack(stabset.BipartiteGraph.from_edges(6, [])).matrix
    assert (m.rows, m.cols) == (14, 65)
    t0 = time.perf_counter()
    form = canonical_form(m)
    assert time.perf_counter() - t0 < 1.0
    rng = random.Random(6)
    rp = list(range(m.rows))
    cp = list(range(m.cols))
    rng.shuffle(rp)
    rng.shuffle(cp)
    assert canonical_form(_permute(m, rp, cp)) == form


def _fresh(m):
    """canonical_form of m by a search of its own: the memo emptied first."""
    canon._MEMO.clear()
    return canonical_form(m)


@pytest.fixture
def searches(monkeypatch):
    """The node count of every canon search run during the test."""
    counts = []
    run = canon._Search.run

    def counting_run(search):
        best = run(search)
        counts.append(search.nodes)
        return best

    monkeypatch.setattr(canon._Search, "run", counting_run)
    return counts


def _golden_matrices(enum_results, enum_d4):
    """The 40 classes of d = 1..4 and their transposes."""
    mats = [parse_matrix(f.bytes.decode()) for res in (*enum_results.values(), enum_d4) for f in res.classes]
    return mats + [m.transpose() for m in mats]


def test_node_counts_of_the_golden_classes(enum_results, enum_d4, searches):
    # the node count decides what the budget refuses, so it is pinned: the 40
    # classes of d = 1..4 and their transposes take 1,148 nodes, 29 at most
    for m in _golden_matrices(enum_results, enum_d4):
        _fresh(m)
    assert (len(searches), sum(searches), max(searches)) == (80, 1148, 29)


def test_node_budget_raises_dimension_too_large(monkeypatch):
    m = BinaryMatrix.from_rows([[int(j == i % 5) for j in range(5)] for i in range(30)])
    monkeypatch.setattr(canon, "_NODE_LIMIT", 10)
    with pytest.raises(DimensionTooLarge):
        _fresh(m)


def _shuffled(m, rng):
    rp, cp = list(range(m.rows)), list(range(m.cols))
    rng.shuffle(rp)
    rng.shuffle(cp)
    return _permute(m, rp, cp)


def _without(m, row=None, col=None):
    rows = [r for i, r in enumerate(m.row_tuples()) if i != row]
    return BinaryMatrix.from_rows([[x for j, x in enumerate(r) if j != col] for r in rows])


def _key_matrix(m):
    text = bytes(m.bits).translate(canon._ASCII_BITS)
    rows, cols, key = canon._memo_key(text, m.rows, m.cols)
    assert (rows, cols) == (m.rows, m.cols)
    return BinaryMatrix(rows, cols, tuple(ch - 48 for ch in key))


def _census_incidences():
    """The node x edge incidence matrices of the graphs census(n) groups, n <= 6."""
    out = []
    for n in range(1, 7):
        kept = stabset._scan_worker((n, 0, 1 << len(stabset._edge_list(n))))[1]
        for mask in kept:
            g = stabset.graph_from_mask(n, mask)
            out.append(BinaryMatrix.from_rows([[int(v in e) for e in g.edges] for v in range(n)]))
    return out


def _d5_orbit_matrices(count, seed):
    """Slack matrices of sampled d = 5 seeds: each seed's first closure and
    the least image of its intent under the coordinate permutations, the
    two matrices the sampled scan may search for one class."""
    closed, missed = enumeration._seed_context(5)[1:3]
    hyperplanes = functools.reduce(operator.or_, missed)
    rng = random.Random(seed)
    out = []
    while len(out) < 2 * count:
        points = [j for j in range(32) if rng.getrandbits(1)]
        if functools.reduce(operator.or_, (missed[j] for j in points), 0) != hyperplanes:
            continue
        key = functools.reduce(operator.and_, (closed[j] for j in points))
        intent = sum(1 << j for j in range(32) if key & ~closed[j] == 0)
        rep = enumeration._orbit_min(5, intent)
        rep_key = functools.reduce(operator.and_, (closed[j] for j in range(32) if rep >> j & 1))
        out += [enumeration._mask_slack(5, key), enumeration._mask_slack(5, rep_key)]
    return out


def test_memo_answers_equal_fresh_searches(enum_results, enum_d4, searches):
    rng = random.Random(29)
    inputs = []
    for m in _golden_matrices(enum_results, enum_d4):
        inputs += [m] + [_shuffled(m, rng) for _ in range(3)]
        inputs += [_shuffled(_without(m, row=rng.randrange(m.rows)), rng) for _ in range(2)]
        inputs += [_shuffled(_without(m, col=rng.randrange(m.cols)), rng) for _ in range(2)]
    inputs += _census_incidences()
    inputs += _d5_orbit_matrices(60, 5)
    canon._MEMO.clear()
    got = [canonical_form(m) for m in inputs]
    # the memo answered most of them
    assert len(searches) < len(inputs) // 2
    for m, form in zip(inputs, got):
        assert _fresh(m) == form


def test_memo_key_is_a_permutation_of_the_matrix(enum_results, enum_d4):
    rng = random.Random(31)
    mats = _golden_matrices(enum_results, enum_d4)
    mats += [_without(m, row=0) for m in mats] + _census_incidences()[::7] + _d5_orbit_matrices(10, 7)
    for m in mats:
        twin = _shuffled(m, rng)
        assert _fresh(_key_matrix(m)) == _fresh(m) == _fresh(twin) == _fresh(_key_matrix(twin))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_memo_answers_equal_fresh_searches_on_random_matrices(data):
    rows = data.draw(st.integers(1, 7))
    cols = data.draw(st.integers(1, 7))
    m = BinaryMatrix(rows, cols, tuple(data.draw(st.lists(st.integers(0, 1), min_size=rows * cols, max_size=rows * cols))))
    twin = _permute(m, data.draw(st.permutations(range(rows))), data.draw(st.permutations(range(cols))))
    # the memo is shared across examples, so earlier examples can answer these
    got = [canonical_form(m), canonical_form(twin), canonical_form(m.transpose())]
    assert got == [_fresh(m), _fresh(twin), _fresh(m.transpose())]
    assert got[0] == got[1]
    assert _fresh(_key_matrix(m)) == got[0]


def test_memo_cap_holds_and_answers_stay_exact(monkeypatch, searches):
    monkeypatch.setattr(canon, "_MEMO", canon._Memo())
    monkeypatch.setattr(canon, "_MEMO_CELLS", 120)
    monkeypatch.setattr(canon, "_MEMO_ENTRIES", 6)
    memo = canon._MEMO
    rng = random.Random(33)
    mats = []
    for _ in range(80):
        rows, cols = rng.randint(1, 12), rng.randint(1, 12)
        mats.append(BinaryMatrix(rows, cols, tuple(rng.randint(0, 1) for _ in range(rows * cols))))
    got = []
    for m in mats + mats[::-1]:
        got.append(canonical_form(m))
        assert memo.cells == sum(len(key[2]) for key in memo.forms) <= 120
        assert len(memo.forms) <= 6
    assert len(searches) > 80
    assert got == got[:80] + got[:80][::-1]
    # a matrix of more cells than the cap is answered and never stored
    big = BinaryMatrix(11, 11, tuple(rng.randint(0, 1) for _ in range(121)))
    before = (dict(memo.forms), len(searches))
    assert canonical_form(big) == canonical_form(big)
    assert (dict(memo.forms), len(searches)) == (before[0], before[1] + 2)
    with monkeypatch.context() as patch:
        patch.setattr(canon, "_MEMO", canon._Memo())
        for m, form in zip(mats, got):
            assert _fresh(m) == form


def test_refused_search_stores_nothing(monkeypatch, searches):
    monkeypatch.setattr(canon, "_MEMO", canon._Memo())
    small = BinaryMatrix.from_rows([[0, 1], [1, 1]])
    canonical_form(small)
    before = (dict(canon._MEMO.forms), canon._MEMO.cells)
    m = BinaryMatrix.from_rows([[int(j == i % 5) for j in range(5)] for i in range(30)])
    with monkeypatch.context() as patch:
        patch.setattr(canon, "_NODE_LIMIT", 10)
        for _ in range(2):
            with pytest.raises(DimensionTooLarge):
                canonical_form(m)
        assert (dict(canon._MEMO.forms), canon._MEMO.cells) == before
    # under the real budget the same input is searched, then remembered
    count = len(searches)
    form = canonical_form(m)
    assert len(searches) == count + 1
    assert canonical_form(_permute(m, list(range(30))[::-1], [4, 3, 2, 1, 0])) == form
    assert len(searches) == count + 1
