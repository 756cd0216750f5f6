import functools
import operator
import random
import time
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlc import canon, configuration, enumeration, stabset
from tlc.canon import canonical_form, equivalent
from tlc.configuration import BinaryMatrix, is_maximal_in_md, parse_matrix
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
    configuration._MEMO.clear()
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
    rows, cols, key = m._key
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
    configuration._MEMO.clear()
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
    monkeypatch.setattr(configuration, "_MEMO", configuration._Memo())
    monkeypatch.setattr(configuration, "_MEMO_CELLS", 120)
    monkeypatch.setattr(configuration, "_MEMO_ENTRIES", 6)
    memo = configuration._MEMO
    rng = random.Random(33)
    mats = []
    for _ in range(80):
        rows, cols = rng.randint(1, 12), rng.randint(1, 12)
        mats.append(BinaryMatrix(rows, cols, tuple(rng.randint(0, 1) for _ in range(rows * cols))))
    got = []
    for m in mats + mats[::-1]:
        got.append(canonical_form(m))
        assert memo.cells == sum(len(key[2]) for key in memo.entries) <= 120
        assert len(memo.entries) <= 6
    assert len(searches) > 80
    assert got == got[:80] + got[:80][::-1]
    # a matrix of more cells than the cap is answered and never stored
    big = BinaryMatrix(11, 11, tuple(rng.randint(0, 1) for _ in range(121)))
    before = (dict(memo.entries), len(searches))
    assert canonical_form(big) == canonical_form(big)
    assert (dict(memo.entries), len(searches)) == (before[0], before[1] + 2)
    with monkeypatch.context() as patch:
        patch.setattr(configuration, "_MEMO", configuration._Memo())
        for m, form in zip(mats, got):
            assert _fresh(m) == form


def test_refused_search_stores_nothing(monkeypatch, searches):
    monkeypatch.setattr(configuration, "_MEMO", configuration._Memo())
    small = BinaryMatrix.from_rows([[0, 1], [1, 1]])
    canonical_form(small)
    before = (dict(configuration._MEMO.entries), configuration._MEMO.cells)
    m = BinaryMatrix.from_rows([[int(j == i % 5) for j in range(5)] for i in range(30)])
    with monkeypatch.context() as patch:
        patch.setattr(canon, "_NODE_LIMIT", 10)
        for _ in range(2):
            with pytest.raises(DimensionTooLarge):
                canonical_form(m)
        assert (dict(configuration._MEMO.entries), configuration._MEMO.cells) == before
    # under the real budget the same input is searched, then remembered
    count = len(searches)
    form = canonical_form(m)
    assert len(searches) == count + 1
    assert canonical_form(_permute(m, list(range(30))[::-1], [4, 3, 2, 1, 0])) == form
    assert len(searches) == count + 1


# --- rank and maximality from the same memo ------------------------------------


def _fresh_rank(m):
    """rank_and_maximality of m computed anew: the memo emptied first."""
    configuration._MEMO.clear()
    return configuration.rank_and_maximality(m)


@pytest.fixture
def eliminations(monkeypatch):
    """The matrices rank_and_maximality computed for during the test."""
    seen = []
    compute = configuration._rank_and_maximality
    monkeypatch.setattr(configuration, "_rank_and_maximality", lambda m: seen.append(m) or compute(m))
    return seen


def _with_repeats(m, rng):
    """m with a repeated row, a repeated column, or both."""
    rows = m.row_tuples()
    rows.append(rows[rng.randrange(m.rows)])
    out = BinaryMatrix.from_rows(rows)
    if rng.getrandbits(1):
        out = _without(out.transpose(), row=None).transpose()
        cols = out.col_tuples()
        cols.append(cols[rng.randrange(out.cols)])
        out = BinaryMatrix.from_rows(cols).transpose()
    return _shuffled(out, rng)


def test_memo_rank_and_maximality_equal_fresh_ones(enum_results, enum_d4, eliminations):
    rng = random.Random(30)
    inputs = []
    for m in _golden_matrices(enum_results, enum_d4):
        inputs += [m] + [_shuffled(m, rng) for _ in range(3)]
        inputs += [_shuffled(_without(m, row=rng.randrange(m.rows)), rng) for _ in range(2)]
        inputs += [_shuffled(_without(m, col=rng.randrange(m.cols)), rng) for _ in range(2)]
        inputs += [_with_repeats(m, rng) for _ in range(2)]
    inputs += _census_incidences()
    configuration._MEMO.clear()
    got = [configuration.rank_and_maximality(m) for m in inputs]
    # the memo answered most of them
    assert len(eliminations) < len(inputs) // 2
    assert sum(maximal for _, maximal in got) > 80
    assert any(d and not maximal for d, maximal in got)
    for m, answer in zip(inputs, got):
        assert _fresh_rank(m) == configuration._rank_and_maximality(m) == answer


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_memo_rank_and_maximality_on_random_matrices(data):
    rows = data.draw(st.integers(1, 7))
    cols = data.draw(st.integers(1, 7))
    m = BinaryMatrix(rows, cols, tuple(data.draw(st.lists(st.integers(0, 1), min_size=rows * cols, max_size=rows * cols))))
    twin = _permute(m, data.draw(st.permutations(range(rows))), data.draw(st.permutations(range(cols))))
    # the memo is shared across examples, so earlier examples can answer these
    got = [is_maximal_in_md(twin), configuration.rank_and_maximality(m), configuration.rank_and_maximality(twin),
           configuration.rank_and_maximality(m.transpose())]
    assert got[1:] == [_fresh_rank(m), _fresh_rank(twin), _fresh_rank(m.transpose())]
    assert got[0] == got[1][1] and got[1] == got[2]


def test_maximality_then_canon_keys_the_matrix_once(monkeypatch, searches, eliminations):
    keys = []
    memo_key = configuration._memo_key
    monkeypatch.setattr(configuration, "_memo_key", lambda *args: keys.append(args) or memo_key(*args))
    configuration._MEMO.clear()
    m = BinaryMatrix.from_rows([[0, 0, 1], [0, 1, 1], [1, 0, 1], [1, 1, 1]])
    maximal = is_maximal_in_md(m)
    form = canonical_form(m)
    assert (len(keys), len(eliminations), len(searches)) == (1, 1, 1)
    # a permuted copy is keyed once and answered from the memo
    twin = _permute(m, [3, 1, 0, 2], [2, 0, 1])
    assert canonical_form(twin) == form and is_maximal_in_md(twin) == maximal
    assert (len(keys), len(eliminations), len(searches)) == (2, 1, 1)


def test_refused_maximality_stores_nothing(monkeypatch, eliminations):
    monkeypatch.setattr(configuration, "_MEMO", configuration._Memo())
    memo = configuration._MEMO
    configuration.rank_and_maximality(BinaryMatrix.from_rows([[0, 1], [1, 1]]))
    before = ({k: list(v) for k, v in memo.entries.items()}, memo.cells)
    # distinct lines of rank 17: refused, on every call
    m = BinaryMatrix.from_rows([[int(i == j) for j in range(17)] for i in range(17)])
    for _ in range(2):
        with pytest.raises(DimensionTooLarge):
            is_maximal_in_md(m)
    assert ({k: list(v) for k, v in memo.entries.items()}, memo.cells) == before
    # its canonical form is stored, and the refusal still comes after it
    form = canonical_form(m)
    with pytest.raises(DimensionTooLarge):
        configuration.rank_and_maximality(_permute(m, list(range(17))[::-1], list(range(17))))
    assert memo.entries[m._key] == [form, None]
    assert len(eliminations) == 4


def test_an_entry_with_both_answers_counts_its_cells_once(monkeypatch, searches, eliminations):
    monkeypatch.setattr(configuration, "_MEMO", configuration._Memo())
    monkeypatch.setattr(configuration, "_MEMO_CELLS", 24)
    memo = configuration._MEMO
    a = BinaryMatrix.from_rows([[0, 0, 1], [0, 1, 1], [1, 0, 1], [1, 1, 1]])
    b = BinaryMatrix.from_rows([[0, 0, 1, 1], [0, 1, 0, 1], [1, 1, 1, 0]])
    answers = []
    for m in (a, b):
        answers.append((configuration.rank_and_maximality(m), canonical_form(m)))
        assert memo.cells == sum(len(key[2]) for key in memo.entries) <= 24
    # both matrices fill the cap exactly and hold both answers each
    assert memo.cells == 24 and list(memo.entries.values()) == [[f, r] for r, f in answers]
    for m, (rank_max, form) in zip((b, a), answers[::-1]):
        assert (configuration.rank_and_maximality(m), canonical_form(m)) == (rank_max, form)
    assert (len(eliminations), len(searches)) == (2, 2)
    # a third matrix evicts the least recently used entry, now b
    c = BinaryMatrix.from_rows([[0, 1], [1, 1]])
    configuration.rank_and_maximality(c)
    assert list(memo.entries) == [a._key, c._key] and memo.cells == 16
