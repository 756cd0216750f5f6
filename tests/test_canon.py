import random
import time
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlc import canon, stabset
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


def test_node_counts_of_the_golden_classes(enum_results, enum_d4, monkeypatch):
    # the node count decides what the budget refuses, so it is pinned: the 40
    # classes of d = 1..4 and their transposes take 1,148 nodes, 29 at most
    counts = []
    run = canon._Search.run

    def counting_run(search):
        best = run(search)
        counts.append(search.nodes)
        return best

    monkeypatch.setattr(canon._Search, "run", counting_run)
    mats = [parse_matrix(f.bytes.decode()) for res in (*enum_results.values(), enum_d4) for f in res.classes]
    for m in mats + [m.transpose() for m in mats]:
        canonical_form(m)
    assert (len(counts), sum(counts), max(counts)) == (80, 1148, 29)


def test_node_budget_raises_dimension_too_large(monkeypatch):
    m = BinaryMatrix.from_rows([[int(j == i % 5) for j in range(5)] for i in range(30)])
    monkeypatch.setattr(canon, "_NODE_LIMIT", 10)
    with pytest.raises(DimensionTooLarge):
        canonical_form(m)
