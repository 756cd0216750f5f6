"""The canonical form search against the earlier recursive search.

`reference_min_rows` is the earlier canon: a recursive depth-first search
over row orders that renders each candidate row as bytes under a partition
of the columns into lists, with no automorphism pruning and no shortcut at
discrete column partitions.  It is kept here as the oracle for `tlc.canon`,
which searches on int bitmasks with an explicit stack and skips branches
related by the automorphisms it finds.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from tlc import canon, configuration, stabset
from tlc.configuration import BinaryMatrix, parse_matrix
from tlc.errors import NotBipartite


def canonical_form(m):
    """tlc's canonical form of m found by a search of its own: the memo is
    emptied first, so the search, not the memo, meets the reference."""
    configuration._MEMO.clear()
    return canon.canonical_form(m)


def _render(row, partition):
    parts = []
    for g in partition:
        ones = 0
        for c in g:
            ones += row[c]
        parts.append(b"0" * (len(g) - ones) + b"1" * ones)
    return b"".join(parts)


def _refine(row, partition):
    new = []
    for g in partition:
        zeros = [c for c in g if not row[c]]
        ones = [c for c in g if row[c]]
        if zeros:
            new.append(zeros)
        if ones:
            new.append(ones)
    return new


def reference_min_rows(rows: list[tuple[int, ...]], ncols: int) -> list[bytes]:
    m = len(rows)
    best: list = [None] * m  # rendered rows; None compares as +infinity
    used = [False] * m
    stack_rendered: list[bytes] = []

    def dfs(depth: int, partition):
        if depth == m:
            for t in range(m):
                best[t] = stack_rendered[t]
            return
        cands = []
        for i in range(m):
            if not used[i]:
                cands.append((_render(rows[i], partition), i))
        cands.sort()
        for rendered, i in cands:
            cur_best = best[depth]
            if cur_best is not None and rendered > cur_best:
                break  # candidates are sorted; the rest are worse
            if cur_best is not None and rendered < cur_best:
                for t in range(depth, m):
                    best[t] = None
            used[i] = True
            stack_rendered.append(rendered)
            dfs(depth + 1, _refine(rows[i], partition))
            stack_rendered.pop()
            used[i] = False

    dfs(0, [list(range(ncols))] if ncols else [])
    return best


def reference_bytes(m: BinaryMatrix) -> bytes:
    if m.rows == 0 or m.cols == 0:
        return m.to_text().encode("ascii")
    rendered = reference_min_rows(m.row_tuples(), m.cols)
    return f"{m.rows} {m.cols}\n".encode("ascii") + b"".join(r + b"\n" for r in rendered)


def _shuffled(m: BinaryMatrix, rng: random.Random) -> BinaryMatrix:
    rows = m.row_tuples()
    rng.shuffle(rows)
    cp = list(range(m.cols))
    rng.shuffle(cp)
    return BinaryMatrix.from_rows([[r[c] for c in cp] for r in rows])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_matches_reference_on_small_matrices(data):
    rows = data.draw(st.integers(0, 7))
    cols = data.draw(st.integers(0, 7))
    bits = tuple(data.draw(st.lists(st.integers(0, 1), min_size=rows * cols, max_size=rows * cols)))
    m = BinaryMatrix(rows, cols, bits)
    assert canonical_form(m).bytes == reference_bytes(m)


def test_matches_reference_on_permuted_classes(enum_results, enum_d4):
    rng = random.Random(6)
    results = [enum_results[d] for d in (1, 2, 3)] + [enum_d4]
    classes = [parse_matrix(f.bytes.decode()) for res in results for f in res.classes]
    assert len(classes) == 40
    for m in classes:
        want = reference_bytes(m)
        assert canonical_form(m).bytes == want
        for _ in range(5):
            assert canonical_form(_shuffled(m, rng)).bytes == want


def test_matches_reference_on_stable_set_slack_matrices():
    checked = 0
    for n in range(1, 6):
        for mask in range(1 << (n * (n - 1) // 2)):
            try:
                g = stabset.graph_from_mask(n, mask)
            except NotBipartite:
                continue
            m = stabset.stab_maximal_slack(g).matrix
            assert canonical_form(m).bytes == reference_bytes(m)
            checked += 1
    assert checked == 1 + 2 + 7 + 41 + 376
