"""BinaryMatrix keeps its bits as one bytes object: its lines, transpose and
text against the earlier per-bit implementations, kept here as oracles,
and the one constructor's conversion, checks and refusals."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tlc import canon, configuration, enumeration, geometry, stabset
from tlc.configuration import BinaryMatrix, from_slack_matrix, parse_matrix, slack_matrix
from tlc.errors import DimensionMismatch, ParseError

from helpers import examples_library, matrix_from_rows


# --- the earlier per-bit implementations, on the bits as a tuple of ints ---


def _old_row_bits(m, i):
    bits = tuple(m.bits)
    return bits[i * m.cols:(i + 1) * m.cols]


def _old_col_bits(m, j):
    bits = tuple(m.bits)
    return tuple(bits[i * m.cols + j] for i in range(m.rows))


def _old_row_tuples(m):
    return [_old_row_bits(m, i) for i in range(m.rows)]


def _old_col_tuples(m):
    return [_old_col_bits(m, j) for j in range(m.cols)]


def _old_transpose(m):
    """(rows, cols, bits) of the transpose, as from_rows built it."""
    cols = _old_col_tuples(m)
    if not m.rows * m.cols:
        return m.cols, m.rows, ()
    return len(cols), len(cols[0]), tuple(x for c in cols for x in c)


def _old_distinct_lines(m):
    rows, cols = _old_row_tuples(m), _old_col_tuples(m)
    return len(set(rows)) == len(rows) and len(set(cols)) == len(cols)


def _old_to_text(m):
    lines = [f"{m.rows} {m.cols}"]
    lines.extend("".join(str(b) for b in _old_row_bits(m, i)) for i in range(m.rows))
    return "\n".join(lines) + "\n"


def _old_parse_matrix(text):
    """The earlier parser, one character at a time: (rows, cols, bits)."""
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty input", line=1)
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError("header must be 'm n'", line=1)
    try:
        m, n = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError("header must be two integers", line=1) from None
    if m < 0 or n < 0:
        raise ParseError("negative shape", line=1)
    bits = []
    for i in range(m):
        if 1 + i >= len(lines):
            raise ParseError(f"expected {m} bit rows, found {i}", line=len(lines))
        row = lines[1 + i].rstrip()
        if len(row) != n:
            raise ParseError(f"expected {n} characters", line=2 + i, column=len(row) + 1)
        for j, ch in enumerate(row):
            if ch not in "01":
                raise ParseError(f"invalid character {ch!r}", line=2 + i, column=j + 1)
            bits.append(int(ch))
    configuration.refuse_trailing(lines, 1 + m, "matrix")
    return m, n, tuple(bits)


@st.composite
def _matrices(draw):
    rows = draw(st.integers(0, 6))
    cols = draw(st.integers(0, 6))
    bits = draw(st.lists(st.integers(0, 1), min_size=rows * cols, max_size=rows * cols))
    return BinaryMatrix(rows, cols, bits)


@settings(max_examples=300, deadline=None)
@given(_matrices())
@example(BinaryMatrix(0, 0, ()))
@example(BinaryMatrix(0, 3, ()))
@example(BinaryMatrix(4, 0, ()))
def test_lines_transpose_and_text_match_the_per_bit_oracles(m):
    assert isinstance(m.bits, bytes)
    assert m.row_tuples() == _old_row_tuples(m)
    assert m.col_tuples() == _old_col_tuples(m)
    t = m.transpose()
    assert isinstance(t.bits, bytes)
    assert (t.rows, t.cols, tuple(t.bits)) == _old_transpose(m)
    assert t.transpose() == m
    assert m.distinct_lines() == _old_distinct_lines(m)
    assert m.to_text() == _old_to_text(m)
    assert parse_matrix(m.to_text()) == m


def _outcome(call, text):
    try:
        return call(text)
    except ParseError as e:
        return type(e), str(e), e.line, e.column


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(alphabet="01 2x\t", max_size=5), min_size=0, max_size=5), st.integers(0, 4), st.integers(0, 4))
def test_parse_matrix_matches_the_per_character_parser(rows, m, n):
    for text in ("\n".join([f"{m} {n}", *rows]), "\n".join([f"{m} {n}", *rows]) + "\n"):
        got, want = _outcome(parse_matrix, text), _outcome(_old_parse_matrix, text)
        if isinstance(got, BinaryMatrix):
            assert isinstance(got.bits, bytes)
            got = (got.rows, got.cols, tuple(got.bits))
        assert got == want, text


def test_parse_matrix_names_the_first_bad_character():
    text = "3 4\n0101\n01a1\n01b1\n"
    with pytest.raises(ParseError) as info:
        parse_matrix(text)
    assert (str(info.value), info.value.line, info.value.column) == ("invalid character 'a' (line 3, column 3)", 3, 3)


def test_tuple_list_bytes_and_other_iterables_build_one_matrix():
    rng = random.Random(31)
    for _ in range(50):
        rows, cols = rng.randint(0, 5), rng.randint(0, 5)
        bits = [rng.randint(0, 1) for _ in range(rows * cols)]
        built = [BinaryMatrix(rows, cols, tuple(bits)), BinaryMatrix(rows, cols, bits),
                 BinaryMatrix(rows, cols, bytes(bits)), BinaryMatrix(rows, cols, iter(bits)),
                 BinaryMatrix(rows, cols, [bool(b) for b in bits]),
                 BinaryMatrix(rows, cols, [Fraction(b) for b in bits]),
                 BinaryMatrix(rows, cols, [float(b) for b in bits])]
        assert all(type(m.bits) is bytes for m in built)
        assert len(set(built)) == 1
        assert len({hash(m) for m in built}) == 1


def test_constructor_refuses_in_order_on_both_paths():
    cases = [
        ((-1, 2, ()), DimensionMismatch, "negative shape"),
        ((-1, 2, (1.5,)), DimensionMismatch, "negative shape"),
        ((1, 2, (0,)), DimensionMismatch, "1x2 matrix needs 2 bits, got 1"),
        ((1, 2, (1.5,)), DimensionMismatch, "1x2 matrix needs 2 bits, got 1"),
        ((1, 2, b"\x02"), DimensionMismatch, "1x2 matrix needs 2 bits, got 1"),
        ((1, 1, (2,)), ValueError, "entries must be 0 or 1"),
        ((1, 1, b"\x02"), ValueError, "entries must be 0 or 1"),
        ((1, 2, b"01"), ValueError, "entries must be 0 or 1"),
        ((1, 1, (256,)), ValueError, "entries must be 0 or 1"),
        ((1, 1, (-1,)), ValueError, "entries must be 0 or 1"),
        ((1, 2, (1, 1.5)), ValueError, "entries must be 0 or 1"),
        ((1, 1, ("1",)), ValueError, "entries must be 0 or 1"),
        ((1, 1, (None,)), ValueError, "entries must be 0 or 1"),
        ((1, 1, (2.0,)), ValueError, "entries must be 0 or 1"),
    ]
    for args, error, message in cases:
        with pytest.raises(error) as info:
            BinaryMatrix(*args)
        assert (type(info.value), str(info.value)) == (error, message), args


def _completions():
    return [geometry.polytope_completion(v) for v in examples_library().values()]


def test_every_built_matrix_keeps_bytes():
    g = stabset.BipartiteGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    m = parse_matrix("3 2\n01\n10\n11\n")
    cfg = from_slack_matrix(m)
    closed = enumeration._seed_context(3)[1]
    key = closed[5]
    built = [
        m, matrix_from_rows([[0, 1], [1, 1]]), m.transpose(), slack_matrix(cfg).matrix,
        enumeration._mask_slack(3, key, sum(1 << j for j, c in enumerate(closed) if key & ~c == 0)),
        stabset.stab_basic_slack(g).matrix, stabset.stab_maximal_slack(g).matrix,
        *(slack_matrix(c).matrix for c in _completions()),
    ]
    assert all(type(x.bits) is bytes for x in built)


def test_a_configuration_keeps_one_slack_matrix_and_keys_it_once(monkeypatch):
    calls = []
    key = configuration._memo_key
    monkeypatch.setattr(configuration, "_memo_key", lambda *args: calls.append(args) or key(*args))
    for cfg in _completions() + [configuration.Configuration(cfg.d, cfg.A, cfg.B) for cfg in _completions()]:
        first = slack_matrix(cfg).matrix
        assert slack_matrix(cfg).matrix is first
        calls.clear()
        cfg.is_maximal()
        form = canon.canonical_form(slack_matrix(cfg).matrix)
        assert canon.canonical_form(slack_matrix(cfg).matrix) is form
        assert len(calls) == 1
