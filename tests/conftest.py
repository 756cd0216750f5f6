from pathlib import Path

import pytest

from tlc import enumeration, stabset


@pytest.fixture(scope="session")
def enum_results():
    """Full enumerations for d = 1..3, shared across test modules."""
    return {d: enumeration.enumerate_maximal(d) for d in (1, 2, 3)}


@pytest.fixture(scope="session")
def enum_d4():
    """Full d = 4 enumeration; expensive, computed once per session.  It
    passes jobs=4, which enumerate_maximal accepts and ignores."""
    return enumeration.enumerate_maximal(4, jobs=4)


@pytest.fixture(scope="session")
def census_n7():
    """The n = 7 stable-set census (103,237 labelled bipartite graphs);
    computed once per session."""
    return stabset.census(7)


@pytest.fixture(scope="session")
def d5_classes():
    """The canonical bytes of the 422 classes of d = 5 in byte order, read
    from tests/data/classes_d5.txt (test_enumeration's fixture test says
    how to regenerate it)."""
    lines = (Path(__file__).parent / "data" / "classes_d5.txt").read_bytes().splitlines(keepends=True)
    forms, i = [], 0
    while i < len(lines):
        rows = int(lines[i].split()[0])
        forms.append(b"".join(lines[i:i + rows + 1]))
        i += rows + 1
    return forms
