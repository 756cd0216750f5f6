import pytest

from tlc import enumeration, stabset


@pytest.fixture(scope="session")
def enum_results():
    """Full enumerations for d = 1..3, shared across test modules."""
    return {d: enumeration.enumerate_maximal(d) for d in (1, 2, 3)}


@pytest.fixture(scope="session")
def enum_d4():
    """Full d = 4 enumeration; expensive, computed once per session."""
    return enumeration.enumerate_maximal(4, jobs=4)


@pytest.fixture(scope="session")
def census_n7():
    """The n = 7 stable-set census (2^21 labelled graphs); computed once per
    session."""
    return stabset.census(7, jobs=4)
