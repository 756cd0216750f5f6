import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import golden  # noqa: E402


@pytest.fixture(scope="session")
def gold():
    return golden.load()
