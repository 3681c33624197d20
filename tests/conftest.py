import tracemalloc

import pytest

from condbound import BellSequence
from condbound.combinat import _stirling_rows


def traced_peak(call):
    """(call(), the peak in bytes that tracemalloc saw while it ran)."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def table64() -> list[list[int]]:
    return list(_stirling_rows(64))


def _built_to(q: int) -> BellSequence:
    bells = BellSequence()
    bells.bell(q)
    return bells


@pytest.fixture(scope="session")
def bells16() -> BellSequence:
    return _built_to(16)


@pytest.fixture(scope="session")
def bells64() -> BellSequence:
    return _built_to(64)


@pytest.fixture(scope="session")
def bells1024() -> BellSequence:
    return _built_to(1024)
