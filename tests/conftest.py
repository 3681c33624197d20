import pytest

from condbound import BellSequence
from condbound.combinat import _stirling_rows


@pytest.fixture(scope="session")
def table64() -> list[list[int]]:
    return list(_stirling_rows(64))


@pytest.fixture(scope="session")
def bells16() -> BellSequence:
    return BellSequence.stream(16)


@pytest.fixture(scope="session")
def bells64() -> BellSequence:
    return BellSequence.stream(64)


@pytest.fixture(scope="session")
def bells1024() -> BellSequence:
    return BellSequence.stream(1024)
