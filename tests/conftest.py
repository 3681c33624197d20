import pytest

from condbound import BellSequence, StirlingTable


@pytest.fixture(scope="session")
def table64() -> StirlingTable:
    return StirlingTable.build(64)


@pytest.fixture(scope="session")
def bells16() -> BellSequence:
    return BellSequence.stream(16)


@pytest.fixture(scope="session")
def bells64() -> BellSequence:
    return BellSequence.stream(64)


@pytest.fixture(scope="session")
def bells1024() -> BellSequence:
    return BellSequence.stream(1024)
