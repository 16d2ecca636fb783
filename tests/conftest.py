import pytest

from adiasearch.model import SearchInstance

EPS_REF = 1 / 11


@pytest.fixture(scope="session")
def inst4():
    return SearchInstance(4)


@pytest.fixture(scope="session")
def inst20():
    return SearchInstance(20)
