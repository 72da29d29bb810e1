import numpy as np
import pytest

from asymtop import TopParams, caching


@pytest.fixture
def p321() -> TopParams:
    return TopParams(3.0, 2.0, 1.0)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260817)


@pytest.fixture
def cold_caches():
    """The one table cache, empty at the start and emptied again at the end
    (a test may build poisoned tables)."""
    caching.TABLES.clear()
    yield
    caching.TABLES.clear()
