import numpy as np
import pytest

from asymtop import TopParams, caching, spectra


@pytest.fixture
def p321() -> TopParams:
    return TopParams(3.0, 2.0, 1.0)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260817)


@pytest.fixture(autouse=True)
def cold_state_cache():
    """The level and state slots, empty at the start of every test: a test
    that replaces _state_rows, _phase or _lame_entries then reads no rows
    or levels kept before it."""
    spectra._SLOTS.clear()


@pytest.fixture
def cold_caches():
    """The table cache and the slots, empty at the start and emptied again
    at the end (a test may build poisoned tables)."""
    caching.TABLES.clear()
    spectra._SLOTS.clear()
    yield
    caching.TABLES.clear()
    spectra._SLOTS.clear()
