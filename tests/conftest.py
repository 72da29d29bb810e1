import numpy as np
import pytest

from asymtop import TopParams, haar_rule, q_rule, verify


@pytest.fixture
def p321() -> TopParams:
    return TopParams(3.0, 2.0, 1.0)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260817)


@pytest.fixture
def cold_caches():
    """The per-process caches of rules and generator stacks, empty at the
    start and emptied again at the end (a test may build poisoned tables)."""
    caches = (haar_rule, q_rule, verify.generator_stack)
    for cached in caches:
        cached.cache_clear()
    yield
    for cached in caches:
        cached.cache_clear()
