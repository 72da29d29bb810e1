import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import asymtop
from asymtop import caching

MODULES = [importlib.import_module(f"asymtop.{m.name}") for m in pkgutil.iter_modules(asymtop.__path__)]

# every memoized builder with the arguments of one small table
CALLS = [
    ("asymtop.lambda_rep.weight_vector", (4,)),
    ("asymtop.lambda_rep._q_rule", (2, 9.0)),
    ("asymtop.lambda_rep.q_grid", (2, 9.0)),
    ("asymtop.so3.haar_rule", (3,)),
    ("asymtop.so3.haar_grid", (3,)),
    ("asymtop.spectra._layout", (0, 12, "wang")),
    ("asymtop.spectra._layout", (0, 12, "lame")),
    ("asymtop.spectra._state_layout", (0, 12)),
    ("asymtop.verify.generator_stack", (0, 4)),
    ("asymtop.wavefunctions._t_quadrature_gram", (3,)),
    ("asymtop.wigner.jx_eigenbasis", (3,)),
    ("asymtop.wigner.polar_d", (3, 2)),
]


def _memoized() -> set[str]:
    """Every module-level function of the package that memoize wrapped."""
    code = caching.memoize(lambda: None).__code__
    return {
        f"{module.__name__}.{name}"
        for module in MODULES
        for name, fn in vars(module).items()
        if getattr(fn, "__code__", None) is code and fn.__module__ == module.__name__
    }


def _reachable(value):
    """Arrays held by value, its items and its attributes, at any depth."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _reachable(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _reachable(item)
    elif dataclasses.is_dataclass(value):
        yield from _reachable(vars(value))


def test_every_memoized_builder_is_listed():
    assert _memoized() == {name for name, _ in CALLS}


@pytest.mark.parametrize("name, args", CALLS, ids=[f"{name.split('.')[-1]}{args}" for name, args in CALLS])
def test_every_array_of_a_memoized_value_is_read_only(cold_caches, name, args):
    module, attr = name.rsplit(".", 1)
    build = getattr(importlib.import_module(module), attr)
    value = build(*args)
    assert build(*args) is value  # built once
    held = list(_reachable(value))
    assert held and sum(arr.nbytes for arr in held) == sum(arr.nbytes for arr in caching.arrays(value))
    for arr in held:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr.flat[0] = 0
    assert 0 < caching.TABLES.nbytes <= caching.CACHE_BYTES


def test_no_module_outside_caching_keeps_a_functools_cache():
    # cli.build_parser caches a parser, not a table
    for module in MODULES:
        if module is caching:
            continue
        cached = [name for name, fn in vars(module).items() if hasattr(fn, "cache_info")]
        source = Path(module.__file__).read_text()
        decorators = re.findall(r"\b(?:lru_cache|functools\.cache|cached_property)\b", source)
        if module.__name__ == "asymtop.cli":
            assert cached == ["build_parser"] and len(decorators) == 1
            assert "@functools.cache\ndef build_parser(" in source
        else:
            assert cached == [] and decorators == [], module.__name__


def test_bytes_cache_keeps_the_most_recent_values_within_its_limit():
    cache = caching.BytesCache(limit=3 * 800)
    values = {k: cache.get(k, lambda: np.zeros(100)) for k in range(3)}
    assert cache.get(0, lambda: None) is values[0]  # 0 is now the most recent
    cache.get(3, lambda: np.zeros(100))  # evicts 1, the least recently used
    assert cache.nbytes == 3 * 800
    assert cache.get(1, lambda: "rebuilt") == "rebuilt"
    assert cache.get(0, lambda: None) is values[0]
    big = cache.get("big", lambda: np.zeros(400))  # returned, not kept
    assert not big.flags.writeable
    assert cache.get("big", lambda: None) is None and cache.nbytes == 3 * 800
    assert cache.get(0, lambda: None) is values[0]  # and evicts nothing
    cache.clear()
    assert cache.nbytes == 0 and cache.get(0, lambda: "rebuilt") == "rebuilt"
