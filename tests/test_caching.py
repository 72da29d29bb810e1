import dataclasses
import gc
import importlib
import pkgutil
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import asymtop
from asymtop import TopParams, caching

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
    ("asymtop.wavefunctions._kernel_scale", (3,)),
    ("asymtop.wavefunctions._t_quadrature_gram", (3,)),
    ("asymtop.wigner._jx_blocks", (3,)),
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
    entry = caching.footprint((1, np.zeros(100)))  # 800 bytes of data, its header, key and pair
    assert entry > 800
    cache = caching.BytesCache(limit=3 * entry)
    values = {k: cache.get(k, lambda: np.zeros(100)) for k in (1, 2, 3)}
    assert cache.get(1, lambda: None) is values[1]  # 1 is now the most recent
    cache.get(4, lambda: np.zeros(100))  # evicts 2, the least recently used
    assert list(cache._entries) == [3, 1, 4] and cache.nbytes == 3 * entry
    assert cache.get(2, lambda: np.ones(100))[0] == 1.0  # rebuilt; evicts 3
    assert cache.get(1, lambda: None) is values[1]
    big = cache.get(5, lambda: np.zeros(400))  # returned, not kept
    assert list(cache._entries) == [4, 2, 1] and cache.nbytes == 3 * entry  # and evicts nothing
    # the cache writes to no value: memoize freezes what it keeps
    assert big.flags.writeable and values[1].flags.writeable
    cache.clear()
    assert cache.nbytes == 0 and cache.get(1, lambda: "rebuilt") == "rebuilt"


def test_footprint_counts_containers_headers_and_the_data_of_views():
    data = np.zeros(100)
    view = data[:10]
    assert caching.footprint(data) == sys.getsizeof(data) == sys.getsizeof(view) + 800
    assert caching.footprint(view) == sys.getsizeof(view) + 80
    top = TopParams(3.0, 2.0, 1.0)
    assert caching.footprint(top) == sys.getsizeof(top) + 3 * sys.getsizeof(1.0)
    pair = (7, data)
    assert caching.footprint(pair) == sys.getsizeof(pair) + sys.getsizeof(7) + sys.getsizeof(data)
    assert caching.footprint("key") == sys.getsizeof("key")


def test_many_small_state_solves_stay_within_the_state_cache_bound():
    # 2000 entries shaped as the phased rows of one j <= 3 of a new top,
    # keyed by (j, p), in a BytesCache of 384 KiB: each holds at most 784
    # bytes of rows, and its key, containers and array header about as
    # much again
    rng = np.random.default_rng(72)
    gaps = rng.uniform(0.1, 2.0, size=(2000, 3))
    reads = [(int(j), TopParams(*np.cumsum(g)[::-1])) for j, g in zip(rng.integers(0, 4, 2000), gaps)]
    limit = 384 << 10
    cache = caching.BytesCache(limit)
    gc.collect()
    tracemalloc.start()
    try:
        for j, p in reads:
            cache.get((j, p), lambda: np.zeros((2 * j + 1, 2 * j + 1), dtype=complex))
        gc.collect()
        full = tracemalloc.get_traced_memory()[0]
        kept, counted = len(cache._entries), cache.nbytes
        # the j of each key (j, p) is a small int that Python shares:
        # footprint counts it, tracemalloc sees no allocation for it
        shared = sum(sys.getsizeof(j) for j, _ in cache._entries)
        cache.clear()
        gc.collect()
        held = full - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert 200 < kept < 2000 and counted <= limit
    # what sys.getsizeof cannot see, the map's own table and nodes (about
    # 55 bytes an entry), stays within an eighth of the bound
    assert counted - shared < held <= limit * 9 / 8
