"""Per-process caches bounded in bytes.

A table that does not depend on the top (a quadrature rule, a stack of
generator matrices) is built once per process and shared read-only.  Its
size grows fast with j, so each cache is bounded by the bytes it holds, not
by its number of entries: a degree-100 Haar rule with its d^j tables holds
about 1 GB, a degree-4 one a few KB.
"""

from __future__ import annotations

import functools
from collections import OrderedDict
from typing import Callable, TypeVar

import numpy as np

T = TypeVar("T")


class BytesCache:
    """Least-recently-used map of read-only values whose `nbytes` add up to
    at most `limit`.

    A value may grow after it is stored (a rule that builds tables on first
    use); its owner then calls trim(), so the bound holds whenever no cache
    call is running.  A value larger than the limit is returned but not
    kept.
    """

    def __init__(self, limit: int):
        self.limit = limit
        self._entries: OrderedDict = OrderedDict()

    @property
    def nbytes(self) -> int:
        return sum(value.nbytes for value in self._entries.values())

    def trim(self) -> None:
        """Drop least recently used values until the rest fit in limit."""
        total = self.nbytes
        while total > self.limit:
            total -= self._entries.popitem(last=False)[1].nbytes

    def clear(self) -> None:
        self._entries.clear()

    def memoize(self, build: Callable[..., T]) -> Callable[..., T]:
        """build(*args), once per args while the value stays resident; the
        wrapper's cache_clear() empties the cache, as functools' caches do."""

        @functools.wraps(build)
        def cached(*args):
            if args in self._entries:
                self._entries.move_to_end(args)
                return self._entries[args]
            value = self._entries[args] = build(*args)
            self.trim()
            return value

        cached.cache_clear = self.clear
        return cached


class LazyTables:
    """Base of a frozen dataclass, kept in the BytesCache `_cache`, that
    builds tables on first use.

    table(key, build) stores build()'s arrays read-only, once per key, and
    trims the cache, which now holds more bytes; nbytes counts the array
    fields and every table built so far.
    """

    _cache: BytesCache

    def table(self, key, build: Callable[[], tuple[np.ndarray, ...]]) -> tuple[np.ndarray, ...]:
        tables = self.__dict__.setdefault("_tables", {})
        if key not in tables:
            arrays = build()
            for arr in arrays:
                arr.flags.writeable = False
            tables[key] = arrays
            self._cache.trim()
        return tables[key]

    @property
    def nbytes(self) -> int:
        held = [v for v in vars(self).values() if isinstance(v, np.ndarray)]
        held += [arr for arrays in self.__dict__.get("_tables", {}).values() for arr in arrays]
        return sum(arr.nbytes for arr in held)
