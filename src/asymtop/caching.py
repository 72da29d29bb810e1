"""The one per-process cache of the tables that do not depend on the top.

The weights B_nj, the J_1 eigenbasis, block and state layouts, quadrature
rules with their flat grids, node sums and d^j tables, and generator stacks
are each built once per process by a builder decorated with memoize, and
shared read-only.
Their sizes grow fast with j, so the cache is bounded by the bytes its
values hold, not by their number: a degree-100 Haar rule with every d^j
table at its polar nodes would hold about 1 GB, a degree-4 one a few KB.
The same BytesCache class bounds spectra.STATE_CACHE, the one cache of
values that depend on the top: the state solves of one (j, p).
"""

from __future__ import annotations

import dataclasses
import functools
from collections import OrderedDict
from typing import Callable, Iterator, TypeVar

import numpy as np

T = TypeVar("T")

# every memoized table together is kept in this many bytes
CACHE_BYTES = 32 << 20


def arrays(value) -> Iterator[np.ndarray]:
    """Every array reachable from value through tuples (NamedTuples too)
    and dataclass fields."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from arrays(item)
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from arrays(getattr(value, field.name))


class BytesCache:
    """Least-recently-used map of read-only values whose arrays add up to
    at most `limit` bytes after every call.  A value larger than the limit
    is returned but not kept, and evicts nothing."""

    def __init__(self, limit: int):
        self.limit = limit
        self.nbytes = 0
        self._entries: OrderedDict = OrderedDict()  # key -> (value, its nbytes)

    def clear(self) -> None:
        self._entries.clear()
        self.nbytes = 0

    def get(self, key, build: Callable[[], T]) -> T:
        """The value kept under key, or build()'s, made read-only and kept."""
        if key in self._entries:
            self._entries.move_to_end(key)
            return self._entries[key][0]
        value = build()
        size = 0
        for arr in arrays(value):
            arr.flags.writeable = False
            size += arr.nbytes
        if size <= self.limit:
            self._entries[key] = value, size
            self.nbytes += size
            while self.nbytes > self.limit:
                self.nbytes -= self._entries.popitem(last=False)[1][1]
        return value


TABLES = BytesCache(CACHE_BYTES)


def memoize(build: Callable[..., T]) -> Callable[..., T]:
    """build(*args), kept in TABLES under (build, args)."""

    @functools.wraps(build)
    def cached(*args):
        return TABLES.get((build, args), lambda: build(*args))

    return cached
