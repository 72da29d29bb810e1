"""The one per-process cache of the tables that do not depend on the top.

The weights B_nj, the J_1 eigenbasis, block and state layouts, quadrature
rules with their flat grids, node sums and d^j tables, and generator stacks
are each built once per process by a builder decorated with memoize, and
shared read-only.
Their sizes grow fast with j, so the cache is bounded by the bytes its
entries hold, not by their number: a degree-100 Haar rule with every d^j
table at its polar nodes would hold about 1 GB, a degree-4 one a few KB.
An entry counts its key and value whole (footprint), containers and array
headers too, so many small entries stay within the bound as well.
Values that depend on the top are not kept here: spectra keeps the last
solve of each route's levels and of the states, one slot each, replaced
by the next solve.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
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


@functools.cache
def _field_names(kind: type) -> tuple[str, ...]:
    """The field names of a dataclass type, () for any other type."""
    return tuple(field.name for field in dataclasses.fields(kind)) if dataclasses.is_dataclass(kind) else ()


def footprint(value) -> int:
    """Bytes value holds, by sys.getsizeof: itself and everything reachable
    from it through tuples (NamedTuples too) and dataclass fields; an array
    counts its header and its data, a view too."""
    size = sys.getsizeof(value)
    if isinstance(value, np.ndarray):
        return size if value.base is None else size + value.nbytes
    if isinstance(value, tuple):
        for item in value:
            size += footprint(item)
        return size
    for name in _field_names(type(value)):
        size += footprint(getattr(value, name))
    return size


class BytesCache:
    """Least-recently-used map whose entries hold at most `limit` bytes
    after every call, each its key and value counted by footprint.  An entry
    larger than the limit is returned but not kept, and evicts nothing.
    The cache never writes to a value; memoize freezes the tables it keeps."""

    def __init__(self, limit: int):
        self.limit = limit
        self.nbytes = 0
        self._entries: OrderedDict = OrderedDict()  # key -> (value, its size)

    def clear(self) -> None:
        self._entries.clear()
        self.nbytes = 0

    def get(self, key, build: Callable[[], T]) -> T:
        """The value kept under key, or build()'s, kept."""
        if key in self._entries:
            self._entries.move_to_end(key)
            return self._entries[key][0]
        value = build()
        # the (key, value) pair stands for the (value, size) pair kept
        size = footprint((key, value))
        if size <= self.limit:
            self._entries[key] = value, size
            self.nbytes += size
            while self.nbytes > self.limit:
                self.nbytes -= self._entries.popitem(last=False)[1][1]
        return value


TABLES = BytesCache(CACHE_BYTES)


def _frozen(value: T) -> T:
    """value, every array of it made read-only."""
    for arr in arrays(value):
        arr.flags.writeable = False
    return value


def memoize(build: Callable[..., T]) -> Callable[..., T]:
    """build(*args), made read-only and kept in TABLES under (build, args)."""

    @functools.wraps(build)
    def cached(*args):
        return TABLES.get((build, args), lambda: _frozen(build(*args)))

    return cached
