"""Asymmetric-top spectra by three independent routes.

The Hamiltonian H = A L1^2 + B L2^2 + C L3^2 with A >= B >= C > 0 has, for
each integer j, exactly 2j+1 levels E_{j,s}.  This module computes them by

  * the eigenvalues of A J1^2 + B J2^2 + C J3^2 in the spin-j basis, built
    real from its closed-form diagonal and (m, m-2) entries (route "wigner"),
  * the eigenvalues of A(-il1)^2 + B(-il2)^2 + C(-il3)^2 acting on
    trigonometric polynomials, symmetrized by setting both off-diagonals to
    sqrt(M[n,n+2] M[n+2,n]) (route "lambda"),
  * the roots of the termination conditions of four generalized Lame
    series (route "lame"),

and constructs the eigenstates Phi_{j,s} normalized to (Phi,Phi)_Q = 2j+1.

Every route is solved as four real symmetric tridiagonal blocks per j, one
per D2 class, of sizes K_N = (j//2+1, ceil(j/2), ceil(j/2), j//2) for
N = 1..4.  spectrum_range builds the blocks of a whole j range at once:
each route's closed forms are evaluated once over flat (class, j, k) index
arrays, and one eigvalsh call per distinct block size, over all j, solves
them.  spectrum is the range with one j.  One builder (_class_blocks) serves
all three routes, and one rule (_checked_offdiagonal) refuses entries out of
the float range there and in h_matrix_wigner, h_matrix_lambda and
lame_polynomial.  Both matrices couple n only to
n +- 2 and commute with n -> -n, so the Wang basis e_n +- e_{-n} splits each
into its class blocks; the states are the eigenvectors of the lambda
blocks.  State coefficients scale like sqrt(B_nj), which leaves the normal
float range past lambda_rep.NORMAL_WEIGHT_JMAX = 513; from there on the
states raise DomainError while the levels stay exact.

The states of a whole j range are solved at once in the same way
(_state_rows): one eigh call per block size of the lambda blocks, then the
s order of each j, and each j is phased whole, in one _phase call.

Levels and states are kept by one rule, in one slot per route and one for
the states (_SLOTS): a solve that returns is kept whole as its slot, and a
solve that raises keeps nothing.  solve_levels and solve_states keep a
command's range solve, and a read (spectrum, phi_state, phi_states) slices
it at its top, or else solves its one j and keeps that; after a refused
range, each read solves its own j.  Every read returns what a one-j solve
returns, bit for bit, or raises what it raises.

The Lame route works on the cubic P(rho) = (rho-A)(rho-B)(rho-C).  With
x = rho - B, u = A - B, v = B - C, a solution of

    4 P(rho) L'' + 2 P'(rho) L' - j(j+1) rho L + E L = 0

is sought as L = (x-u)^a (x+v)^c sum_k s_k x^(p-k) where the exponent pair
(a, c) runs over {0, 1/2}^2 (classes 1..4) and p is the root of the
indicial polynomial.  Substitution gives the three-term recurrence

    alpha(p-k) s_k + beta(p-k+1) s_{k-1} + gamma(p-k+2) s_{k-2} = 0

with beta(t) = E + b(t); the terminating energies are the eigenvalues of a
tridiagonal companion matrix of size K_N, whose positive off-diagonal
products make it similar to a symmetric block.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .caching import memoize
from .errors import (
    DegenerateParamsError,
    DomainError,
    NotTerminatingError,
    PoleError,
    RootCountError,
)
from .lambda_rep import NORMAL_WEIGHT_JMAX, ComplexQ, FourierState, smallest_weight, weight_vector
from .wigner import ladder_coefficient

ROUTES = ("wigner", "lambda", "lame")
SERIES_JMAX = 35  # largest j of phi_state_series (see there)
_TINY, _HUGE = np.finfo(float).tiny, np.finfo(float).max


@dataclass(frozen=True)
class TopParams:
    """Inverse-moment parameters A >= B >= C > 0 of the top."""

    A: float
    B: float
    C: float

    def __post_init__(self):
        if not (np.isfinite(self.A) and np.isfinite(self.B) and np.isfinite(self.C)):
            raise DomainError("parameters must be finite")
        if not (self.A >= self.B >= self.C > 0):
            raise DomainError(
                f"need A >= B >= C > 0, got A={self.A}, B={self.B}, C={self.C}"
            )

    @property
    def u(self) -> float:
        return self.A - self.B

    @property
    def v(self) -> float:
        return self.B - self.C


class EnergyLevel(NamedTuple):
    """One level E_{j,s} of a route; lame_class is the D2 class N of the
    Lame route's levels and None on the others."""

    j: int
    s: int
    E: float
    route: str
    lame_class: int | None = None


# EnergyLevel._make without its Python frame and length check: the
# EnergyLevel of a 5-tuple
_level = functools.partial(tuple.__new__, EnergyLevel)


@dataclass(frozen=True)
class LameSeries:
    """Terminating series solution of one class.

    evaluate() returns L(rho) = (rho-A)^a (rho-C)^c sum_k s_k (rho-B)^(p-k)
    with principal complex powers.
    """

    j: int
    lame_class: int
    E: float
    exponents: tuple[float, float]  # (a, c)
    power: float  # leading exponent p
    coeffs: np.ndarray  # s_0..s_{K-1}, s_0 = 1
    params: "TopParams"


def require_strict(p: TopParams) -> None:
    """Reject parameter sets where the elliptic construction degenerates."""
    if p.u < 1e-9 * p.A or p.v < 1e-9 * p.A:
        raise DegenerateParamsError(
            f"need strict A > B > C; gaps ({p.u:.3e}, {p.v:.3e}) below 1e-9*A"
        )


# --- closed forms ------------------------------------------------------
# Each takes j and an index (m or n) as ints or broadcasting int arrays, so
# the dense matrices and the flat class blocks of spectrum_range evaluate the
# same expressions.


def _wigner_diagonal(j, m, p: TopParams):
    """(A J1^2 + B J2^2 + C J3^2)_mm: (J1^2)_mm = (J2^2)_mm = (j(j+1) - m^2)/2."""
    half = (j * (j + 1) - m * m) / 2.0
    return p.A * half + p.B * half + p.C * m * m


def _wigner_offdiagonal(j, m, p: TopParams):
    """The entry coupling m to m-2: -c c'/4 in J1^2 and +c c'/4 in J2^2, with
    c, c' the ladder coefficients of the steps m -> m-1 -> m-2."""
    return (p.B - p.A) / 4.0 * ladder_coefficient(j, m) * ladder_coefficient(j, m - 1)


def _lambda_diagonal(j, n, p: TopParams):
    """Coefficient of e^{inq} in A(-il1)^2 + B(-il2)^2 + C(-il3)^2 e^{inq}."""
    return 0.5 * (p.A + p.B) * (j * (j + 1) - n * n) + p.C * n * n


def _lambda_offdiagonals(j, n, p: TopParams):
    """The (n, n+2) and (n+2, n) coefficients of the same operator."""
    return (
        0.25 * (p.A - p.B) * (j + n + 2) * (j + n + 1),
        0.25 * (p.A - p.B) * (j - n) * (j - n - 1),
    )


def h_matrix_wigner(j: int, p: TopParams) -> np.ndarray:
    """Real matrix of A J1^2 + B J2^2 + C J3^2 on the basis m = j..-j."""
    m = np.arange(j, -j - 1, -1)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        d, e = _wigner_diagonal(j, m, p), _wigner_offdiagonal(j, m[:-2], p)
    _checked_offdiagonal("wigner", j, d, e)
    return np.diag(d) + np.diag(e, 2) + np.diag(e, -2)


def h_matrix_lambda(j: int, p: TopParams) -> np.ndarray:
    """Matrix of A(-il1)^2 + B(-il2)^2 + C(-il3)^2 on the e^{inq} basis.

    Built from the explicit coefficients of the reduced one-variable
    operator: e^{inq} couples only to n and n+-2.  That it equals the
    product of the generator matrices is checked by verify's
    gram-hermiticity check.
    """
    n = np.arange(-j, j + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        diag, (upper, lower) = _lambda_diagonal(j, n, p), _lambda_offdiagonals(j, n[:-2], p)
    # entries only: the matrix is returned unsymmetrized, so no product is formed
    _checked_offdiagonal("lambda", j, diag, np.concatenate((upper, lower)))
    out = np.diag(diag).astype(complex)
    k = np.arange(2 * j - 1)
    out[k + 2, k] = lower
    out[k, k + 2] = upper
    return out


# --- class blocks of a j range -------------------------------------------

# First n of the Wang classes (parity of n, sign of e_n +- e_{-n}) in block
# order (even, -), (even, +), (odd, -), (odd, +), and the sign of each
_WANG_FIRST = np.array([2, 0, 1, 1])
_WANG_SIGN = np.array([-1.0, 1.0, -1.0, 1.0])
# 2(a + c) of the Lame classes N = 1..4: class N has (j - that)//2 + 1 terms
_LAME_FIRST = np.array([0, 1, 1, 2])


class _Layout(NamedTuple):
    """Flat index arrays of the four class blocks at every j of a range.

    Blocks run in (class, j) order; at j, class i has K = (j - first_i)//2 + 1
    entries (none below 0), the same four sizes in both families.  Diagonal
    entries carry their j, class index and x: n for the Wang family, the
    exponent t = p - k for the Lame one.  Off-diagonal entries, one per
    neighbour pair (k, k+1) of a block, carry the same with x the n of the
    coupling n -> n+2, or t = p - k - 1; the Wang family appends the n = -1 -> 1
    coupling of every j >= 1, which shifts the first diagonal entry of the two
    odd blocks (`odd_first`).  `plus_first` marks the first coupling of the
    (even, +) blocks, where e_0 enters alone.  `groups` holds, per block size
    K, the (blocks, K) diagonal and (blocks, K-1) off-diagonal positions of
    every block of that size.
    """

    j: np.ndarray
    cls: np.ndarray
    x: np.ndarray
    off_j: np.ndarray
    off_cls: np.ndarray
    off_x: np.ndarray
    groups: tuple[tuple[np.ndarray, np.ndarray], ...]
    odd_first: np.ndarray
    plus_first: np.ndarray


@memoize
def _layout(start: int, stop: int, family: str) -> _Layout:
    """The layout of j = start..stop-1 for family "wang" or "lame", read-only
    and memoized (0..150 holds 0.6 MB for wang, 0.8 MB for lame).  Its
    integers are int32 (class indices int8) up to j = 46340, where j(j+1)
    still fits; every closed form multiplies by a float before any larger
    integer product."""
    index = np.int32 if stop <= 46341 else np.int64
    js = np.arange(start, stop, dtype=index)
    first = _WANG_FIRST if family == "wang" else _LAME_FIRST
    sizes = np.maximum((js - first[:, None]) // 2 + 1, 0).astype(index)
    K, pairs = sizes.ravel(), np.maximum(sizes - 1, 0).ravel()
    block_j, block_cls = np.tile(js, 4), np.repeat(np.arange(4, dtype=np.int8), len(js))
    d_start, o_start = np.cumsum(K, dtype=index) - K, np.cumsum(pairs, dtype=index) - pairs
    j, cls = np.repeat(block_j, K), np.repeat(block_cls, K)
    k = np.arange(len(j), dtype=index) - np.repeat(d_start, K)
    off_j, off_cls = np.repeat(block_j, pairs), np.repeat(block_cls, pairs)
    i = np.arange(len(off_j), dtype=index) - np.repeat(o_start, pairs)
    if family == "wang":
        x, off_x = first[cls].astype(index) + 2 * k, first[off_cls].astype(index) + 2 * i
        shifted = js[js >= 1]
        off_j = np.concatenate([off_j, shifted])
        off_cls = np.concatenate([off_cls, np.full(len(shifted), 2, dtype=np.int8)])
        off_x = np.concatenate([off_x, np.full(len(shifted), -1, dtype=index)])
        odd_first = d_start.reshape(4, -1)[2:, js >= 1]
        plus_first = o_start.reshape(4, -1)[1, js >= 2]
    else:
        x = j / 2.0 - _CLASS_A[cls] - _CLASS_C[cls] - k
        off_x = off_j / 2.0 - _CLASS_A[off_cls] - _CLASS_C[off_cls] - (i + 1)
        odd_first, plus_first = np.zeros((2, 0), dtype=index), np.zeros(0, dtype=index)
    # entries sorted by the size of their block: each size's blocks, in
    # block order, are one (blocks, K) slice of the sort
    d_sorted = np.argsort(np.repeat(K, K), kind="stable").astype(index)
    o_sorted = np.argsort(np.repeat(K, pairs), kind="stable").astype(index)
    groups, d0, o0 = [], 0, 0
    for size, count in enumerate(np.bincount(K).tolist()):
        if size and count:
            d1, o1 = d0 + count * size, o0 + count * (size - 1)
            groups.append((d_sorted[d0:d1].reshape(count, size), o_sorted[o0:o1].reshape(count, size - 1)))
            d0, o0 = d1, o1
    return _Layout(j, cls, x, off_j, off_cls, off_x, tuple(groups), odd_first, plus_first)


def _class_blocks(route: str, js: range, p: TopParams) -> tuple[_Layout, np.ndarray, np.ndarray]:
    """Layout, diagonal and symmetric off-diagonal of the four class blocks
    of `route` at every j of js, refused by _checked_offdiagonal.

    The wigner and lambda matrices are real symmetric (lambda after setting
    both off-diagonals to sqrt(M[n,n+2] M[n+2,n])), couple n only to n +- 2
    and commute with n -> -n, so the Wang basis e_n +- e_{-n} (n >= 0, e_0
    alone, normalized) splits each into four tridiagonal blocks, one per
    class.  The wigner matrix, on m = j..-j, is read at m = -n.  The Lame
    blocks are the symmetrized class companions of _lame_entries.
    """
    if route == "lame":
        lay, d, upper, lower = _lame_entries(js, p)
        return lay, d, _checked_offdiagonal(route, lay, d, upper, lower)
    lay = _layout(js.start, js.stop, "wang")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        if route == "wigner":
            d, offs = _wigner_diagonal(lay.j, -lay.x, p), (_wigner_offdiagonal(lay.off_j, -lay.off_x, p),)
        else:
            d, offs = _lambda_diagonal(lay.j, lay.x, p), _lambda_offdiagonals(lay.off_j, lay.off_x, p)
        # the n = -1, 1 coupling shifts the first odd diagonal entries, up to
        # 1.5x past the largest diagonal entry, so they are checked shifted;
        # both lambda off-diagonals hold the same float u there, and
        # sqrt(u u) = u in binary floating point wherever u u is in range
        shift = offs[0][len(offs[0]) - lay.odd_first.shape[1] :]
        d[lay.odd_first[0]] -= shift
        d[lay.odd_first[1]] += shift
    e = _checked_offdiagonal(route, lay, d, *offs)
    # e_0 enters the (even, +) block alone, so its coupling to e_2 +- e_{-2}
    # gains sqrt(2): it stays below the largest diagonal entry (wigner) or
    # below sqrt(max float) (lambda)
    e[lay.plus_first] *= math.sqrt(2.0)
    return lay, d, e


def _key(route: str, j, cls):
    """The key refusals are ordered by: j, or 4j + class on the lame route."""
    return 4 * j + cls if route == "lame" else j


def _refusal(error: type, route: str, key: int, what: str) -> Exception:
    """`error` naming the route and j (and class) of `key`, with that j as
    its attribute j (spectrum_range checks the range below it for an
    earlier refusal)."""
    j, cls = (key // 4, f", class {key % 4 + 1}") if route == "lame" else (key, "")
    refusal = error(f"{route} route at j={j}{cls}: {what}")
    refusal.j = j
    return refusal


def _checked_offdiagonal(route: str, keys: int | _Layout, d, upper, lower=None) -> np.ndarray:
    """The off-diagonal of the real symmetric tridiagonal matrix with
    diagonal d and off-diagonal upper, or of the one similar to the matrix
    with off-diagonals upper and lower: sqrt(upper lower).  The one
    float-range rule for matrix entries.

    keys is the _key of every entry, or the _Layout of the entries, whose
    keys are formed only on a fault.  The smallest offending key raises:
      1. DomainError if an entry is not finite (eigvalsh returns finite
         wrong values from a NaN entry);
      2. else DomainError if a product lost its entries: NaN, overflow, or
         below the normal range from a nonzero entry (A = B gives an exact 0);
      3. else RootCountError if a product is negative: no symmetric form.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        prods = upper if lower is None else upper * lower
    # products in the normal range imply finite entries; nan fails both
    fine = np.isfinite(upper) if lower is None else (prods >= _TINY) & (prods <= _HUGE)
    if fine.all() and np.isfinite(d).all():
        return upper if lower is None else np.sqrt(prods)
    lay = keys if isinstance(keys, _Layout) else None
    d_key = np.broadcast_to(keys if lay is None else _key(route, lay.j, lay.cls), d.shape)
    o_key = np.broadcast_to(keys if lay is None else _key(route, lay.off_j, lay.off_cls), prods.shape)
    entries, lost, negative = np.isfinite(upper), False, False
    if lower is not None:
        size = np.abs(prods)
        entries &= np.isfinite(lower)
        lost = ~(size <= _HUGE) | ((size < _TINY) & ((upper != 0.0) | (lower != 0.0)))
        negative = prods < 0.0
    bad = np.concatenate([d_key[~np.isfinite(d)], o_key[~entries | lost | negative]])
    if not bad.size:  # only products of two zero entries
        return np.sqrt(prods)
    key = int(bad.min())
    d_at, o_at = d_key == key, o_key == key
    if not (np.isfinite(d[d_at]).all() and entries[o_at].all()):
        raise _refusal(DomainError, route, key, "matrix entries leave the float range")
    if (lost & o_at).any():
        raise _refusal(DomainError, route, key, "off-diagonal products leave the normal float range")
    raise _refusal(RootCountError, route, key, f"off-diagonal product {prods[o_at].min():.3e} < 0")


def _tridiagonal_stack(d: np.ndarray, e: np.ndarray, di: np.ndarray, oi: np.ndarray) -> np.ndarray:
    """The symmetric tridiagonal matrices with diagonals d[di] and
    off-diagonals e[oi], stacked on the first axis."""
    count, K = di.shape
    T = np.zeros((count, K, K))
    flat = T.reshape(count, K * K)  # a view: strided slices fill T
    flat[:, :: K + 1] = d[di]
    flat[:, 1 :: K + 1] = flat[:, K :: K + 1] = e[oi]
    return T


class SpectrumTable(NamedTuple):
    """The levels of one route at every j of a range js, flat in (j, s)
    order: E_{j,s} is E[j*j - js.start**2 + j + s].  lame_class holds the
    class N of each Lame level and is None on the other routes."""

    E: np.ndarray
    lame_class: np.ndarray | None


def spectrum_range(js: range, p: TopParams, route: str = "wigner") -> SpectrumTable:
    """All levels at every j of the range js (step 1, j >= 0), ascending per j.

    Every route builds its own real entries, over the whole range at once,
    and takes the levels from four symmetric tridiagonal blocks per j: the
    Wang blocks of the wigner and lambda matrices, or the symmetrized Lame
    companions.  Blocks of one size, over all j and classes, are one stacked
    eigvalsh call.  Exact ties keep class order.

    The smallest j (and class, on the Lame route) that a single-j call
    refuses raises what that call raises: first _checked_offdiagonal's
    errors for its entries and off-diagonal products (parameters near 1e154
    and beyond, or near 1e-154 and below, on the symmetrized routes; near
    max float / j^2 on all), then DomainError where its levels leave the
    float range although its entries do not.
    """
    _require_route(route)
    if js.start < 0 or js.step != 1:
        raise DomainError(f"need consecutive j >= 0, got {js}")
    try:
        lay, d, e = _class_blocks(route, js, p)
    except (DomainError, RootCountError) as refusal:
        # a single-j call checks its levels after its entries, so a j below
        # the first one refused here may still refuse its levels
        if refusal.j > js.start:
            spectrum_range(range(js.start, refusal.j), p, route)
        raise
    vals = np.empty(len(d))
    for di, oi in lay.groups:
        vals[di] = np.linalg.eigvalsh(_tridiagonal_stack(d, e, di, oi))
    order = np.lexsort((vals, lay.j))  # stable: ties keep (class, k) order
    E, classes = vals[order], lay.cls[order] + 1 if route == "lame" else None
    if not np.isfinite(vals).all():  # entries near max float, levels past it
        bad = ~np.isfinite(vals)
        key = int(_key(route, lay.j[bad], lay.cls[bad]).min())
        raise _refusal(DomainError, route, key, "levels leave the float range")
    return SpectrumTable(E, classes)


def _require_route(route: str) -> None:
    if route not in ROUTES:
        raise DomainError(f"route must be one of {ROUTES}, got {route!r}")


# kind -> (p, js, kept): the solve of the range js at the top p kept for
# each route's levels and for the states ("states").  kept is the route's
# SpectrumTable, or the phased rows of each j, read-only (2j+1, 2j+1)
# arrays; it stays in memory until the next solve of its kind replaces it.
_SLOTS: dict[str, tuple[TopParams, range, SpectrumTable | list[np.ndarray]]] = {}


def _slot(kind: str, start: int, stop: int, p: TopParams) -> tuple[int, SpectrumTable | list[np.ndarray]]:
    """The first j and the solve of the slot of kind (a route's
    spectrum_range, or the states' phased _state_rows) if it holds j =
    start..stop-1 at p, else of that range, kept as the slot; a solve that
    raises keeps nothing, and a start below 0 (a read's j; _keep checks
    ranges) raises before any.  Read as one tuple, a slot another thread
    replaces is missed, never misread."""
    top, held, kept = _SLOTS.get(kind, (None, range(0), None))
    if not (start in held and stop <= held.stop and top == p):
        if start < 0:
            raise DomainError("j must be >= 0")
        held = range(start, stop)
        if kind == "states":
            kept = [_phased(rows, j) for j, rows in zip(held, _state_rows(held, p))]
        else:
            kept = spectrum_range(held, p, kind)
        _SLOTS[kind] = p, held, kept
    return held.start, kept


def _keep(kind: str, js: range, p: TopParams) -> None:
    """Keep the solve of js at p as the slot of kind unless it holds them.
    An empty js solves nothing, and a refusal leaves the slot as it was:
    each read then solves its own j and raises what that raises."""
    if js.start < 0 or js.step != 1:
        raise DomainError(f"need consecutive j >= 0, got {js}")
    if js:
        try:
            _slot(kind, js.start, js.stop, p)
        except (DomainError, RootCountError, DegenerateParamsError):
            pass


def solve_levels(js: range, p: TopParams, route: str) -> None:
    """Keep the levels of `route` at every j of js (step 1, j >= 0), one
    spectrum_range call, as the route's slot for spectrum to read (0.18 MB
    at jmax 150).  A bad range or route raises, a refusal of the top never:
    it leaves the slot as it was.
    """
    _require_route(route)
    _keep(route, js, p)


def spectrum(j: int, p: TopParams, route: str = "wigner") -> list[EnergyLevel]:
    """All 2j+1 levels, ascending, labeled s = -j..j, as EnergyLevel rows
    (the Lame levels carry their class) from the route's slot, made by
    tuple.__new__ straight from its columns, with no Python call per level."""
    _require_route(route)
    start, table = _slot(route, j, j + 1, p)
    at = slice(j * j - start * start, (j + 1) ** 2 - start * start)
    classes = table.lame_class[at].tolist() if route == "lame" else itertools.repeat(None)
    rows = zip(itertools.repeat(j), range(-j, j + 1), table.E[at].tolist(), itertools.repeat(route), classes)
    return list(map(_level, rows))


# --- Lame recurrence ---------------------------------------------------

_CLASS_A = np.array([0.0, 0.5, 0.0, 0.5])  # exponents a and c of classes N = 1..4
_CLASS_C = np.array([0.0, 0.0, 0.5, 0.5])


# Quadratics in t (a float or an array of them), in Horner form with the
# t-free parts summed first: on an array each costs four array operations.
def _alpha(t, a, c, j: int):
    return t * (4 * t + (2 + 8 * a + 8 * c)) + (8 * a * c + 4 * a + 4 * c - j * (j + 1))


def _beta_no_e(t, a, c, j: int, p: TopParams):
    u, v = p.u, p.v
    return t * (4 * (v - u) * t + 8 * (a * v - c * u)) + (2 * (a * v - c * u) - j * (j + 1) * p.B)


def _gamma(t, p: TopParams):
    return -2.0 * p.u * p.v * t * (2 * t - 1)


def _lame_entries(js: range, p: TopParams) -> tuple[_Layout, np.ndarray, np.ndarray, np.ndarray]:
    """Layout, diagonal, (k, k+1) and (k+1, k) entries of the class
    companions at every j of js, flat in the layout's (class, j) block order.

    Class N has leading power p = j/2 - a - c and K_N = floor(p) + 1 terms,
    one per exponent p - k >= 0.  Its K_N recurrence equations, linear in E,
    read T s = E s with diagonal -beta(p-k), upper entries -alpha(p-k-1) and
    lower entries -gamma(p-k).  Each quadratic is evaluated once over the
    flat layout of all classes and j.
    """
    require_strict(p)
    lay = _layout(js.start, js.stop, "lame")
    a, c = _CLASS_A[lay.cls], _CLASS_C[lay.cls]
    off_a, off_c = _CLASS_A[lay.off_cls], _CLASS_C[lay.off_cls]
    # u v overflows from parameters near 1e154: the callers refuse the
    # resulting inf and nan entries with DomainError
    with np.errstate(over="ignore", invalid="ignore"):
        diag = -_beta_no_e(lay.x, a, c, lay.j, p)
        upper = -_alpha(lay.off_x, off_a, off_c, lay.off_j)
        lower = -_gamma(lay.off_x + 1.0, p)
    return lay, diag, upper, lower


def lame_recurrence(N: int, j: int, p: TopParams) -> np.ndarray:
    """Companion matrix of the class-N termination condition.

    Its eigenvalues are the admissible energies of class N: a K x K
    tridiagonal matrix (K may be 0), built dense from the entries that
    spectrum solves as a symmetric block.  It is not symmetrized, so only
    its entries are checked: DomainError where one is not finite or a lower
    entry underflowed.
    """
    if N not in (1, 2, 3, 4):
        raise DomainError(f"class must be 1..4, got {N}")
    if j < 0:
        raise DomainError("j must be >= 0")
    lay, d, upper, lower = _lame_entries(range(j, j + 1), p)
    mine = lay.off_cls == N - 1
    d, upper, lower = d[lay.cls == N - 1], upper[mine], lower[mine]
    K = len(d)
    T = np.diag(d)
    T.flat[1 :: K + 1] = upper
    T.flat[K :: K + 1] = lower
    # every lower entry 2 u v t (2t - 1) has t >= 1: below the normal range
    # (down to 0) it underflowed
    if not (np.isfinite(T).all() and (np.abs(lower) >= _TINY).all()):
        raise DomainError(f"lame route at j={j}, class {N}: companion entries leave the normal float range")
    return T


def lame_spectrum(j: int, p: TopParams) -> list[EnergyLevel]:
    """The lame route, spectrum(j, p, "lame"): exactly 2j+1 levels, each
    labeled with its class."""
    return spectrum(j, p, "lame")


def lame_polynomial(N: int, j: int, E: float, p: TopParams) -> LameSeries:
    """Series coefficients for a given class root, s_0 = 1.

    eigh of the symmetrized class-N companion gives the root lambda nearest
    E (NotTerminatingError if |E - lambda| > 1e-8 (|E| + j(j+1)A + 1)) and
    its eigenvector v.  Towards r = argmax|v| from either end the series is
    the dominant solution of the recurrence, so rows 0..r-1 are solved from
    s_0 = 1 and rows r+1.. from s_r.  (Scaling v back through the similarity
    divides by components eigh resolves only to eps max|v|: O(1) wrong at
    (1+1e-6,1,0.5) from j = 52.)  Within 1e-13 of max|s| of a 200-digit
    solve up to j = 150 on (3,2,1), (5.3,2.1,0.4), (100,2,1) and
    (1+1e-6,1,0.5); DomainError where s leaves the float range.
    """
    T = lame_recurrence(N, j, p)
    K = len(T)
    if K == 0:
        raise DomainError(f"class {N} is empty for j={j}")
    e = _checked_offdiagonal("lame", 4 * j + N - 1, T.diagonal(), T.diagonal(1), T.diagonal(-1))
    w, v = np.linalg.eigh(np.diag(T.diagonal()) + np.diag(e, 1) + np.diag(e, -1))
    i = int(np.argmin(np.abs(w - E)))
    if abs(E - w[i]) > 1e-8 * (abs(E) + j * (j + 1) * p.A + 1.0):
        raise NotTerminatingError(f"class {N}, j={j}: nearest root {w[i]:.17g} to E={E}")
    r = int(np.argmax(np.abs(v[:, i])))
    M = T - w[i] * np.eye(K)
    s = np.ones(K)
    # reversed, rows 0..r-1 in s_1..s_r are upper triangular: LU makes no
    # row exchange, so the solve is the forward substitution itself
    s[1 : r + 1] = np.linalg.solve(M[:r, 1 : r + 1][::-1, ::-1], -M[:r, 0][::-1])[::-1]
    with np.errstate(over="ignore", invalid="ignore"):  # inf is caught below
        s[r + 1 :] = np.linalg.solve(M[r + 1 :, r + 1 :], -M[r + 1 :, r]) * s[r]
    if not np.isfinite(s).all():
        raise DomainError(f"class {N}, j={j}: series coefficients leave the float range")
    a, c = float(_CLASS_A[N - 1]), float(_CLASS_C[N - 1])
    return LameSeries(
        j=j, lame_class=N, E=float(E), exponents=(a, c), power=j / 2.0 - a - c, coeffs=s, params=p
    )


def _series_wc(series: LameSeries, rho: complex):
    """Weight W, its log-derivative pieces, and the polynomial part S, S', S''."""
    p = series.params
    a, c = series.exponents
    rho = complex(rho)
    x = rho - p.B
    w1 = rho - p.A
    w2 = rho - p.C
    if min(abs(x), abs(w1), abs(w2)) < 1e-300:
        raise DomainError("rho coincides with a singular point of the equation")
    W = w1**a * w2**c
    s = series.coeffs
    e = series.power - np.arange(len(s))
    S = np.sum(s * x**e)
    Sp = np.sum(s * e * x ** (e - 1))
    Spp = np.sum(s * e * (e - 1) * x ** (e - 2))
    return x, w1, w2, W, S, Sp, Spp


def lame_series_eval(series: LameSeries, rho: complex) -> complex:
    _, _, _, W, S, _, _ = _series_wc(series, rho)
    return W * S


def lame_residual(series: LameSeries, rho: complex) -> complex:
    """Exact-derivative residual of the defining equation at rho."""
    j = series.j
    a, c = series.exponents
    x, w1, w2, W, S, Sp, Spp = _series_wc(series, rho)
    P = x * w1 * w2
    Pp = x * w2 + w1 * w2 + x * w1
    Wp = W * (a / w1 + c / w2)
    Wpp = W * (a * (a - 1) / w1**2 + 2 * a * c / (w1 * w2) + c * (c - 1) / w2**2)
    L = W * S
    Lp = Wp * S + W * Sp
    Lpp = Wpp * S + 2 * Wp * Sp + W * Spp
    return 4 * P * Lpp + 2 * Pp * Lp + (series.E - j * (j + 1) * rho) * L


def rho_map(q: ComplexQ, p: TopParams) -> complex:
    """Elliptic coordinate rho(q') sweeping [B, A] as q' runs over reals."""
    require_strict(p)
    qv = q.value
    cos2q = np.cos(2 * qv)
    den = p.A + p.B - 2 * p.C - (p.A - p.B) * cos2q
    scale = p.A + p.B - 2 * p.C + (p.A - p.B) * abs(cos2q)
    if abs(den) < 1e-12 * scale:
        raise PoleError(f"rho map pole at q={qv}")
    return complex(2 * (p.A - p.C) * (p.B - p.C) / den + p.C)


# --- eigenstates -------------------------------------------------------


def _phase(rows: np.ndarray, j: int) -> np.ndarray:
    """The unit phase of each row of coefficients that makes the row's first
    nonvanishing derivative at q=0 (0th, 1st, ...) real and positive, once
    multiplied in; deterministic across routes.

    The k-th derivative is (ij)^k sum_n x_n^k c_n with x = n/j, so the test
    runs on powers of x, which stay in range at every k (powers of n
    overflow).  Each row is summed on its own, so a row phased alone
    (phi_state_series) gets the same bits as among the 2j+1 rows of its j
    (_phased); each order k runs on the rows still left.
    """
    x = np.arange(-j, j + 1) / max(j, 1)
    phase = np.ones(len(rows), dtype=complex)
    left, terms = np.arange(len(rows)), rows
    for k in range(2 * j + 1):
        w = terms.sum(axis=1)
        size = np.abs(w)
        new = size > 1e-9 * np.abs(terms).sum(axis=1)
        phase[left[new]] = np.conj((1, 1j, -1, -1j)[k % 4] * w[new]) / size[new]
        left, terms = left[~new], terms[~new]
        if not len(left):
            break
        terms = terms * x
    return phase


class _StateLayout(NamedTuple):
    """The top-independent indices of _state_rows over a j range.

    States count in (j, s) order: `row_start` holds the flat offset of each
    state's row, `j_first` the index of the first state of each j, `state_j`
    the j - start of every state but the first, and `j_last` the index of
    the last state of every j but the last.  `fills` holds, per block size
    of the Wang layout (its `groups`), the columns j + n and j - n of each
    block entry and the scales of e_n and e_{-n} there, shaped
    (blocks, 1, 2, K) to broadcast over the states of a block.
    """

    row_start: np.ndarray
    j_first: np.ndarray
    state_j: np.ndarray
    j_last: np.ndarray
    fills: tuple[tuple[np.ndarray, np.ndarray], ...]
    size: int


@memoize
def _state_layout(start: int, stop: int) -> _StateLayout:
    """The _StateLayout of j = start..stop-1, read-only and memoized.  A Wang
    vector e_n +- e_{-n} holds sqrt(1/2) sqrt((2j+1) B_nj) e^{inq} at each
    of its n (e_0 alone holds 1 of it), so Phi is normalized to
    (Phi,Phi)_Q = 2j+1."""
    lay = _layout(start, stop, "wang")
    width = 2 * np.arange(start, stop, dtype=np.intp) + 1
    j_first = np.cumsum(width) - width  # also where each j starts in b
    entries = width * width
    offsets = np.cumsum(entries) - entries  # where each j's rows start
    state_j = np.repeat(np.arange(len(width)), width)
    row_start = offsets[state_j] + (np.arange(len(state_j)) - j_first[state_j]) * width[state_j]
    b = np.concatenate([weight_vector(j) for j in range(start, stop)])
    n = lay.x
    scale = np.where(n == 0, 1.0, math.sqrt(0.5)) * np.sqrt((2 * lay.j + 1) * b[j_first[lay.j - start] + lay.j + n])
    columns, scales = (lay.j + n, lay.j - n), (scale, _WANG_SIGN[lay.cls] * scale)  # e_n, e_{-n}
    fills = tuple(
        tuple(np.stack([a[di] for a in pair], axis=1)[:, None] for pair in (columns, scales)) for di, _ in lay.groups
    )
    return _StateLayout(row_start, j_first, state_j[1:], j_first[1:] - 1, fills, int(entries.sum()))


def _state_rows(js: range, p: TopParams) -> list[np.ndarray]:
    """Unphased coefficients of Phi_{j,s}, s = -j..j, at every j of js
    (step 1, j >= 0): one (2j+1, 2j+1) array per j, a state per row.

    The eigenvectors of the lambda route's Wang blocks (_class_blocks) over
    the whole range, one eigh per block size, as spectrum_range solves
    levels; eigh solves each block of a stack on its own, so the rows of a
    j do not depend on the range around it.  Each state comes from its own
    block, so it is class-pure even inside near-degenerate (always
    cross-class) doublets.  Back in the e^{inq} basis the coefficients scale
    like sqrt(B_nj) ~ 2^-j at the edges, so j is refused where the smallest
    B_nj leaves the normal float range (past NORMAL_WEIGHT_JMAX) before any
    array of size j is built.  The smallest j that a one-j call refuses
    raises what that call raises.
    """
    refused = min(js.stop, max(js.start, NORMAL_WEIGHT_JMAX + 1))
    if refused > js.start:
        lay, d, e = _class_blocks("lambda", range(js.start, refused), p)
    if refused < js.stop:
        raise DomainError(
            f"states at j={refused} need B_nj down to {smallest_weight(refused):.3e}, below the normal float range"
        )
    st = _state_layout(js.start, js.stop)
    vals, solved = np.empty(len(d)), []
    for di, oi in lay.groups:
        w, v = np.linalg.eigh(_tridiagonal_stack(d, e, di, oi))
        vals[di] = w
        solved.append(v.transpose(0, 2, 1)[:, :, None, :])  # a state per row
    # per j, levels within 8 ulp of its max|E| of each other are one doublet
    # to the solver (at (3,2,1), j=40, doublets come out up to 6 ulp apart,
    # distinct levels 100+): such runs keep block order, the Wang class
    # order, and no run crosses into the next j
    order = np.lexsort((vals, lay.j))  # stable: ties keep block order
    ordered = vals[order]
    tol = 8 * np.spacing(np.maximum.reduceat(np.abs(ordered), st.j_first))
    breaks = ~(ordered[1:] - ordered[:-1] <= tol[st.state_j])
    breaks[st.j_last] = True
    key = order.copy()  # run * len(vals) + block position, unique
    key[1:] += np.cumsum(breaks) * len(vals)
    row = np.empty(len(vals), dtype=np.intp)  # the flat offset of each state's row
    row[np.sort(key) % len(vals)] = st.row_start
    out = np.zeros(st.size, dtype=complex)
    for (di, _), states, (columns, scales) in zip(lay.groups, solved, st.fills):
        out[row[di][:, :, None, None] + columns] = states * scales
    return [rows.reshape(2 * j + 1, -1) for j, rows in zip(js, np.split(out, st.row_start[st.j_first[1:]]))]


def _phased(rows: np.ndarray, j: int) -> np.ndarray:
    """The rows of j times their _phase, a new read-only array."""
    out = rows * _phase(rows, j)[:, None]
    out.flags.writeable = False
    return out


def solve_states(js: range, p: TopParams) -> None:
    """Keep the states of every j of js (step 1, j >= 0), one _state_rows
    call with each j phased whole, as the states slot for the reads of a
    command.  They stay in memory until the next state solve replaces them:
    16 (2j+1)^2 bytes per j, 0.39 MB at j = 78 and 16.7 MB at j = 511.  A
    bad range raises, a refusal never: it leaves the slot as it was."""
    _keep("states", js, p)


def _phased_rows(j: int, p: TopParams, at: slice) -> np.ndarray:
    """Rows `at` of Phi_{j,s}, s = -j..j, a new array, from the states
    slot.  A lone read pays for phasing its whole j (97 rows of j = 48 on
    (100, 2, 1): 1.4 ms against 0.16 ms for one), as every command that
    reads many states reads all of a j (completeness_defect does)."""
    start, kept = _slot("states", j, j + 1, p)
    return kept[j - start][at].copy()


def phi_state(j: int, s: int, p: TopParams) -> FourierState:
    """Eigenstate Phi_{j,s}: (Phi,Phi)_Q = 2j+1, one D2 class, deterministic phase."""
    if 0 <= j < abs(s):  # _phased_rows refuses j < 0
        raise DomainError(f"|s| must be <= j={j}")
    return FourierState(j=j, coeffs=_phased_rows(j, p, slice(s + j, s + j + 1))[0])


def phi_rows(j: int, p: TopParams) -> np.ndarray:
    """The coefficients of all 2j+1 states Phi_{j,s}, s = -j..j, as one new
    (2j+1, 2j+1) array, a state per row: phi_states without a FourierState
    per row."""
    return _phased_rows(j, p, slice(None))


def phi_states(j: int, p: TopParams) -> list[FourierState]:
    """All 2j+1 states Phi_{j,s}, s = -j..j, from one diagonalization."""
    return [FourierState(j=j, coeffs=c) for c in phi_rows(j, p)]


def phi_state_series(j: int, s: int, p: TopParams) -> FourierState:
    """Phi_{j,s} built from the Lame series of its class.

    Evaluates D(q')^(j/2) L(rho(q')) on a real grid, where D is the
    denominator of rho(q'); the result is a trigonometric polynomial of
    degree j whose Fourier coefficients are extracted by FFT, then
    normalized and phased exactly like phi_state.  The coefficients are
    accurate to rounding, but the monomial sum cancels: against phi_state the
    error is 2e-12 / 2.5e-10 / 5.6e-9 at j = 20 / 30 / 35 on (5.3,2.1,0.4)
    and 5e-14 / 1.6e-12 / 1.2e-11 on (3,2,1); 1.1e-8 at j = 36 on the first
    and O(1) by j = 56, so j > SERIES_JMAX raises DomainError.
    """
    if j > SERIES_JMAX:
        raise DomainError(f"phi_state_series is limited to j <= {SERIES_JMAX}, got j={j}")
    if 0 <= j < abs(s):  # lame_spectrum refuses j < 0
        raise DomainError(f"|s| must be <= j={j}")
    require_strict(p)
    levels = lame_spectrum(j, p)
    lev = levels[s + j]
    series = lame_polynomial(lev.lame_class, j, lev.E, p)
    a, c = series.exponents

    ngrid = 8 * (j + 1)
    qp = 2.0 * math.pi * np.arange(ngrid) / ngrid
    cosq, sinq = np.cos(qp), np.sin(qp)
    den = p.A + p.B - 2 * p.C - (p.A - p.B) * np.cos(2 * qp)
    x = 2 * p.u * p.v * cosq**2 / den  # rho - B >= 0
    # half powers must follow the sign of the vanishing trig factor, or the
    # sampled function is |cos|/|sin| garbage instead of a trig polynomial
    root_x = np.sqrt(2 * p.u * p.v / den) * cosq  # sqrt(rho - B), signed
    root_w1 = 1j * np.sqrt(2 * p.u * (p.A - p.C) / den) * sinq  # sqrt(rho - A)
    root_w2 = np.sqrt(2 * (p.A - p.C) * p.v / den)  # sqrt(rho - C) > 0

    weight = np.ones(ngrid, dtype=complex)
    if a == 0.5:
        weight = weight * root_w1
    if c == 0.5:
        weight = weight * root_w2
    half = (series.power % 1.0) != 0.0
    e = np.rint(series.power - (0.5 if half else 0.0) - np.arange(len(series.coeffs)))
    poly = np.power.outer(x, e.astype(int)) @ series.coeffs
    if half:
        poly = poly * root_x
    values = den ** (j / 2.0) * weight * poly

    spec = np.fft.fft(values) / ngrid
    coeffs = spec[np.arange(-j, j + 1) % ngrid]
    norm = math.sqrt((2 * j + 1) / np.sum(np.abs(coeffs) ** 2 / weight_vector(j)).real)
    rows = (coeffs * norm)[None]
    return FourierState(j=j, coeffs=(rows * _phase(rows, j)[:, None])[0])
