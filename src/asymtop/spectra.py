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

Every route is solved as four real symmetric tridiagonal blocks, one per D2
class, of sizes K_N = (j//2+1, ceil(j/2), ceil(j/2), j//2) for N = 1..4,
with one eigvalsh call per distinct block size.  Both matrices couple n
only to n +- 2 and commute with n -> -n, so the Wang basis e_n +- e_{-n}
splits each into its class blocks; the states are the eigenvectors of the
lambda blocks.  State coefficients scale like sqrt(B_nj), which leaves the
normal float range at j = 514; from there on the states raise DomainError
while the levels stay exact.

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

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateParamsError,
    DomainError,
    NotTerminatingError,
    PoleError,
    RootCountError,
)
from .lambda_rep import ComplexQ, FourierState, weight_vector
from .wigner import angular_momentum_matrices, ladder_coefficients  # the former re-exported

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


def _wigner_entries(j: int, p: TopParams) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and second off-diagonal of A J1^2 + B J2^2 + C J3^2 on the
    basis m = j..-j.

    Closed forms: (J1^2)_mm = (J2^2)_mm = (j(j+1) - m^2)/2, and the entries
    coupling m to m-2 are -c c'/4 in J1^2 and +c c'/4 in J2^2, with c, c'
    the ladder coefficients of the steps m -> m-1 -> m-2.
    """
    m, c = ladder_coefficients(j)
    half = (j * (j + 1) - m * m) / 2.0
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        entries = p.A * half + p.B * half + p.C * m * m, (p.B - p.A) / 4.0 * c[:-1] * c[1:]
    return _finite(entries, f"wigner route at j={j}")


def h_matrix_wigner(j: int, p: TopParams) -> np.ndarray:
    """Real matrix of A J1^2 + B J2^2 + C J3^2 on the basis m = j..-j."""
    d, e = _wigner_entries(j, p)
    return np.diag(d) + np.diag(e, 2) + np.diag(e, -2)


def _lambda_entries(j: int, p: TopParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonal, (n, n+2) and (n+2, n) coefficients of the reduced operator
    A(-il1)^2 + B(-il2)^2 + C(-il3)^2 on e^{inq}, n = -j..j."""
    n = np.arange(-j, j + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        diag = 0.5 * (p.A + p.B) * (j * (j + 1) - n * n) + p.C * n * n
        upper = 0.25 * (p.A - p.B) * (j + n[2:]) * (j + n[2:] - 1)
        lower = 0.25 * (p.A - p.B) * (j - n[:-2]) * (j - n[:-2] - 1)
    return _finite((diag, upper, lower), f"lambda route at j={j}")


def _finite(entries: tuple[np.ndarray, ...], where: str) -> tuple[np.ndarray, ...]:
    """The matrix entries, or DomainError naming `where` if any of them left
    the float range.  Checked on the entries: eigvalsh returns finite wrong
    values from a NaN entry."""
    for e in entries:
        if not np.isfinite(e).all():
            raise DomainError(f"{where}: matrix entries leave the float range")
    return entries


def h_matrix_lambda(j: int, p: TopParams) -> np.ndarray:
    """Matrix of A(-il1)^2 + B(-il2)^2 + C(-il3)^2 on the e^{inq} basis.

    Built from the explicit coefficients of the reduced one-variable
    operator: e^{inq} couples only to n and n+-2.  That it equals the
    product of the generator matrices is checked by verify's
    gram-hermiticity check.
    """
    diag, upper, lower = _lambda_entries(j, p)
    out = np.diag(diag).astype(complex)
    k = np.arange(2 * j - 1)
    out[k + 2, k] = lower
    out[k, k + 2] = upper
    return out


def _lambda_symmetric_entries(j: int, p: TopParams) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the symmetric matrix similar to
    h_matrix_lambda.

    The diagonal similarity that symmetrizes a matrix coupling n to n +- 2
    sets both off-diagonals to sqrt(M[n,n+2] M[n+2,n]).  The products stay in
    range at every j for parameters of moderate size (DomainError where they
    leave it); the Gram weights B_nj of the equivalent similarity
    G^(1/2) M G^(-1/2) leave the normal float range at j = 514.
    """
    diag, upper, lower = _lambda_entries(j, p)
    return diag, _symmetric_offdiagonal(upper, lower, f"lambda route at j={j}")


def _wang_blocks(d: np.ndarray, e: np.ndarray, j: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Fold a matrix into its four D2 (Wang) class blocks.

    d is the diagonal over n = -j..j and e the (n, n+2) off-diagonal of a
    real symmetric matrix that couples n only to n +- 2 and commutes with
    n -> -n.  In the Wang basis e_n +- e_{-n} (n >= 0, e_0 alone, normalized)
    it splits into four tridiagonal blocks, one per class (parity of n,
    sign).  Returns their (diagonal, off-diagonal) pairs in the order of
    _wang_basis: (even, -), (even, +), (odd, -), (odd, +).
    """
    even_d, even_e = d[j::2], e[j::2]
    odd_d, odd_e = d[j + 1 :: 2], e[j + 1 :: 2]
    # e_0 enters the even + block alone, so its coupling to e_2 +- e_{-2}
    # gains sqrt(2); the n = -1, 1 coupling shifts the first odd diagonal
    plus_e = even_e.copy()
    plus_e[:1] *= math.sqrt(2.0)
    shift = np.zeros_like(odd_d)
    shift[:1] = e[j - 1 : j]
    return [
        (even_d[1:], even_e[1:]),
        (even_d, plus_e),
        (odd_d - shift, odd_e),
        (odd_d + shift, odd_e),
    ]


def _stacks(blocks: list[tuple[np.ndarray, np.ndarray]]):
    """Yield (slices, stacked tridiagonal matrices), one stack per distinct
    nonzero block size, so each size costs one LAPACK call.  The slices place
    each stacked block in the concatenation of all blocks, in block order."""
    sizes = [len(d) for d, _ in blocks]
    starts = [0, *itertools.accumulate(sizes)]
    for K in sorted(set(sizes) - {0}):
        members = [i for i, k in enumerate(sizes) if k == K]
        T = np.zeros((len(members), K, K))
        flat = T.reshape(len(members), K * K)  # a view: strided slices fill T
        flat[:, :: K + 1] = [blocks[m][0] for m in members]
        flat[:, 1 :: K + 1] = flat[:, K :: K + 1] = [blocks[m][1] for m in members]
        yield [slice(starts[m], starts[m] + K) for m in members], T


def _block_levels(blocks: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of all blocks, ascending, and the index of the block each
    came from: one eigvalsh per size.  Exact ties keep block order."""
    vals = np.empty(sum(len(d) for d, _ in blocks))
    for spans, T in _stacks(blocks):
        for span, w in zip(spans, np.linalg.eigvalsh(T)):
            vals[span] = w
    order = np.argsort(vals, kind="stable")
    return vals[order], np.repeat(np.arange(len(blocks)), [len(d) for d, _ in blocks])[order]


def spectrum(j: int, p: TopParams, route: str = "wigner") -> list[EnergyLevel]:
    """All 2j+1 levels, ascending, labeled s = -j..j.

    Every route builds its own real entries and takes the levels from four
    symmetric tridiagonal blocks: the Wang blocks of the wigner and lambda
    matrices, or the symmetrized Lame companions, whose levels carry their
    class N as lame_class (exact ties in class order).  Off-diagonal
    products that leave the normal float range (parameters near 1e154 and
    beyond, or near 1e-154 and below) raise DomainError naming the route and j.
    """
    if route not in ROUTES:
        raise DomainError(f"route must be one of {ROUTES}, got {route!r}")
    if j < 0:
        raise DomainError("j must be >= 0")
    if route == "wigner":
        # on m = j..-j; both arrays are palindromes (H commutes with m -> -m),
        # so they read the same on n = -j..j
        blocks = _wang_blocks(*_wigner_entries(j, p), j)
    elif route == "lambda":
        blocks = _wang_blocks(*_lambda_symmetric_entries(j, p), j)
    else:
        blocks = [
            (d, _symmetric_offdiagonal(up, lo, f"lame route at j={j}, class {N}"))
            for N, (d, up, lo) in enumerate(_lame_entries(j, p), 1)
        ]
    vals, labels = _block_levels(blocks)
    classes = (labels + 1).tolist() if route == "lame" else itertools.repeat(None)
    rows = zip(itertools.repeat(j), range(-j, j + 1), vals.tolist(), itertools.repeat(route), classes)
    return list(map(EnergyLevel._make, rows))


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


def _lame_entries(j: int, p: TopParams) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Diagonal, (k, k+1) and (k+1, k) entries of the four class companions.

    Class N has leading power p = j/2 - a - c and K_N = floor(p) + 1 terms,
    one per exponent p - k >= 0.  Its K_N recurrence equations, linear in E,
    read T s = E s with diagonal -beta(p-k), upper entries -alpha(p-k-1) and
    lower entries -gamma(p-k).  Each quadratic is evaluated once for all
    four classes.
    """
    require_strict(p)
    a, c = _CLASS_A[:, None], _CLASS_C[:, None]
    pw = j / 2.0 - a - c
    t = pw - np.arange(j // 2 + 1)
    # u v overflows from parameters near 1e154: the callers refuse the
    # resulting inf and nan entries with DomainError
    with np.errstate(over="ignore", invalid="ignore"):
        diag = -_beta_no_e(t, a, c, j, p)
        upper = -_alpha(t, a, c, j)  # entry k couples k-1 to k
        lower = -_gamma(t + 1.0, p)  # entry k couples k to k-1
    sizes = np.floor(pw[:, 0]).astype(int) + 1
    return [(diag[i, :K], upper[i, 1:K], lower[i, 1:K]) for i, K in enumerate(sizes)]


def _symmetric_offdiagonal(upper: np.ndarray, lower: np.ndarray, where: str) -> np.ndarray:
    """Off-diagonal sqrt(upper lower) of the symmetric matrix similar to the
    tridiagonal one with these off-diagonals.

    A product that overflows, or that falls below the normal float range
    (down to 0) from a nonzero entry, has lost the entry: DomainError naming
    `where`.  Products of two zero entries (A = B) stay 0.  A negative
    product leaves no real symmetric form: RootCountError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        prods = upper * lower
    if not ((prods >= _TINY) & (prods <= _HUGE)).all():  # nan fails both
        size = np.abs(prods)
        if (~(size <= _HUGE) | ((size < _TINY) & ((upper != 0.0) | (lower != 0.0)))).any():
            raise DomainError(f"{where}: off-diagonal products leave the normal float range")
        if (prods < 0.0).any():
            raise RootCountError(f"{where}: off-diagonal product {prods.min():.3e} < 0")
    return np.sqrt(prods)


def lame_recurrence(N: int, j: int, p: TopParams) -> np.ndarray:
    """Companion matrix of the class-N termination condition.

    Its eigenvalues are the admissible energies of class N: a K x K
    tridiagonal matrix (K may be 0), built dense from the entries that
    spectrum solves as a symmetric block.
    """
    if N not in (1, 2, 3, 4):
        raise DomainError(f"class must be 1..4, got {N}")
    if j < 0:
        raise DomainError("j must be >= 0")
    d, upper, lower = _lame_entries(j, p)[N - 1]
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
    e = _symmetric_offdiagonal(T.diagonal(1), T.diagonal(-1), f"lame route at j={j}, class {N}")
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


def _fix_phase(rows: np.ndarray, j: int) -> np.ndarray:
    """Rotate each row of coefficients by a unit phase so its first
    nonvanishing derivative at q=0 (0th, 1st, ...) is real and positive;
    deterministic across routes.

    The k-th derivative is (ij)^k sum_n x_n^k c_n with x = n/j, so the test
    runs on powers of x, which stay in range at every k (powers of n
    overflow).  Each row is summed on its own, so phasing one row alone
    gives the same bits as phasing it among others.
    """
    x = np.arange(-j, j + 1) / max(j, 1)
    phase = np.ones(len(rows), dtype=complex)
    done = np.zeros(len(rows), dtype=bool)
    terms = rows
    for k in range(2 * j + 1):
        w = terms.sum(axis=1)
        new = ~done & (np.abs(w) > 1e-9 * np.abs(terms).sum(axis=1))
        phase[new] = np.conj((1, 1j, -1, -1j)[k % 4] * w[new]) / np.abs(w[new])
        done |= new
        if done.all():
            break
        terms = terms * x
    return rows * phase[:, None]


def _wang_basis(j: int) -> tuple[np.ndarray, np.ndarray]:
    """The Wang basis of F^j by index: n >= 0 and the sign of each vector
    e_n + sign e_{-n} (e_0 alone), ordered so the four D2 classes (parity of
    n, sign) are the contiguous blocks of _wang_blocks."""
    evens, odds = np.arange(0, j + 1, 2), np.arange(1, j + 1, 2)
    n = np.concatenate([evens[1:], evens, odds, odds])
    sign = np.repeat([-1.0, 1.0, -1.0, 1.0], [len(evens) - 1, len(evens), len(odds), len(odds)])
    return n, sign


def _state_rows(j: int, p: TopParams) -> np.ndarray:
    """Unphased coefficients of Phi_{j,s}, s = -j..j, one state per row.

    H commutes with n -> -n and couples n only to n +- 2, so the Wang basis
    splits its symmetrized form into four tridiagonal D2-class blocks.  Each
    eigenvector comes from its own block, so it is class-pure even inside
    near-degenerate (always cross-class) doublets.  Back in the e^{inq}
    basis the coefficients scale like sqrt(B_nj) ~ 2^-j at the edges, so j
    is refused where B_nj leaves the normal float range.
    """
    b = weight_vector(j)
    if b.min() < np.finfo(float).tiny:
        raise DomainError(
            f"states at j={j} need B_nj down to {b.min():.3e}, below the normal float range"
        )
    blocks = _wang_blocks(*_lambda_symmetric_entries(j, p), j)
    n, sign = _wang_basis(j)
    scale = np.where(n == 0, 1.0, math.sqrt(0.5)) * np.sqrt((2 * j + 1) * b[j + n])
    pos, neg, signed = j + n, j - n, sign * scale
    vals = np.empty(2 * j + 1)
    out = np.zeros((2 * j + 1, 2 * j + 1), dtype=complex)
    for spans, T in _stacks(blocks):
        w, v = np.linalg.eigh(T)
        for block, wm, vm in zip(spans, w, v):  # its Wang vectors and states
            vals[block] = wm
            out[block, pos[block]] = vm.T * scale[block]
            out[block, neg[block]] = vm.T * signed[block]
    # levels within 8 ulp of max|E| of each other are one doublet to the
    # solver (at (3,2,1), j=40, doublets come out up to 6 ulp apart, distinct
    # levels 100+): such runs go by Wang class, the block order of vals
    order = np.argsort(vals, kind="stable")
    tied = np.diff(vals[order]) <= 8 * np.spacing(np.abs(vals).max())
    run = np.concatenate([[0], np.cumsum(~tied)])
    return out[order[np.lexsort((order, run))]]


def phi_state(j: int, s: int, p: TopParams) -> FourierState:
    """Eigenstate Phi_{j,s}: (Phi,Phi)_Q = 2j+1, one D2 class, deterministic phase."""
    if abs(s) > j:
        raise DomainError(f"|s| must be <= j={j}")
    return FourierState(j=j, coeffs=_fix_phase(_state_rows(j, p)[s + j : s + j + 1], j)[0])


def phi_states(j: int, p: TopParams) -> list[FourierState]:
    """All 2j+1 states Phi_{j,s}, s = -j..j, from one diagonalization."""
    return [FourierState(j=j, coeffs=c) for c in _fix_phase(_state_rows(j, p), j)]


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
    return FourierState(j=j, coeffs=_fix_phase((coeffs * norm)[None], j)[0])
