"""Wigner D-functions on SO(3) in the z-x-z convention.

D^j_{mn}(g) = e^{i(m phi + n psi)} d^j_{mn}(theta) with d^j(theta) =
exp(i theta J_1) on n = -j..j, computed by one method, the eigenbasis of J_1
(Risbo, J. Geodesy 70, 383 (1996); Feng, Wang, Yang & Jin, PRE 92, 043307
(2015)).  With P = diag(i^n), P* J_1 P is real symmetric tridiagonal with
off-diagonals c/2 (c the ladder coefficients) and eigenvalues exactly -j..j.
Its eigenvectors V are computed once per j (jx_eigenbasis), and

    d^j(theta) = Re(P V diag(e^{i theta lambda}) V^T P*)

keeps cos(theta lambda) between indices of equal parity and sin(theta
lambda) between the others.  An array of theta is one broadcast evaluation.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DimensionError, DomainError
from .so3 import EulerAngles, HaarRule


def ladder_coefficients(j: int) -> tuple[np.ndarray, np.ndarray]:
    """m = j..-j and the ladder coefficients c = sqrt(j(j+1) - m m') of the
    steps m -> m' = m-1 (a palindrome), shared by every spin-j matrix."""
    if j < 0:
        raise DomainError("j must be >= 0")
    m = np.arange(j, -j - 1, -1, dtype=float)
    return m, np.sqrt(j * (j + 1) - m[:-1] * m[1:])


def angular_momentum_matrices(j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spin-j matrices with [J1,J2] = iJ3 cyclic on the basis n = j..-j.

    J3 = diag(j..-j); J2 is the real symmetric ladder matrix; J1 the
    imaginary antisymmetric one.
    """
    m, c = ladder_coefficients(j)
    J3 = np.diag(m).astype(complex)
    J2 = (np.diag(c, 1) + np.diag(c, -1)).astype(complex) / 2.0
    J1 = (np.diag(1j * c, 1) + np.diag(-1j * c, -1)) / 2.0
    return J1, J2, J3


@functools.lru_cache(maxsize=16)
def jx_eigenbasis(j: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues -j..j and eigenvectors of P* J_1 P, read-only, once per j.

    Row k = n + j of the vectors carries s_k = (-1)^(k//2): the phase
    i^(k-k') of d^j is s_k s_k' times 1, -i or i (k, k' of equal parity;
    k even; k odd).
    """
    _, c = ladder_coefficients(j)
    half = np.diag(c / 2.0, 1)
    lam, v = np.linalg.eigh(half + half.T)
    lam = np.rint(lam)
    v = v * ((-1.0) ** (np.arange(2 * j + 1) // 2))[:, None]
    lam.flags.writeable = False
    v.flags.writeable = False
    return lam, v


def wigner_small_d(j: int, m, n, theta):
    """Reduced matrix element d^j_{mn}(theta), an entry of wigner_d_matrix;
    m and n broadcast, and an array of theta puts its shape in front."""
    d = wigner_d_matrix(j, theta)
    m, n = np.asarray(m), np.asarray(n)
    if (np.abs(m) > j).any() or (np.abs(n) > j).any():
        raise DomainError(f"|m|, |n| must be <= j={j}")
    return d[..., m + j, n + j]


def wigner_D(j: int, m: int, n: int, g: EulerAngles) -> complex:
    """Matrix element D^j_{mn}(g) = e^{i(m phi + n psi)} d^j_{mn}(theta)."""
    return np.exp(1j * (m * g.phi + n * g.psi)) * wigner_small_d(j, m, n, g.theta)


def wigner_d_matrix(j: int, theta) -> np.ndarray:
    """Real matrix d^j(theta), rows/cols n = -j..j.

    For an array of theta the result stacks one matrix per angle, with shape
    theta.shape + (2j+1, 2j+1).
    """
    lam, v = jx_eigenbasis(j)
    t = np.asarray(theta, dtype=float)[..., None, None] * lam
    cos, sin = np.cos(t), np.sin(t)
    even, odd = v[0::2], v[1::2]  # by index k = n + j
    cross = (even * sin) @ odd.T
    out = np.empty(cross.shape[:-2] + (2 * j + 1, 2 * j + 1))
    out[..., 0::2, 0::2] = (even * cos) @ even.T
    out[..., 1::2, 1::2] = (odd * cos) @ odd.T
    out[..., 0::2, 1::2] = cross
    out[..., 1::2, 0::2] = -cross.swapaxes(-1, -2)
    return out


def wigner_D_matrix(j: int, g: EulerAngles) -> np.ndarray:
    """Full D^j(g) matrix, rows/cols n = -j..j ascending."""
    n = np.arange(-j, j + 1)
    return (
        np.exp(1j * n * g.phi)[:, None]
        * wigner_d_matrix(j, g.theta)
        * np.exp(1j * n * g.psi)[None, :]
    )


def wigner_D_stack(j: int, rule: HaarRule) -> np.ndarray:
    """D^j at every node of a Haar rule, shape (nodes, 2j+1, 2j+1)."""
    thetas, inv = np.unique(rule.theta, return_inverse=True)
    n = np.arange(-j, j + 1)
    d = np.exp(1j * np.outer(rule.phi, n))[:, :, None] * wigner_d_matrix(j, thetas)[inv]
    return d * np.exp(1j * np.outer(rule.psi, n))[:, None, :]


def wigner_gram(j: int, jt: int, rule: HaarRule) -> np.ndarray:
    """Haar-quadrature Gram tensor G[m, n, mt, nt] of conj(D^j) with D^jt.

    Equals delta_{j,jt} delta_{m,mt} delta_{n,nt} / (2j+1) when the rule is
    exact at max(j, jt).
    """
    if rule.degree < max(j, jt):
        raise DomainError(
            f"rule of degree {rule.degree} cannot integrate j={j}, jt={jt} products"
        )
    dj = wigner_D_stack(j, rule)
    djt = dj if jt == j else wigner_D_stack(jt, rule)

    # one BLAS product over the nodes, each stack flattened to (nodes, entries)
    weighted = (rule.weights[:, None, None] * dj).conj().reshape(len(dj), -1)
    gram = weighted.T @ djt.reshape(len(djt), -1)
    return gram.reshape(dj.shape[1:] + djt.shape[1:])


def unitarity_defect(j: int, theta_values: np.ndarray) -> float:
    """Max deviation of sum_n conj(D_{mn}) D_{mt n} from delta_{m mt}."""
    d = wigner_d_matrix(j, np.atleast_1d(theta_values))
    return float(np.max(np.abs(d @ d.swapaxes(-1, -2) - np.eye(2 * j + 1)), initial=0.0))


def check_dimension(j: int, vec: np.ndarray) -> np.ndarray:
    """Validate a length-(2j+1) coefficient vector; returns it as complex."""
    arr = np.asarray(vec, dtype=complex)
    if arr.shape != (2 * j + 1,):
        raise DimensionError(f"expected shape ({2 * j + 1},), got {arr.shape}")
    return arr
