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
wigner_d_apply applies d^j(theta) to a vector through the same split in
O(j^2), without forming the matrix.
"""

from __future__ import annotations

import math

import numpy as np

from .caching import memoize
from .errors import DomainError
from .so3 import EulerAngles, HaarRule, haar_rule


def ladder_coefficient(j, m):
    """sqrt(j(j+1) - m(m-1)), the ladder coefficient of the step m -> m-1;
    broadcasts over integer or integer-valued j and m."""
    return np.sqrt(j * (j + 1) - m * (m - 1))


def ladder_coefficients(j: int) -> tuple[np.ndarray, np.ndarray]:
    """m = j..-j and the ladder coefficients of the steps m -> m-1 (a
    palindrome), shared by every spin-j matrix."""
    if j < 0:
        raise DomainError("j must be >= 0")
    m = np.arange(j, -j - 1, -1, dtype=float)
    return m, ladder_coefficient(j, m[:-1])


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


@memoize
def jx_eigenbasis(j: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues -j..j and eigenvectors of P* J_1 P, read-only and memoized.

    The off-diagonals c/2 are a palindrome, so the matrix commutes with the
    reversal k -> 2j-k and is block diagonal on the reversal-even vectors
    (e_k + e_{2j-k})/sqrt 2 and e_j, k < j, and the reversal-odd ones
    (e_k - e_{2j-k})/sqrt 2.  Each block is the leading block of the matrix,
    of size j+1 (its last off-diagonal times sqrt 2) and j: two half-size
    eigh calls.

    Row k = n + j of the vectors carries s_k = (-1)^(k//2): the phase
    i^(k-k') of d^j is s_k s_k' times 1, -i or i (k, k' of equal parity;
    k even; k odd).
    """
    _, c = ladder_coefficients(j)
    half = np.diag(c[:j] / 2.0, 1)
    half[j - 1 : j, j] *= math.sqrt(2.0)  # e_j meets e_{j-1} and e_{j+1}
    block = half + half.T
    lam_even, u_even = np.linalg.eigh(block)
    lam_odd, u_odd = np.linalg.eigh(block[:j, :j])
    v = np.zeros((2 * j + 1, 2 * j + 1))
    v[j, : j + 1] = u_even[j]
    v[:j, : j + 1] = v[2 * j : j : -1, : j + 1] = u_even[:j] / math.sqrt(2.0)
    v[:j, j + 1 :] = u_odd / math.sqrt(2.0)
    v[2 * j : j : -1, j + 1 :] = -v[:j, j + 1 :]
    lam = np.concatenate((lam_even, lam_odd))
    order = np.argsort(lam)
    lam = np.rint(lam[order])
    v = v[:, order] * ((-1.0) ** (np.arange(2 * j + 1) // 2))[:, None]
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


@memoize
def _jx_blocks(j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The eigenvalues of jx_eigenbasis and its vectors' rows at even and at
    odd k = n + j, the rows complex, read-only and memoized: a complex
    vector times a real matrix casts the matrix on every product."""
    lam, v = jx_eigenbasis(j)
    return lam, v[0::2].astype(complex), v[1::2].astype(complex)


def wigner_d_apply(j: int, theta, x) -> np.ndarray:
    """d^j(theta) x for complex vectors x over n = -j..j on the last axis,
    without forming d^j: four products of a vector with a (j+1) x (2j+1)
    block of the J_1 eigenbasis, O(j^2) per vector.

    By the split of wigner_d_matrix, with E and O the eigenvector rows at
    even and odd k, y_e = ((x_e E) cos + (x_o O) sin) E^T and
    y_o = ((x_o O) cos - (x_e E) sin) O^T.  theta and the leading axes of
    x broadcast; each vector is its own one-row matrix product, so it
    rounds as a one-vector call does (a stack of vectors in one matrix
    product rounds differently).
    """
    lam, even, odd = _jx_blocks(j)
    t = np.asarray(theta, dtype=float)[..., None, None] * lam
    cos, sin = np.cos(t), np.sin(t)
    x = np.asarray(x)
    a, b = x[..., None, 0::2] @ even, x[..., None, 1::2] @ odd
    y_e, y_o = (a * cos + b * sin) @ even.T, (b * cos - a * sin) @ odd.T
    out = np.empty(y_e.shape[:-2] + (2 * j + 1,), dtype=complex)
    out[..., 0::2], out[..., 1::2] = y_e[..., 0, :], y_o[..., 0, :]
    return out


def wigner_D_matrix(j: int, g: EulerAngles) -> np.ndarray:
    """Full D^j(g) matrix, rows/cols n = -j..j ascending.

    g's angles may be arrays; they broadcast together and the result stacks
    one matrix per rotation, with shape angles.shape + (2j+1, 2j+1), each
    equal to its one-rotation call.
    """
    n = 1j * np.arange(-j, j + 1)
    left, right = np.exp(np.multiply.outer(g.phi, n)), np.exp(np.multiply.outer(g.psi, n))
    return left[..., :, None] * wigner_d_matrix(j, g.theta) * right[..., None, :]


@memoize
def polar_d(degree: int, j: int) -> np.ndarray:
    """wigner_d_matrix(j) at the polar nodes of haar_rule(degree), shape
    (nodes, 2j+1, 2j+1), read-only and memoized: every wigner_gram on that
    rule with j or jt = j reads this one table."""
    return wigner_d_matrix(j, haar_rule(degree).polar_nodes)


def wigner_gram(j: int, jt: int, rule: HaarRule) -> np.ndarray:
    """Haar-quadrature Gram tensor G[m, n, mt, nt] of conj(D^j) with D^jt.

    The rule's node sum factors by axis (HaarRule), so G is the Hadamard
    product of the polar sum P[m, n, mt, nt] = sum_b (w_b/2) d^j_{mn}(theta_b)
    d^jt_{mt nt}(theta_b) with F(mt - m) F(nt - n), where F(k) is the mean of
    e^{ik phi_a} over the rule's azimuths, summed on that grid.  The d tables
    are polar_d's at the rule's degree.  Equals
    delta_{j,jt} delta_{m,mt} delta_{n,nt} / (2j+1) when the rule is exact at
    max(j, jt).
    """
    if rule.degree < max(j, jt):
        raise DomainError(
            f"rule of degree {rule.degree} cannot integrate j={j}, jt={jt} products"
        )
    dim, dim_t = 2 * j + 1, 2 * jt + 1
    # F(k) for k = -(j+jt)..j+jt, then F(mt - m) for every (m, mt)
    f = np.exp(1j * np.outer(rule.azimuths, np.arange(-j - jt, j + jt + 1))).mean(axis=0)
    az = f[np.arange(-jt, jt + 1) - np.arange(-j, j + 1)[:, None] + j + jt]
    nodes = len(rule.polar_nodes)
    d = polar_d(rule.degree, j).reshape(nodes, -1)
    dt = polar_d(rule.degree, jt).reshape(nodes, -1)
    polar = ((0.5 * rule.polar_weights[:, None] * d).T @ dt).reshape(dim, dim, dim_t, dim_t)
    return polar * az[:, None, :, None] * az[None, :, None, :]


def unitarity_defect(j: int, theta_values: np.ndarray) -> float:
    """Max deviation of sum_n conj(D_{mn}) D_{mt n} from delta_{m mt}."""
    d = wigner_d_matrix(j, np.atleast_1d(theta_values))
    return float(np.max(np.abs(d @ d.swapaxes(-1, -2) - np.eye(2 * j + 1)), initial=0.0))
