"""Wigner D-functions on SO(3) in the z-x-z convention.

D^j_{mn}(g) = e^{i(m phi + n psi)} d^j_{mn}(theta) with

    d^j_{mn}(theta) = (-1)^{m-n} sqrt((j+m)!(j-m)!/((j+n)!(j-n)!))
                      * sin^{m-n}(theta/2) cos^{m+n}(theta/2)
                      * P^{(m-n, m+n)}_{j-m}(cos theta).

The closed form is evaluated directly for m >= |n| and extended elsewhere by
the symmetries d_{mn} = (-1)^{m-n} d_{nm} = d_{-n,-m}.  jacobi_poly and
wigner_small_d broadcast over their index and angle arguments, so a whole
matrix, or a stack of them over many theta, is one evaluation.  Factorial
ratios go through log-gamma so j up to ~50 keeps full relative precision.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, DomainError
from .so3 import EulerAngles, HaarRule


def log_factorials(kmax: int) -> np.ndarray:
    """log(k!) for k = 0..kmax, one math.lgamma table."""
    return np.array([math.lgamma(k + 1.0) for k in range(kmax + 1)])


def jacobi_poly(k, alpha, beta, z):
    """Jacobi polynomial P_k^{(alpha,beta)}(z) by the three-term recurrence.

    Broadcasts over all four arguments; each entry stops at its own degree.
    """
    k = np.asarray(k)
    if (k < 0).any():
        raise DomainError("polynomial degree must be >= 0")
    ab = alpha + beta
    a2, b2 = alpha * alpha, beta * beta
    p_prev = np.ones(np.broadcast(k, ab, z).shape)
    p = np.where(k >= 1, (alpha + 1.0) + (ab + 2.0) * (z - 1.0) / 2.0, p_prev)
    for n in range(2, int(k.max(initial=0)) + 1):
        s = 2.0 * n + ab
        c1 = 2.0 * n * (n + ab) * (s - 2.0)
        c2 = (s - 1.0) * (s * (s - 2.0) * z + a2 - b2)
        c3 = 2.0 * (n + alpha - 1.0) * (n + beta - 1.0) * s
        live = n <= k
        p, p_prev = np.where(live, (c2 * p - c3 * p_prev) / c1, p), np.where(live, p, p_prev)
    return p[()]


def wigner_small_d(j, m, n, theta):
    """Reduced matrix element d^j_{mn}(theta), broadcast over all arguments."""
    j, m, n = np.asarray(j), np.asarray(m), np.asarray(n)
    if (j < 0).any():
        raise DomainError("j must be >= 0")
    if (np.abs(m) > j).any() or (np.abs(n) > j).any():
        raise DomainError(f"|m|, |n| must be <= j={j}")
    # fold onto mm >= |nn|: transpose when |n| is larger, negate both when the
    # larger index is negative.  Either move alone costs (-1)^{m-n}, which
    # cancels the closed form's own (-1)^{mm-nn} = (-1)^{m-n}.
    swap = np.abs(n) > np.abs(m)
    big, small = np.where(swap, n, m), np.where(swap, m, n)
    flip = big < 0
    mm, nn = np.abs(big), np.where(flip, -small, small)
    a, b = mm - nn, mm + nn
    sign = np.where(swap == flip, (-1.0) ** (m - n), 1.0)
    lf = log_factorials(2 * int(j.max()))
    ratio = np.exp(0.5 * (lf[j + mm] + lf[j - mm] - lf[j + nn] - lf[j - nn]))
    half = 0.5 * theta
    poly = jacobi_poly(j - mm, a, b, np.cos(theta))
    return sign * ratio * np.sin(half) ** a * np.cos(half) ** b * poly


def wigner_D(j: int, m: int, n: int, g: EulerAngles) -> complex:
    """Matrix element D^j_{mn}(g) = e^{i(m phi + n psi)} d^j_{mn}(theta)."""
    return np.exp(1j * (m * g.phi + n * g.psi)) * wigner_small_d(j, m, n, g.theta)


def wigner_d_matrix(j: int, theta) -> np.ndarray:
    """Real matrix d^j(theta), rows/cols n = -j..j.

    For an array of theta the result stacks one matrix per angle, with shape
    theta.shape + (2j+1, 2j+1).
    """
    n = np.arange(-j, j + 1)
    return wigner_small_d(j, n[:, None], n[None, :], np.asarray(theta)[..., None, None])


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
