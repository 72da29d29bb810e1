"""Euler-angle geometry of SO(3) in the z-x-z convention.

A rotation is parameterized as g(phi, theta, psi) = g_z(phi) g_x(theta) g_z(psi)
with phi, psi in [0, 2pi) and theta in [0, pi).  The module provides the
rotation matrices, composition with a deterministic gimbal-lock convention,
the one-parameter orbits through a rotation along which the left and right
invariant vector fields are exact derivatives, and a product Haar quadrature
rule normalized to total weight 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .caching import BytesCache, LazyTables
from .errors import DomainError

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class EulerAngles:
    """z-x-z Euler angles (phi, theta, psi)."""

    phi: float
    theta: float
    psi: float

    def normalized(self) -> "EulerAngles":
        """Wrap into phi, psi in [0, 2pi), theta in [0, pi].

        theta is first folded into [0, 2pi); a value above pi is reflected
        using g(phi, -theta, psi) = g(phi + pi, theta, psi + pi).
        """
        phi, theta, psi = self.phi, self.theta, self.psi
        theta = theta % TWO_PI
        if theta > math.pi:
            theta = TWO_PI - theta
            phi += math.pi
            psi += math.pi
        return EulerAngles(phi % TWO_PI, theta, psi % TWO_PI)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.phi, self.theta, self.psi)


IDENTITY = EulerAngles(0.0, 0.0, 0.0)


def rotation(a: int, t) -> np.ndarray:
    """R_a(t), the rotation by t about axis a = 1, 2, 3 (x, y, z), at every
    angle of the array t: shape t.shape + (3, 3)."""
    if a not in (1, 2, 3):
        raise DomainError(f"unknown rotation axis {a}")
    i, k = a % 3, (a + 1) % 3  # the plane the rotation turns
    c, s = np.cos(t), np.sin(t)
    out = np.zeros(np.shape(t) + (3, 3))
    out[..., a - 1, a - 1] = 1.0
    out[..., i, i] = out[..., k, k] = c
    out[..., i, k], out[..., k, i] = -s, s
    return out


def euler_to_matrix(g: EulerAngles) -> np.ndarray:
    """3x3 rotation matrix g_z(phi) @ g_x(theta) @ g_z(psi)."""
    return rotation(3, g.phi) @ rotation(1, g.theta) @ rotation(3, g.psi)


def matrix_to_euler(mat: np.ndarray) -> EulerAngles:
    """Recover z-x-z angles from rotation matrices of shape (..., 3, 3), as
    an EulerAngles of arrays of shape (...); a single matrix gives scalars.

    theta = atan2(|third row|, m22).  The upper 2x2 block holds
    (1 + cos theta) e^{i(phi + psi)} and (1 - cos theta) e^{i(phi - psi)};
    the larger of the two gives phi +- psi, and the third column gives phi,
    so no angle is lost near theta = 0 or pi.  At theta exactly 0 or pi
    psi is 0 and the whole z-rotation is in phi.
    """
    m = np.asarray(mat, dtype=float)
    if m.shape[-2:] != (3, 3):
        raise DomainError(f"expected 3x3 matrices, got shape {m.shape}")
    row = np.hypot(m[..., 2, 0], m[..., 2, 1])
    sign = np.copysign(1.0, m[..., 2, 2])  # +1: phi + psi, the larger near theta = 0; -1: phi - psi
    turn = np.arctan2(m[..., 1, 0] - sign * m[..., 0, 1], m[..., 0, 0] + sign * m[..., 1, 1])
    phi = np.where(row == 0.0, turn, np.arctan2(m[..., 0, 2], -m[..., 1, 2]))
    psi = sign * (turn - phi)
    return EulerAngles((phi % TWO_PI)[()], np.arctan2(row, m[..., 2, 2])[()], (psi % TWO_PI)[()])


def compose(g1: EulerAngles, g2: EulerAngles) -> EulerAngles:
    """Group product g1 * g2 in Euler angles."""
    return matrix_to_euler(euler_to_matrix(g1) @ euler_to_matrix(g2))


def inverse(g: EulerAngles) -> EulerAngles:
    """Group inverse; closed form (pi - psi, theta, pi - phi) mod 2pi."""
    gn = g.normalized()
    if gn.theta == 0.0:
        return EulerAngles((-gn.phi - gn.psi) % TWO_PI, 0.0, 0.0)
    return EulerAngles((math.pi - gn.psi) % TWO_PI, gn.theta, (math.pi - gn.phi) % TWO_PI)


def orbits(g: EulerAngles, n: int) -> EulerAngles:
    """The one-parameter orbits through g at t_k = 2 pi k / n, k < n: the
    points g R_a(t_k) for a = 1, 2, 3, then R_a(t_k) g, as an EulerAngles
    of arrays of shape (6, n).

    xi_a f(g) = d/dt f(g R_a(t)) at t = 0 are the left-invariant fields and
    eta_a f(g) = -d/dt f(R_a(t) g) the right-invariant ones, with
    [xi_a, xi_b] = eps_abc xi_c, [eta_a, eta_b] = eps_abc eta_c and
    [xi_a, eta_b] = 0.  A function of angular momentum j (a combination of
    the D^j_{mn}) is a trigonometric polynomial of degree j along each
    orbit, so n >= 2j + 1 samples give its derivatives exactly
    (orbit_derivatives).
    """
    turns = np.stack([rotation(a, TWO_PI * np.arange(n) / n) for a in (1, 2, 3)])
    at_g = euler_to_matrix(g)
    return matrix_to_euler(np.concatenate((at_g @ turns, turns @ at_g)))


def orbit_derivatives(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and second derivatives at t = 0 of trigonometric polynomials
    of degree <= (n - 1) // 2 sampled at t_k = 2 pi k / n on the last axis
    of values: their coefficients by one FFT, each multiplied by ik and by
    -k^2 and summed."""
    n = values.shape[-1]
    k = np.fft.fftfreq(n, 1.0 / n)
    coeffs = np.fft.fft(values, axis=-1) / n
    return coeffs @ (1j * k), coeffs @ -(k * k)


# haar_rule keeps its rules, their polar_d tables included, in this many bytes
HAAR_CACHE_BYTES = 32 << 20
_HAAR_RULES = BytesCache(HAAR_CACHE_BYTES)


@dataclass(frozen=True)
class HaarRule(LazyTables):
    """Product quadrature rule on SO(3), total weight 1.

    Uniform grids in phi and psi (the same `azimuths`), Gauss-Legendre in
    cos theta (`polar_nodes` are the angles, `polar_weights` the Legendre
    weights, summing to 2).  Exact for every product conj(D^j_{mn})
    D^jt_{mt nt} with j, jt <= degree.

    A node (phi_a, theta_b, psi_c) has weight w_b / (2 n^2), n azimuths, so
    the sum of a product f(phi) g(theta) h(psi) over the nodes is the product
    of one sum per axis.  The Gram of the D-functions is therefore a Hadamard
    product: G[m, n, mt, nt] = P[m, n, mt, nt] F(mt - m) F(nt - n), with
    P = sum_b (w_b/2) d^j_{mn}(theta_b) d^jt_{mt nt}(theta_b) and F(k) the
    mean of e^{ik phi_a} over the azimuths (wigner.wigner_gram).

    The flattened (phi, theta, psi) grid (phi, theta, psi and weights, phi
    slowest) and the d^j tables at the polar nodes (polar_d, once per j) are
    built on first use (LazyTables): read-only, and counted in nbytes
    against haar_rule's HAAR_CACHE_BYTES.
    """

    degree: int
    azimuths: np.ndarray
    polar_nodes: np.ndarray
    polar_weights: np.ndarray

    _cache = _HAAR_RULES

    def _flat_grid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        n = len(self.azimuths)
        phi, theta, psi = np.meshgrid(self.azimuths, self.polar_nodes, self.azimuths, indexing="ij")
        w = np.broadcast_to(self.polar_weights[None, :, None] / (2.0 * n * n), phi.shape)
        return phi.ravel(), theta.ravel(), psi.ravel(), np.ascontiguousarray(w.ravel())

    @property
    def phi(self) -> np.ndarray:
        return self.table("grid", self._flat_grid)[0]

    @property
    def theta(self) -> np.ndarray:
        return self.table("grid", self._flat_grid)[1]

    @property
    def psi(self) -> np.ndarray:
        return self.table("grid", self._flat_grid)[2]

    @property
    def weights(self) -> np.ndarray:
        return self.table("grid", self._flat_grid)[3]

    def polar_d(self, j: int) -> np.ndarray:
        """wigner.wigner_d_matrix(j, polar_nodes), shape (nodes, 2j+1, 2j+1):
        every wigner_gram on this rule with j or jt = j reads this one table."""
        from .wigner import wigner_d_matrix  # wigner imports this module

        return self.table(j, lambda: (wigner_d_matrix(j, self.polar_nodes),))[0]


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes (ascending) and weights on [-1, 1], read-only.

    Newton's method in theta = arccos x on the cosine series
    P_n(cos theta) = sum_k g_k g_{n-k} cos((n - 2k) theta), g_k = binom(2k, k)/4^k
    (Swarztrauber 2002), from theta_k = (4k - 1) pi / (4n + 2): three steps
    converge, a fourth evaluation gives dP_n/dtheta at the nodes, and the
    weights are 2 / (dP_n/dtheta)^2.  Only theta <= pi/2 is solved; the rest
    is its mirror, so x and w are exactly symmetric and the middle node of an
    odd n is exactly 0.  Against 40-digit Newton the nodes are within 1 eps
    and the weights within 3e-14 relative (n <= 40 and 224..1504, the n of
    tests/test_so3.py).

    The series is folded onto the n//2 + 1 frequencies n - 2k and summed as
    e^{in theta} sum_a e^{-2iBa theta} sum_b c_{Ba+b} e^{-2ib theta},
    B ~ sqrt(n/2): each step is O(n^1.5) exponentials and one matrix product,
    and no (nodes x frequencies) table is formed.  Not cached: haar_rule and
    lambda_rep.q_rule, its callers, keep their rules per process.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    i = np.arange(1.0, n + 1)
    g = np.concatenate(([1.0], np.cumprod((2.0 * i - 1.0) / (2.0 * i))))
    k = np.arange(n // 2 + 1)
    c = 2.0 * g[k] * g[n - k]
    c[n - 2 * k == 0] *= 0.5  # the constant term of an even n is not doubled
    b = math.isqrt(len(k) - 1) + 1  # k = b * row + column
    rows = -(-len(k) // b)
    c = np.pad(c, (0, rows * b - len(k)))
    coeffs = np.concatenate([c, c * (n - 2.0 * np.arange(rows * b))]).reshape(2 * rows, b)
    row_freq, col_freq = n - 2.0 * b * np.arange(rows), -2.0 * np.arange(b)
    theta = (4.0 * np.arange(1, (n + 1) // 2 + 1) - 1.0) * (math.pi / (4 * n + 2))
    for _ in range(4):
        sums = np.exp(1j * np.multiply.outer(theta, col_freq)) @ coeffs.T
        outer = np.exp(1j * np.multiply.outer(theta, row_freq))
        p = np.einsum("ia,ia->i", outer, sums[:, :rows]).real
        dp = -np.einsum("ia,ia->i", outer, sums[:, rows:]).imag
        theta = theta - p / dp
    half, w_half = np.cos(theta), 2.0 / dp**2
    if n % 2:
        half[-1] = 0.0
    x = np.concatenate([-half[: n // 2], half[::-1]])
    w = np.concatenate([w_half[: n // 2], w_half[::-1]])
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@_HAAR_RULES.memoize
def haar_rule(degree: int) -> HaarRule:
    """The normalized Haar rule exact through Wigner degree `degree`, built
    once per process while it stays within HAAR_CACHE_BYTES (caching).

    Uses 2*degree+1 azimuthal points (products carry frequencies up to
    2*degree) and degree+1 Gauss-Legendre nodes in cos theta (the surviving
    theta integrand is a polynomial of degree at most 2*degree in cos theta).
    """
    if degree < 0:
        raise DomainError("degree must be >= 0")
    n_az = 2 * degree + 1
    x, wx = gauss_legendre(degree + 1)
    azimuths, polar_nodes = TWO_PI * np.arange(n_az) / n_az, np.arccos(x)
    azimuths.flags.writeable = polar_nodes.flags.writeable = False
    return HaarRule(degree=degree, azimuths=azimuths, polar_nodes=polar_nodes, polar_weights=wx)
