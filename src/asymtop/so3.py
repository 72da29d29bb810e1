"""Euler-angle geometry of SO(3) in the z-x-z convention.

A rotation is parameterized as g(phi, theta, psi) = g_z(phi) g_x(theta) g_z(psi)
with phi, psi in [0, 2pi) and theta in [0, pi).  The module provides the
rotation matrices, composition with a deterministic gimbal-lock convention,
left/right invariant vector fields applied by central finite differences, the
quadratic Casimir as an explicit second-order operator, and a product Haar
quadrature rule normalized to total weight 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .caching import BytesCache, LazyTables
from .errors import DomainError

TWO_PI = 2.0 * math.pi
GIMBAL_TOL = 1e-10  # matrix_to_euler: 1 - |cos theta| below this is gimbal lock
THETA_MARGIN = 1e-3  # invariant fields and Casimir: refused within this of theta = 0, pi


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


def rot_z(t: float) -> np.ndarray:
    c, s = math.cos(t), math.sin(t)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rot_x(t: float) -> np.ndarray:
    c, s = math.cos(t), math.sin(t)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def euler_to_matrix(g: EulerAngles) -> np.ndarray:
    """3x3 rotation matrix g_z(phi) @ g_x(theta) @ g_z(psi)."""
    return rot_z(g.phi) @ rot_x(g.theta) @ rot_z(g.psi)


def matrix_to_euler(mat: np.ndarray) -> EulerAngles:
    """Recover z-x-z angles from a rotation matrix.

    At gimbal lock (1 - |cos theta| below GIMBAL_TOL) the composite
    z-rotation is put entirely into phi and psi is set to 0.
    """
    m = np.asarray(mat, dtype=float)
    if m.shape != (3, 3):
        raise DomainError(f"expected a 3x3 matrix, got shape {m.shape}")
    c = min(1.0, max(-1.0, m[2, 2]))
    theta = math.acos(c)
    if 1.0 - abs(c) < GIMBAL_TOL:
        # m reduces to g_z(phi +- psi): assign the whole rotation to phi.
        phi = math.atan2(m[1, 0], m[0, 0])
        return EulerAngles(phi % TWO_PI, 0.0 if c > 0 else math.pi, 0.0)
    phi = math.atan2(m[0, 2], -m[1, 2])
    psi = math.atan2(m[2, 0], m[2, 1])
    return EulerAngles(phi % TWO_PI, theta, psi % TWO_PI)


def compose(g1: EulerAngles, g2: EulerAngles) -> EulerAngles:
    """Group product g1 * g2 in Euler angles."""
    return matrix_to_euler(euler_to_matrix(g1) @ euler_to_matrix(g2))


def inverse(g: EulerAngles) -> EulerAngles:
    """Group inverse; closed form (pi - psi, theta, pi - phi) mod 2pi."""
    gn = g.normalized()
    if gn.theta == 0.0:
        return EulerAngles((-gn.phi - gn.psi) % TWO_PI, 0.0, 0.0)
    return EulerAngles((math.pi - gn.psi) % TWO_PI, gn.theta, (math.pi - gn.phi) % TWO_PI)


Field = Literal["xi", "eta"]

# Coefficients (a_phi, a_theta, a_psi) of the first-order fields.
# xi_a are left invariant, eta_a right invariant; [xi_a, xi_b] = eps_abc xi_c,
# [eta_a, eta_b] = eps_abc eta_c and [xi_a, eta_b] = 0.


def _field_coeffs(side: Field, a: int, phi, theta, psi) -> tuple[tuple[int, np.ndarray | float], ...]:
    """The coefficients of xi_a or eta_a that are not identically zero, as
    (coordinate, value) pairs with coordinates 0, 1, 2 = phi, theta, psi;
    the values broadcast over the angle arrays."""
    if side not in ("xi", "eta") or a not in (1, 2, 3):
        raise DomainError(f"unknown field {side!r} index {a}")
    if a == 3:
        return ((2, 1.0),) if side == "xi" else ((0, -1.0),)
    sth = np.sin(theta)
    cot = np.cos(theta) / sth
    if side == "xi":
        sps, cps = np.sin(psi), np.cos(psi)
        if a == 1:
            return ((0, sps / sth), (1, cps), (2, -cot * sps))
        return ((0, cps / sth), (1, -sps), (2, -cot * cps))
    sph, cph = np.sin(phi), np.cos(phi)
    if a == 1:
        return ((0, cot * sph), (1, -cph), (2, -sph / sth))
    return ((0, -cot * cph), (1, -sph), (2, cph / sth))


def _check_theta(theta) -> None:
    dist = np.minimum(np.abs(theta), np.abs(math.pi - theta))
    if (dist < THETA_MARGIN).any():
        worst = float(np.ravel(theta)[np.argmin(dist)])
        raise DomainError(
            f"theta={worst!r} within {THETA_MARGIN} of a coordinate singularity"
        )


def field_stencil(
    side: Field, a: int, phi, theta, psi, h=1e-5
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], np.ndarray]:
    """Central-difference stencil of xi_a or eta_a with step h.

    The centres (phi, theta, psi) and h broadcast together.  Returns the
    shifted points, a tuple (phi, theta, psi) of arrays of shape centres +
    (k,), and their weights c/(2h) and -c/(2h), of the same shape, where c
    is the field's coefficient along the shifted coordinate at the centre;
    so (X f)(centre) ~ sum(weights * f(points), axis=-1).  k is 6, or 2 for
    a = 3, whose field moves one coordinate only.  Raises DomainError when
    any centre's theta is within THETA_MARGIN of 0 or pi, where the
    coefficients blow up.
    """
    *centre, h = np.broadcast_arrays(phi, theta, psi, h)
    centre = np.array(centre, dtype=float)
    _check_theta(centre[1])
    coeffs = _field_coeffs(side, a, *centre)
    points = np.repeat(centre[..., None], 2 * len(coeffs), axis=-1)
    weights = np.empty(points.shape[1:])
    for i, (axis, c) in enumerate(coeffs):
        points[axis, ..., 2 * i] += h
        points[axis, ..., 2 * i + 1] -= h
        weights[..., 2 * i] = c / (2.0 * h)
        weights[..., 2 * i + 1] = -weights[..., 2 * i]
    return (points[0], points[1], points[2]), weights


def invariant_field_apply(
    side: Field,
    a: int,
    f: Callable[[EulerAngles], complex],
    g: EulerAngles,
    h: float = 1e-5,
) -> complex:
    """Apply xi_a or eta_a to f at g: field_stencil's weights times f at
    its points, one scalar call of f per point.

    Raises DomainError when theta is within THETA_MARGIN of 0 or pi, where
    the coordinate coefficients blow up.
    """
    points, weights = field_stencil(side, a, g.phi, g.theta, g.psi, h)
    values = [f(EulerAngles(*pt)) for pt in zip(*(x.tolist() for x in points))]
    return complex(np.sum(weights * np.array(values, dtype=complex)))


def casimir_apply(
    f: Callable[[EulerAngles], complex],
    g: EulerAngles,
    h: float = 1e-5,
) -> complex:
    """Apply the quadratic Casimir

        L^2 = -(1/sin^2 theta)(d^2/dpsi^2 + d^2/dphi^2 - 2 cos theta d2/dphi dpsi)
              - d^2/dtheta^2 - cot theta d/dtheta

    by second-order central differences of step h.  Eigenfunctions of angular
    momentum j return j(j+1) times themselves up to O(h^2).  Raises
    DomainError within THETA_MARGIN of theta = 0 or pi.
    """
    _check_theta(g.theta)
    phi, th, psi = g.phi, g.theta, g.psi
    sth = math.sin(th)
    cth = math.cos(th)
    f0 = f(g)
    h2 = h * h

    fpp = f(EulerAngles(phi + h, th, psi))
    fpm = f(EulerAngles(phi - h, th, psi))
    fsp = f(EulerAngles(phi, th, psi + h))
    fsm = f(EulerAngles(phi, th, psi - h))
    ftp = f(EulerAngles(phi, th + h, psi))
    ftm = f(EulerAngles(phi, th - h, psi))

    d2_phi = (fpp - 2.0 * f0 + fpm) / h2
    d2_psi = (fsp - 2.0 * f0 + fsm) / h2
    d2_th = (ftp - 2.0 * f0 + ftm) / h2
    d1_th = (ftp - ftm) / (2.0 * h)
    d2_mixed = (
        f(EulerAngles(phi + h, th, psi + h))
        - f(EulerAngles(phi + h, th, psi - h))
        - f(EulerAngles(phi - h, th, psi + h))
        + f(EulerAngles(phi - h, th, psi - h))
    ) / (4.0 * h2)

    return (
        -(d2_psi + d2_phi - 2.0 * cth * d2_mixed) / (sth * sth)
        - d2_th
        - (cth / sth) * d1_th
    )


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
