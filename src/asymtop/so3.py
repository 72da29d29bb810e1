"""Euler-angle geometry of SO(3) in the z-x-z convention.

A rotation is parameterized as g(phi, theta, psi) = g_z(phi) g_x(theta) g_z(psi)
with phi, psi in [0, 2pi) and theta in [0, pi).  The module provides the
rotation matrices, composition with a deterministic gimbal-lock convention,
left/right invariant vector fields applied by central finite differences, the
quadratic Casimir as an explicit second-order operator, and a product Haar
quadrature rule normalized to total weight 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

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

# Coefficient functions (a_phi, a_theta, a_psi) of the first-order fields.
# xi_a are left invariant, eta_a right invariant; [xi_a, xi_b] = eps_abc xi_c,
# [eta_a, eta_b] = eps_abc eta_c and [xi_a, eta_b] = 0.


def _field_coeffs(side: Field, a: int, g: EulerAngles) -> tuple[float, float, float]:
    sth = math.sin(g.theta)
    cth = math.cos(g.theta)
    cot = cth / sth
    if side == "xi":
        sps, cps = math.sin(g.psi), math.cos(g.psi)
        if a == 1:
            return (sps / sth, cps, -cot * sps)
        if a == 2:
            return (cps / sth, -sps, -cot * cps)
        if a == 3:
            return (0.0, 0.0, 1.0)
    elif side == "eta":
        sph, cph = math.sin(g.phi), math.cos(g.phi)
        if a == 1:
            return (cot * sph, -cph, -sph / sth)
        if a == 2:
            return (-cot * cph, -sph, cph / sth)
        if a == 3:
            return (-1.0, 0.0, 0.0)
    raise DomainError(f"unknown field {side!r} index {a}")


def _check_theta(g: EulerAngles) -> None:
    if min(abs(g.theta), abs(math.pi - g.theta)) < THETA_MARGIN:
        raise DomainError(
            f"theta={g.theta!r} within {THETA_MARGIN} of a coordinate singularity"
        )


def invariant_field_apply(
    side: Field,
    a: int,
    f: Callable[[EulerAngles], complex],
    g: EulerAngles,
    h: float = 1e-5,
) -> complex:
    """Apply xi_a or eta_a to f at g by central differences of step h.

    Raises DomainError when theta is within THETA_MARGIN of 0 or pi, where
    the coordinate coefficients blow up.
    """
    _check_theta(g)
    cphi, cth, cpsi = _field_coeffs(side, a, g)
    out = 0.0 + 0.0j
    if cphi != 0.0:
        out += cphi * (
            f(EulerAngles(g.phi + h, g.theta, g.psi))
            - f(EulerAngles(g.phi - h, g.theta, g.psi))
        )
    if cth != 0.0:
        out += cth * (
            f(EulerAngles(g.phi, g.theta + h, g.psi))
            - f(EulerAngles(g.phi, g.theta - h, g.psi))
        )
    if cpsi != 0.0:
        out += cpsi * (
            f(EulerAngles(g.phi, g.theta, g.psi + h))
            - f(EulerAngles(g.phi, g.theta, g.psi - h))
        )
    return out / (2.0 * h)


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
    _check_theta(g)
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


@dataclass(frozen=True)
class HaarRule:
    """Product quadrature rule on SO(3), total weight 1.

    Uniform grids in phi and psi, Gauss-Legendre in cos theta.  Exact for
    every product conj(D^j_{mn}) D^jt_{mt nt} with j, jt <= degree.
    """

    degree: int
    phi: np.ndarray
    theta: np.ndarray
    psi: np.ndarray
    weights: np.ndarray  # aligned with the flattened (phi, theta, psi) grid


@functools.lru_cache(maxsize=16)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [-1, 1], read-only.

    Computed once per n and shared by haar_rule and lambda_rep.q_rule.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def haar_rule(degree: int) -> HaarRule:
    """Build a normalized Haar rule exact through Wigner degree `degree`.

    Uses 2*degree+1 azimuthal points (products carry frequencies up to
    2*degree) and degree+1 Gauss-Legendre nodes in cos theta (the surviving
    theta integrand is a polynomial of degree at most 2*degree in cos theta).
    """
    if degree < 0:
        raise DomainError("degree must be >= 0")
    n_az = 2 * degree + 1
    n_gl = degree + 1

    az = TWO_PI * np.arange(n_az) / n_az
    x, wx = gauss_legendre(n_gl)
    th = np.arccos(x)

    phi_g, th_g, psi_g = np.meshgrid(az, th, az, indexing="ij")
    w_g = np.broadcast_to(wx[None, :, None] / (2.0 * n_az * n_az), phi_g.shape)
    return HaarRule(
        degree=degree,
        phi=phi_g.ravel(),
        theta=th_g.ravel(),
        psi=psi_g.ravel(),
        weights=np.ascontiguousarray(w_g.ravel()),
    )
