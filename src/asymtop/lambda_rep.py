"""Irreducible representation of so(3) on trigonometric polynomials.

The carrier space F^j is spanned by psi_n(q) = e^{inq}, n = -j..j, with q a
complex angle.  The generators act as first-order operators

    l1 = -i sin q d/dq + i j cos q
    l2 = -i cos q d/dq - i j sin q
    l3 = d/dq

and satisfy [l_a, l_b] = eps_abc l_c.  The invariant pairing is diagonal,
(psi_n, psi_nt)_Q = delta_{n nt} / B_nj with B_nj = (j!)^2/((j-n)!(j+n)!),
realized as a two-dimensional integral over q = alpha + i beta with density
kappa_j / (1 + cosh 2 beta)^{j+1}.

All matrices are indexed by n = -j..j ascending.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceWarning, DimensionError, DomainError
from .so3 import gauss_legendre
from .wigner import check_dimension

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ComplexQ:
    """Point q = alpha + i*beta of the complex angle domain."""

    alpha: float
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", self.alpha % TWO_PI)

    @classmethod
    def from_complex(cls, q: complex) -> "ComplexQ":
        return cls(q.real, q.imag)

    @property
    def value(self) -> complex:
        return complex(self.alpha, self.beta)


@dataclass(frozen=True)
class FourierState:
    """Element of F^j with coefficients over n = -j..j ascending."""

    j: int
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", check_dimension(self.j, self.coeffs))


def log_factorials(kmax: int) -> np.ndarray:
    """log(k!) for k = 0..kmax, one math.lgamma table."""
    return np.array([math.lgamma(k + 1.0) for k in range(kmax + 1)])


def weight_B(n, j: int):
    """B_nj = (j!)^2 / ((j-n)!(j+n)!), broadcast over n."""
    n = np.asarray(n)
    if (np.abs(n) > j).any():
        raise DomainError(f"|n| must be <= j={j}")
    lf = log_factorials(2 * j)
    return np.exp(2.0 * lf[j] - lf[j - n] - lf[j + n])


def const_C(j: int) -> float:
    """C_j = (2j+1)! / (2^j (j!)^2)."""
    if j < 0:
        raise DomainError("j must be >= 0")
    return math.exp(math.lgamma(2 * j + 2) - j * math.log(2.0) - 2.0 * math.lgamma(j + 1))


def weight_vector(j: int) -> np.ndarray:
    return weight_B(np.arange(-j, j + 1), j)


def ell_matrix(a: int, j: int) -> np.ndarray:
    """Matrix of l_a on the psi_n basis.

    l1 psi_n = i(j-n)/2 psi_{n+1} + i(j+n)/2 psi_{n-1}
    l2 psi_n = (n-j)/2 psi_{n+1} + (n+j)/2 psi_{n-1}
    l3 psi_n = i n psi_n

    Raising out of n = j and lowering out of n = -j carry zero coefficient,
    so F^j is invariant.
    """
    if j < 0:
        raise DomainError("j must be >= 0")
    n = np.arange(-j, j + 1)
    if a == 3:
        return np.diag(1j * n)
    if a == 1:
        up, dn = 0.5j * (j - n), 0.5j * (j + n)
    elif a == 2:
        up, dn = 0.5 * (n - j), 0.5 * (n + j)
    else:
        raise DomainError(f"generator index must be 1, 2 or 3, got {a}")
    return (np.diag(up[:-1], -1) + np.diag(dn[1:], 1)).astype(complex)


def casimir_matrix(j: int) -> np.ndarray:
    """Matrix of (-i l1)^2 + (-i l2)^2 + (-i l3)^2; equals j(j+1) I."""
    total = np.zeros((2 * j + 1, 2 * j + 1), dtype=complex)
    for a in (1, 2, 3):
        m = -1j * ell_matrix(a, j)
        total += m @ m
    return total


def gram_matrix(j: int) -> np.ndarray:
    """Diagonal Gram matrix G with G_nn = 1/B_nj."""
    return np.diag(1.0 / weight_vector(j))


def inner_product(u: FourierState, v: FourierState) -> complex:
    """(u, v)_Q = sum_n conj(u_n) v_n / B_nj (antilinear in the first slot)."""
    if u.j != v.j:
        raise DimensionError(f"states live in different F^j: {u.j} != {v.j}")
    return complex(np.sum(u.coeffs.conj() * v.coeffs / weight_vector(u.j)))


def delta_j(q: ComplexQ, qp: ComplexQ, j: int) -> complex:
    """Reproducing kernel delta_j(q, conj(qp)) = sum_n B_nj e^{in(q - conj(qp))}.

    Closed form (2j+1)/C_j * (1 + cos(q - conj(qp)))^j.
    """
    w = q.value - qp.value.conjugate()
    return (2 * j + 1) / const_C(j) * (1.0 + np.cos(w)) ** j


def evaluate_state(u: FourierState, q: ComplexQ) -> complex:
    """Evaluate sum_n c_n e^{inq} at a complex angle.

    Raises OverflowError when |j * beta| is large enough to overflow the
    exponentials, and for any |beta| > 50.
    """
    if abs(q.beta) > 50.0 or u.j * abs(q.beta) > 700.0:
        raise OverflowError(f"|beta|={abs(q.beta)} too large for j={u.j}")
    z = np.exp(1j * q.value)
    powers = z ** np.arange(-u.j, u.j + 1)
    return complex(np.sum(u.coeffs * powers))


@dataclass(frozen=True)
class QRule:
    """Quadrature rule for integrals against dmu_j over alpha, beta.

    kappa is calibrated on the beta sub-rule itself so (psi_0, psi_0)_Q = 1
    holds exactly; the closed form kappa_j = C_j / (2 pi) agrees to rule
    accuracy.
    """

    j: int
    nodes: np.ndarray  # complex q points, flattened
    weights: np.ndarray  # real, includes the measure density and kappa
    beta_max: float


def default_beta_max(j: int, tol: float = 1e-12) -> float:
    """Cutoff making the analytic tail bound ~ kappa_j 2^{j+2} pi e^{-2 beta} < tol."""
    kappa = const_C(j) / TWO_PI
    return 0.5 * math.log(max(kappa, 1.0) * 2.0 ** (j + 2) * TWO_PI / tol) + 1.0


def q_rule(j: int, beta_max: float | None = None) -> QRule:
    """Build the product rule: uniform alpha grid x Gauss-Legendre in beta."""
    if beta_max is None:
        beta_max = default_beta_max(j)
    n_alpha = 2 * j + 4
    # integrand poles at beta = +-i pi/2 bound the Gauss-Legendre rate:
    # error ~ exp(-n pi / beta_max) with a prefactor growing in j (the
    # pole order is j+1), so n must scale with beta_max and j
    n_beta = 224 + 32 * j
    alphas = TWO_PI * np.arange(n_alpha) / n_alpha
    x, wx = gauss_legendre(n_beta)
    betas = beta_max * x
    wb = beta_max * wx
    density = wb / (1.0 + np.cosh(2.0 * betas)) ** (j + 1)
    kappa = 1.0 / (TWO_PI * float(np.sum(density)))

    qs = alphas[:, None] + 1j * betas[None, :]
    ws = np.broadcast_to((TWO_PI / n_alpha) * kappa * density[None, :], qs.shape)
    return QRule(j=j, nodes=qs.ravel(), weights=np.ascontiguousarray(ws.ravel()), beta_max=beta_max)


def _values_on_rule(u: FourierState, rule: QRule) -> np.ndarray:
    phases = np.exp(1j * np.outer(rule.nodes, np.arange(-u.j, u.j + 1)))
    return phases @ u.coeffs


def inner_product_quadrature(
    u: FourierState,
    v: FourierState,
    beta_max: float | None = None,
    tol: float = 1e-8,
) -> complex:
    """(u, v)_Q by explicit quadrature over the complex angle domain.

    Warns with ConvergenceWarning when the analytic beta-tail bound
    (integrand <= ||u||_1 ||v||_1 kappa_j 2^{j+1} e^{-2|beta|}) exceeds tol at
    the chosen cutoff.
    """
    if u.j != v.j:
        raise DimensionError(f"states live in different F^j: {u.j} != {v.j}")
    j = u.j
    rule = q_rule(j, beta_max=beta_max)
    kappa = const_C(j) / TWO_PI
    norm1 = float(np.sum(np.abs(u.coeffs))) * float(np.sum(np.abs(v.coeffs)))
    tail = TWO_PI * kappa * norm1 * 2.0 ** (j + 2) * math.exp(-2.0 * rule.beta_max)
    if tail > tol:
        warnings.warn(
            f"beta tail bound {tail:.3e} exceeds tol={tol:.3e}; increase beta_max",
            ConvergenceWarning,
            stacklevel=2,
        )
    uv = _values_on_rule(u, rule).conj() * _values_on_rule(v, rule)
    return complex(np.sum(rule.weights * uv))
