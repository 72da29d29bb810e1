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
from typing import NamedTuple

import numpy as np

from .caching import memoize
from .errors import ConvergenceWarning, DimensionError, DomainError
from .so3 import TWO_PI, gauss_legendre

# largest log magnitude of a basis value (e^340 ~ 1e147): sums of products of
# two values (|Psi|^2, Gram entries, completeness) stay below e^709.78
LOG_MAX = 340.0


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


def check_dimension(j: int, vec: np.ndarray) -> np.ndarray:
    """Validate a length-(2j+1) coefficient vector; returns it as complex."""
    arr = np.asarray(vec, dtype=complex)
    if arr.shape != (2 * j + 1,):
        raise DimensionError(f"expected shape ({2 * j + 1},), got {arr.shape}")
    return arr


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
    if j < 0:
        raise DomainError("j must be >= 0")
    n = np.asarray(n)
    if (np.abs(n) > j).any():
        raise DomainError(f"|n| must be <= j={j}")
    lf = log_factorials(2 * j)
    return np.exp(2.0 * lf[j] - lf[j - n] - lf[j + n])


# largest j whose smallest B_nj is normal: smallest_weight(513) = 5.58e-308,
# smallest_weight(514) = 1.40e-308 < tiny = 2.23e-308
NORMAL_WEIGHT_JMAX = 513


def smallest_weight(j: int) -> float:
    """The smallest B_nj, (j!)^2 / (2j)! at n = +-j, in closed form: below
    the normal float range past NORMAL_WEIGHT_JMAX, where what divides by
    sqrt(B_nj) or scales by it loses bits."""
    if j < 0:
        raise DomainError("j must be >= 0")
    return np.exp(2.0 * math.lgamma(j + 1.0) - math.lgamma(2.0 * j + 1.0))


def const_C(j: int) -> float:
    """C_j = (2j+1)! / (2^j (j!)^2), about (2j+1) 2^j / sqrt(pi j): past max
    float from j = 1019, where OverflowError names j."""
    if j < 0:
        raise DomainError("j must be >= 0")
    try:
        return math.exp(math.lgamma(2 * j + 2) - j * math.log(2.0) - 2.0 * math.lgamma(j + 1))
    except OverflowError:
        raise OverflowError(f"C_j at j={j} leaves the float range") from None


@memoize
def weight_vector(j: int) -> np.ndarray:
    """B_nj for n = -j..j, read-only and memoized."""
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
    return casimir_from([ell_matrix(a, j) for a in (1, 2, 3)])


def casimir_from(ells) -> np.ndarray:
    """(-i l1)^2 + (-i l2)^2 + (-i l3)^2 of the matrices ells = (l1, l2, l3),
    or of three equal stacks of them, one product per matrix."""
    total = np.zeros(np.shape(ells[0]), dtype=complex)
    for ell in ells:
        m = -1j * ell
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

    Closed form (2j+1)/C_j * (1 + cos(q - conj(qp)))^j, refused as
    scaled_power refuses.
    """
    w = q.value - qp.value.conjugate()
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite base is refused
        base = 1.0 + np.cos(w)
    return scaled_power((2 * j + 1) / const_C(j), base, j)


def _refuse_past_log_max(top, j: int) -> None:
    """OverflowError where a log magnitude `top` exceeds LOG_MAX or is NaN."""
    if not (np.asarray(top) <= LOG_MAX).all():
        raise OverflowError(f"e^(inq) values reach e^{np.max(top):.4g} at j={j}, above e^{LOG_MAX:g}")


def scaled_power(prefactor: float, base, j: int):
    """prefactor * base^j, the closed form of a sum over e^{inq} (delta_j and
    the kernel); broadcasts over base.

    The direct power, after the rule of fourier_basis on its log magnitude,
    log(prefactor) + j log|base|: OverflowError past LOG_MAX or at NaN.
    np.power rounds an array as it rounds one value (the ** operator squares
    complex arrays with fused multiply-adds), so a point of an array call
    equals its one-point call.
    """
    if j:
        with np.errstate(divide="ignore", invalid="ignore"):  # log 0 = -inf is in range
            top = math.log(prefactor) + j * np.log(np.abs(base))
        _refuse_past_log_max(top, j)
    return prefactor * np.power(base, j)


@memoize
def fourier_exponents(j: int) -> np.ndarray:
    """i n for n = -j..j, the exponents of e^{inq} per unit q: read-only and
    memoized, read by fourier_basis, fourier_point and the phases of
    wigner.wigner_D_matrix and the kernel action."""
    return 1j * np.arange(-j, j + 1)


def fourier_basis(j: int, q, log_scale=0.0) -> np.ndarray:
    """e^{log_scale + inq} for n = -j..j on a new trailing axis.

    Every sum_n c_n e^{inq} of the package is this table times c.  A
    prefactor (Psi's base^j, a quadrature weight) rides in the exponent as
    log_scale, which broadcasts against q.  OverflowError where the largest
    log magnitude, Re(log_scale) + j |Im q|, exceeds LOG_MAX or is NaN.
    """
    q, log_scale = np.asarray(q), np.asarray(log_scale)
    _refuse_past_log_max(log_scale.real + j * abs(q.imag), j)
    out = q[..., None] * fourier_exponents(j)
    out += log_scale[..., None]
    return np.exp(out, out=out)


def fourier_sum(q, coeffs, log_scale=0.0) -> np.ndarray:
    """sum_n c_n e^{log_scale + inq} at every point of q: the fourier_basis
    table contracted with coeffs, one row per point or one row for all.

    Each point is its own dot product, so it rounds as a one-point call
    does (a matrix-vector product over many points rounds differently).
    """
    coeffs = np.asarray(coeffs)
    basis = fourier_basis((coeffs.shape[-1] - 1) // 2, q, log_scale)
    return (basis[..., None, :] @ coeffs[..., :, None])[..., 0, 0]


def fourier_point(q, coeffs, log_scale=0.0):
    """fourier_sum at one complex angle q (a scalar, as log_scale is), with
    one coefficient row: the same refusal, the same row of fourier_basis
    and the same dot product, so it equals fourier_sum at that point bit
    for bit, without the broadcasting.  Returns a numpy complex."""
    j = (len(coeffs) - 1) // 2
    top = log_scale.real + j * abs(q.imag)
    if not top <= LOG_MAX:
        _refuse_past_log_max(top, j)
    row = q * fourier_exponents(j)
    row += log_scale
    return np.dot(np.exp(row, out=row), coeffs)


def _refuse_beta(beta) -> None:
    """OverflowError for any |Im q| = beta above LOG_MAX, the bound
    psi_eval's phase map has."""
    if np.count_nonzero(beta > LOG_MAX):
        raise OverflowError(f"|beta|={np.max(beta)} too large")


def state_values(q, coeffs) -> np.ndarray:
    """evaluate_state at every point of the complex angles q, with one
    coefficient row per point or one row for all (fourier_sum).
    OverflowError for any |Im q| > LOG_MAX (_refuse_beta), and where
    fourier_basis refuses (j |Im q| > LOG_MAX)."""
    _refuse_beta(np.abs(np.imag(q)))
    return fourier_sum(q, coeffs)


def state_value(q, coeffs):
    """state_values at one complex angle q, with one coefficient row: its
    refusals, then fourier_point, equal to it bit for bit."""
    if abs(q.imag) > LOG_MAX:
        _refuse_beta(abs(q.imag))
    return fourier_point(q, coeffs)


def evaluate_state(u: FourierState, q: ComplexQ) -> complex:
    """Evaluate sum_n c_n e^{inq} at a complex angle: state_value, with its
    refusals."""
    return complex(state_value(q.value, u.coeffs))


@dataclass(frozen=True)
class QRule:
    """Quadrature rule for integrals against dmu_j over alpha, beta.

    The product of a uniform alpha grid (`alphas`) and Gauss-Legendre nodes
    in beta (`betas`, with `beta_log_weights`, the log of the density and
    kappa; the weights underflow from j = 14).  kappa is calibrated on the
    beta sub-rule itself so (psi_0, psi_0)_Q = 1 holds exactly; the closed
    form kappa_j = C_j / (2 pi) agrees to rule accuracy.

    Node alpha_a + i beta_b has weight w_b, and sqrt(w_b) e^{inq} there is
    A[a, n] B[b, n] with A = e^{in alpha_a} and B = sqrt(w_b) e^{-n beta_b}.
    The node sum then factors by axis: the Gram of the basis over the nodes
    is the Hadamard product (A^H A) o (B^H B) of one Gram per axis.  The
    flattened product grid is q_grid's.
    """

    j: int
    alphas: np.ndarray
    betas: np.ndarray
    beta_log_weights: np.ndarray
    beta_max: float

    def basis_by_axis(self, power: float) -> tuple[np.ndarray, np.ndarray]:
        """(e^{in alpha_a}, w_b^power e^{-n beta_b}) from fourier_basis, n on
        the last axis: w^power e^{inq} at node (a, b) is their product."""
        return fourier_basis(self.j, self.alphas), fourier_basis(self.j, 1j * self.betas, power * self.beta_log_weights)


def default_beta_max(j: int, tol: float = 1e-12) -> float:
    """Cutoff making the analytic tail bound ~ kappa_j 2^{j+2} pi e^{-2 beta} < tol."""
    kappa = const_C(j) / TWO_PI
    return 0.5 * math.log(max(kappa, 1.0) * 2.0 ** (j + 2) * TWO_PI / tol) + 1.0


def q_rule(j: int, beta_max: float | None = None) -> QRule:
    """The product rule, uniform alpha grid x Gauss-Legendre in beta, with
    cutoff beta_max (default_beta_max(j) when None), read-only and memoized
    per j and cutoff (caching).

    The 224 + 32j beta nodes and weights come from so3.gauss_legendre, exactly
    symmetric about beta = 0; a cold build at j = 40 spends about 10 ms on
    them."""
    return _q_rule(j, default_beta_max(j) if beta_max is None else beta_max)


@memoize
def _q_rule(j: int, beta_max: float) -> QRule:
    """q_rule's build, keyed by (j, beta_max)."""
    n_alpha = 2 * j + 4
    # integrand poles at beta = +-i pi/2 bound the Gauss-Legendre rate:
    # error ~ exp(-n pi / beta_max) with a prefactor growing in j (the
    # pole order is j+1), so n must scale with beta_max and j
    n_beta = 224 + 32 * j
    x, wx = gauss_legendre(n_beta)
    betas = beta_max * x
    # log of the density wb / (1 + cosh 2 beta)^{j+1}, 1 + cosh 2b = (e^b + e^-b)^2 / 2
    log_density = np.log(beta_max * wx) - (j + 1) * (2.0 * np.logaddexp(betas, -betas) - math.log(2.0))
    top = log_density.max()  # kappa: the weights sum to 1
    log_sum = top + math.log(n_alpha * float(np.sum(np.exp(log_density - top))))
    return QRule(j, TWO_PI * np.arange(n_alpha) / n_alpha, betas, log_density - log_sum, beta_max)


class QGrid(NamedTuple):
    """The nodes of a q_rule flattened, alpha slowest, and their log weights."""

    nodes: np.ndarray
    log_weights: np.ndarray


@memoize
def q_grid(j: int, beta_max: float) -> QGrid:
    """The flattened grid of q_rule(j, beta_max), read-only and memoized; no
    sum of the package reads it, each is taken by axes."""
    rule = q_rule(j, beta_max)
    qs = rule.alphas[:, None] + 1j * rule.betas[None, :]
    return QGrid(qs.ravel(), np.broadcast_to(rule.beta_log_weights, qs.shape).ravel())


def quadrature_gram(rule: QRule) -> np.ndarray:
    """Gram of sqrt(B_n) e^{inq}, n = -j..j, over the rule's nodes: the
    identity when the rule integrates the pairing diag(1/B_nj) exactly.

    Summed by axes (QRule): the Hadamard product of the alpha Gram of
    e^{in alpha_a} and the beta Gram of the real sqrt(w_b B_n) e^{-n beta_b}.
    OverflowError where fourier_basis refuses the node table.
    """
    along_alpha, along_beta = rule.basis_by_axis(0.5)
    along_beta = along_beta.real * np.sqrt(weight_vector(rule.j))
    return (along_alpha.conj().T @ along_alpha) * (along_beta.T @ along_beta)


def inner_product_quadrature(
    u: FourierState,
    v: FourierState,
    beta_max: float | None = None,
    tol: float = 1e-8,
) -> complex:
    """(u, v)_Q by explicit quadrature over the complex angle domain.

    Warns with ConvergenceWarning when the analytic beta-tail bound
    (integrand <= ||u||_1 ||v||_1 kappa_j 2^{j+1} e^{-2|beta|}) exceeds tol at
    the chosen cutoff.  The rule is q_rule's product grid, and
    sqrt(w_b) e^{in(alpha_a + i beta_b)} = e^{in alpha_a} sqrt(w_b) e^{-n beta_b},
    so each state's values on the grid are one (alpha, n) x (n, beta) matrix
    product of the rule's two axis tables: no node-by-n table is formed.
    """
    if u.j != v.j:
        raise DimensionError(f"states live in different F^j: {u.j} != {v.j}")
    j = u.j
    rule = q_rule(j, beta_max)
    norm1 = float(np.sum(np.abs(u.coeffs))) * float(np.sum(np.abs(v.coeffs)))
    tail = const_C(j) * norm1 * 2.0 ** (j + 2) * math.exp(-2.0 * rule.beta_max)  # 2 pi kappa_j = C_j
    if tail > tol:
        warnings.warn(
            f"beta tail bound {tail:.3e} exceeds tol={tol:.3e}; increase beta_max",
            ConvergenceWarning,
            stacklevel=2,
        )
    along_alpha, along_beta = rule.basis_by_axis(0.5)  # e^{in alpha}, sqrt(w) e^{-n beta}
    return complex(np.vdot((along_alpha * u.coeffs) @ along_beta.T, (along_alpha * v.coeffs) @ along_beta.T))
