"""Spectrum and wavefunctions of the quantum asymmetric top.

Three independent routes to the same 2j+1 levels per angular momentum j:
the Hamiltonian in the Wigner basis, polynomial series solutions of the
reduced second-order equation, and first-order generators acting on
trigonometric polynomials of one complex angle.  Each builds its own real
entries and is solved as four symmetric tridiagonal blocks, one per D2
class.  Cross-checks between the routes, the reproducing kernel, and the
Haar/complex-angle quadratures live in asymtop.verify and behind the
`asymtop verify` command.
"""

from .errors import (
    ConvergenceWarning,
    DegeneracyWarning,
    DegenerateParamsError,
    DimensionError,
    DomainError,
    NotTerminatingError,
    PoleError,
    RootCountError,
    SingularInput,
)
from .lambda_rep import (
    ComplexQ,
    FourierState,
    casimir_matrix,
    const_C,
    delta_j,
    ell_matrix,
    evaluate_state,
    fourier_basis,
    fourier_sum,
    gram_matrix,
    inner_product,
    inner_product_quadrature,
    q_grid,
    q_rule,
    state_values,
    weight_B,
    weight_vector,
)
from .so3 import (
    IDENTITY,
    EulerAngles,
    HaarRule,
    compose,
    euler_to_matrix,
    haar_grid,
    haar_rule,
    inverse,
    matrix_to_euler,
    orbit_derivatives,
    orbits,
    rotation,
)
from .spectra import (
    ROUTES,
    EnergyLevel,
    LameSeries,
    SpectrumTable,
    TopParams,
    h_matrix_lambda,
    h_matrix_wigner,
    lame_polynomial,
    lame_recurrence,
    lame_residual,
    lame_series_eval,
    lame_spectrum,
    phi_rows,
    phi_state,
    phi_state_series,
    phi_states,
    require_strict,
    rho_map,
    spectrum,
    spectrum_range,
)
from .verify import CheckResult, run_all
from .wavefunctions import (
    completeness_defect,
    completeness_sides,
    kernel_conj_defect,
    kernel_eval,
    kernel_factored,
    kernel_factored_from_phase,
    kernel_gram,
    kernel_values,
    mobius_phase,
    phase_map,
    pde_residual,
    psi_eval,
    psi_grid,
    psi_from_phase,
    psi_via_kernel,
    psi_via_kernel_values,
    so3_norm,
    state_jms,
    t_matrix,
    t_matrix_quadrature,
    uncertainty,
)
from .wigner import (
    angular_momentum_matrices,
    polar_d,
    wigner_D,
    wigner_D_matrix,
    wigner_d_apply,
    wigner_d_matrix,
    wigner_gram,
    wigner_small_d,
)

__version__ = "0.1.0"
