"""Exception and warning types shared across the package."""


class DomainError(ValueError):
    """Argument outside the domain an operation is defined on."""


class DimensionError(ValueError):
    """Array or matrix has a shape incompatible with the requested j."""


class ToleranceError(RuntimeError):
    """A verified identity exceeded its tolerance."""


class DegenerateParamsError(ValueError):
    """Moments of inertia too close for a route that needs a strict ordering."""


class RootCountError(RuntimeError):
    """Recurrence produced the wrong number of admissible energies."""


class NotTerminatingError(RuntimeError):
    """Series coefficients fail the termination condition at the given E."""


class PoleError(ArithmeticError):
    """Mobius map evaluated at its pole."""


class SingularInput(ValueError):
    """Input where a closed-form expression degenerates."""


class ConvergenceWarning(UserWarning):
    """Quadrature tail bound exceeds the requested tolerance."""


class DegeneracyWarning(UserWarning):
    """Nearly degenerate energies with arbitrary eigenvectors.  No longer
    raised (states come from class-pure blocks); kept for callers that
    filter on it."""
