"""Exception types shared across the package.

Every error raised by the numerical routines derives from ``QHError`` so
callers can distinguish domain failures from programming mistakes.
"""


class QHError(Exception):
    """Base class for all errors raised by this package."""


class CollisionError(QHError):
    """A pairwise distance fell below the collision guard."""


class NotOnSphereError(QHError):
    """A configuration expected on a fixed-inertia sphere is not on it."""


class NoConvergenceError(QHError):
    """An iterative solver exhausted its budget without meeting tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class BracketError(QHError):
    """A root bracket with a sign change could not be found."""


class DegenerateTermError(QHError):
    """A potential term an operation needs is degenerate: at a = 0 the a-term is
    constant and has no shape to gap, and V(s0) = 0 gives no ejection speed."""


class ZeroSizeError(QHError):
    """A transform required a strictly positive configuration size."""


class OffManifoldError(QHError):
    """A state expected on the collision manifold is too far from it."""


class DegenerateError(QHError):
    """A spectrum contains unexpected zero modes, or a linear-algebra step has no answer."""


class MismatchError(QHError):
    """A closed-form count disagrees with an independent numerical count."""


class AdmissibilityError(QHError):
    """A shape lacks the simultaneous central configuration property."""


class EnergySignError(QHError):
    """The requested construction needs the opposite sign of the energy."""


class StiffnessError(QHError):
    """The step size underflowed; the problem is stiff or singular here.

    t and state, when known, are the last accepted time and state.
    """

    def __init__(self, message, t=None, state=None):
        super().__init__(message)
        self.t = t
        self.state = state


class FieldError(QHError):
    """The vector field could not be evaluated at the requested state."""


class DegenerateStateError(QHError):
    """A state normalization was requested for a degenerate state."""
