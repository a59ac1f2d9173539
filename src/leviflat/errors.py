"""Exception hierarchy shared by all leviflat modules."""


class LeviflatError(Exception):
    """Base class for all errors raised by this package."""


# --- geometry ---------------------------------------------------------------

class SingularMatrix(LeviflatError):
    """J_st + J(z) is not invertible at a requested sample."""


class StepTooLarge(LeviflatError):
    """Finite-difference Richardson consistency check failed."""


class DiscSolveFailed(LeviflatError):
    """Local probe-disc iteration did not contract."""


class FieldDomainError(LeviflatError):
    """Scalar field evaluated outside its domain of definition."""


# --- disc calculus ----------------------------------------------------------

class Underresolved(LeviflatError):
    """Grid resolution is insufficient for the requested operation."""


class NotReal(LeviflatError):
    """Boundary field violates the real-valuedness invariant."""


class ZeroOnCircle(LeviflatError):
    """Boundary field vanishes (numerically) somewhere on the circle."""


# --- RH solver --------------------------------------------------------------

class NonzeroIndex(LeviflatError):
    """Canonical function requested for a coefficient of nonzero index."""


class NegativeIndexUnsupported(LeviflatError):
    """Riemann-Hilbert problems of negative index are not handled."""


class NoContraction(LeviflatError):
    """Fixed-point sweep failed to converge."""


# --- bishop -----------------------------------------------------------------

class NegativeGamma(LeviflatError):
    """Complex-point invariant gamma must be nonnegative."""


class AdaptationFailure(LeviflatError):
    """Chart fails an adapted-coordinates normalization clause."""


class NewtonStalled(LeviflatError):
    """Gauss-Newton step produced no residual decrease after backtracking."""


class WindingChanged(LeviflatError):
    """Disc iterate left the winding-zero homotopy class."""


class MaxIterations(LeviflatError):
    """Iteration budget exhausted before reaching tolerance."""


class ResidualTooLarge(LeviflatError):
    """Post-verification residual exceeds the contract tolerance."""


# --- continuation -----------------------------------------------------------

class ComplexPointProximity(LeviflatError):
    """Characteristic field requested too close to a complex point."""


class LeafStalled(LeviflatError):
    """Characteristic leaf not found as a graph over the polar angle: the
    field is tangent to a latitude (the slope is not finite), or the Picard
    sweeps did not converge."""


class BlowUp(LeviflatError):
    """Gradient blow-up along the disc family (bubble diagnostic)."""

    def __init__(self, max_grad, t):
        super().__init__(f"gradient blow-up: max_grad={max_grad:.6g} at t={t:.6g}")
        self.max_grad = max_grad
        self.t = t


class StepUnderflow(LeviflatError):
    """Continuation step size fell below its lower bound; `rejected` holds
    the family's failed steps, as in DiscFamily.rejected."""

    def __init__(self, message, rejected=()):
        super().__init__(message)
        self.rejected = list(rejected)


class NoMatch(LeviflatError):
    """Gluing found no pair of discs within tolerance."""


class FrameDegenerate(LeviflatError):
    """Projected surface tangent frame vanishes along the disc boundary."""


# --- cli --------------------------------------------------------------------

class ConfigError(LeviflatError):
    """Invalid run configuration."""
