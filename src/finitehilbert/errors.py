"""Exception types shared across the toolkit."""


class FhtError(Exception):
    """Base class for all toolkit errors."""


class NonFiniteSample(FhtError):
    """A function evaluated to a non-finite value at a required node."""


class DegenerateGrid(FhtError):
    """A sampled function has too few points for the requested computation."""


class SingularEvaluation(FhtError):
    """The transform target point hit a non-finite value of the integrand."""


class NonFiniteResult(FhtError):
    """A computed transform overflowed to inf or NaN for finite input."""


class NoConvergence(FhtError):
    """Adaptive quadrature exhausted its panel budget without meeting tolerance."""


class UnsupportedExponents(FhtError):
    """A route cannot take this input: no closed form covers its exponents, or it
    needs an endpoint-weighted function and got a plain callable."""


class PointOutsideWindow(FhtError):
    """A transform point lies outside the interior window [-1+eps_edge, 1-eps_edge]."""


class ExponentOutOfRange(FhtError):
    """A weight exponent violates the admissible window."""


class NotSolvable(FhtError):
    """Right-hand side fails the high-regime solvability condition."""

    def __init__(self, residual):
        super().__init__(f"residual {residual:.6e}")
        self.residual = residual


class BranchViolation(FhtError):
    """The Moebius image (1+lambda)/(1-lambda) landed on the branch cut."""


class OutsideEigenvalueSet(FhtError):
    """lambda lies on the real rays (-inf,-1] or [1,inf)."""


class UnsupportedDescriptor(FhtError):
    """No classification table covers this space descriptor."""


class FunctionSpecError(FhtError):
    """A textual function descriptor could not be parsed."""
