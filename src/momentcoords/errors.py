"""Exception types shared across the package."""


class MomentCoordsError(Exception):
    """Base class for all library errors."""


class SingularMatrix(MomentCoordsError):
    """A pivot fell below the singularity threshold during elimination."""


class InvalidGeometry(MomentCoordsError):
    """Vertex data violates a geometry invariant (simplicity, planarity, ...)."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class DegenerateTriangle(MomentCoordsError):
    """A triangle with (numerically) zero area cannot carry barycentric coordinates."""


class NotConvex(MomentCoordsError):
    """A convex-only operation was applied to a nonconvex geometry."""


class DomainError(MomentCoordsError):
    """Base class for evaluation-point domain violations."""


class OutOfDomain(DomainError):
    """1D query point lies outside the node interval."""


class OutsideDomain(DomainError):
    """2D/3D query point lies outside the geometry."""


class OnBoundary(DomainError):
    """A strictly-interior formula was evaluated on the boundary."""


class FrameNotFound(MomentCoordsError):
    """No reference frame satisfying the required sign pattern was found."""
