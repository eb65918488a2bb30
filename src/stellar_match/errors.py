"""Exception types shared across the package."""


class StellarMatchError(Exception):
    """Base class for all package-specific errors."""


class EosValidityError(StellarMatchError):
    """An equation-of-state operation was asked for a state outside the
    range where the defining inequalities (P > 0, 0 < dP/drho < c^2) hold."""


class NonTerminationError(StellarMatchError):
    """An integration hit a guard (range cap, horizon approach, ...) instead
    of its expected terminal event.  Carries a short machine-readable label."""

    def __init__(self, label, message):
        super().__init__(message)
        self.label = label


class ShootFailureError(NonTerminationError):
    """A stellar-structure shot ended on a guard exit.  The partial
    trajectory is attached for diagnostics."""

    def __init__(self, label, message, trajectory=None):
        super().__init__(label, message)
        self.trajectory = trajectory


class AdmissibilityError(StellarMatchError):
    """Boundary data (R, M) violates R > 0, M > 0 or 1 - 2M/(c^2 R) > 0."""


class FitConvergenceError(StellarMatchError):
    """An ellipsoid fit found no minimum: the sum of squares keeps falling
    as 1 + a1 goes to 0 or to infinity."""


class ConfigError(StellarMatchError):
    """A run configuration failed schema validation."""
