"""Exception taxonomy shared across the package."""

__all__ = [
    "BracketError", "ConfigError", "DomainError", "FitError", "GimbalLockError",
    "IntegrationError", "InternalInconsistency", "IoError", "RotwaveError", "SingularityError",
]


class RotwaveError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(RotwaveError):
    """An input lies outside the documented domain of an operation."""


class SingularityError(RotwaveError):
    """Evaluation at a structural singularity (e.g. dexpinv as |Z| approaches 2*pi)."""


class IntegrationError(RotwaveError):
    """The adaptive ODE solve failed, stalled, or returned an invalid state."""


class GimbalLockError(RotwaveError):
    """The Euler-angle chart was evaluated too close to its coordinate singularity."""


class InternalInconsistency(RotwaveError):
    """Quantities that must agree by construction do not (indicates an upstream bug)."""


class BracketError(RotwaveError):
    """A root bracket does not straddle a sign change."""


class FitError(RotwaveError):
    """A geometric fit is under-determined or rank-deficient."""


class ConfigError(RotwaveError):
    """Invalid configuration value, scenario name, or override."""


class IoError(RotwaveError):
    """An output path could not be written."""
