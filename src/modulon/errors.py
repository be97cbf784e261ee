"""Exception types shared across the package."""


class ModulonError(Exception):
    """Base class for all package errors."""


class DomainError(ModulonError):
    """Argument outside the documented domain (bad frequency, Bloch shift, grid)."""


class BadDataError(DomainError):
    """Malformed persisted data: a field snapshot or a wave sidecar."""


class GridMismatchError(ModulonError):
    """Two fields with incompatible (q, N) grids."""


class DivergenceError(ModulonError):
    """Newton iteration failed to converge; carries the last residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class DegenerateJacobianError(ModulonError):
    """Bordered Jacobian numerically singular."""


class ContinuationStallError(ModulonError):
    """Amplitude continuation step fell below the minimal step size."""


class InsufficientDataError(ModulonError):
    """Not enough usable samples for a requested fit."""


class BandFitError(ModulonError):
    """Band-edge fit failed (no interior maximum, or all model orders poor)."""


class RationalApproximationError(ModulonError):
    """No rational approximation within tolerance under the denominator cap."""


class ContourError(ModulonError):
    """Spectral contour touches or nearly touches an eigenvalue."""


class StructureViolationError(ModulonError):
    """Hamiltonian structure counts violated on a truncation (grid too coarse)."""


class PropagatorRangeError(ModulonError):
    """Matrix exponential would overflow at the requested time."""

    def __init__(self, message, t_cap=None):
        super().__init__(message)
        self.t_cap = t_cap


class BlowupError(ModulonError):
    """Time integration produced non-finite coefficients; carries last good time."""

    def __init__(self, message, last_time=None):
        super().__init__(message)
        self.last_time = last_time


class DomainTooSmallError(ModulonError):
    """Wave-packet envelope reaches its periodic image; carries a suggested Q."""

    def __init__(self, message, suggested_Q=None):
        super().__init__(message)
        self.suggested_Q = suggested_Q


class ConfigError(ModulonError):
    """Malformed or out-of-range run configuration."""
