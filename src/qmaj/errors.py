"""Exception hierarchy shared across the package.

Everything raised on purpose derives from :class:`QmajError`, so callers
(and the CLI) can distinguish our failures from genuine bugs.
"""

from __future__ import annotations


class QmajError(Exception):
    """Base class for all package errors."""


class ConfigError(QmajError):
    """Invalid grid or run configuration (bad N, L, tolerances, ...)."""


class GridMismatchError(QmajError):
    """Two sampled functions do not live on the same grid."""


class NormalizationError(QmajError):
    """Total integrals differ beyond the allowed normalization tolerance.

    Raised as a distinct error, never folded into a comparison verdict.
    """


class ParseError(QmajError):
    """Syntax error in a state or channel specification string."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)


class SpecValidationError(QmajError):
    """A parsed specification is syntactically fine but semantically invalid."""


class UnsupportedStateError(QmajError):
    """Requested representation/state combination has no implemented form."""


class NumericsError(QmajError):
    """Numerical failure: leakage, Nyquist violation, non-PSD noise, ..."""


class LeakageError(NumericsError):
    """A channel output's mass defect, from the window or coarse cells, is too large."""


class NyquistError(NumericsError):
    """A state's reach needs a wavefunction lattice beyond the transform's budget.

    The y step that keeps the Wigner transform alias-free on the window
    shrinks as the state's momentum reach grows; the lattice is refused
    before it is allocated.
    """


class ChannelError(NumericsError):
    """Ill-formed channel data (singular X, Y not PSD, non-symplectic S)."""


class ScanError(NumericsError):
    """Threshold scan failed, e.g. no verdict sign change in the bracket."""
