"""Exception types raised across the package."""


class DyadwaveError(Exception):
    """Base class for all package-specific errors."""


class ParseError(DyadwaveError):
    """Malformed registry or config file; message carries file and line."""

    def __init__(self, path, line, message):
        self.path = str(path)
        self.line = line
        super().__init__(f"{self.path}:{line}: {message}")


class NonSimpleEigenvalue(DyadwaveError):
    """Integer refinement matrix has a degenerate eigenvalue-1 eigenspace."""


class DepthOverflow(DyadwaveError):
    """Requested dyadic table depth outside the supported range."""


class DepthMismatch(DyadwaveError):
    """Binary grid operation on functions with different grid depths."""


class BadExponent(DyadwaveError):
    """L_p exponent outside the open interval (1, inf)."""


class ResolutionExhausted(DyadwaveError):
    """Grid depth leaves no headroom for the requested synthesis."""


class AxisOutOfRange(DyadwaveError):
    """Axis index not valid for the function's dimension."""


class LevelOverflow(DyadwaveError):
    """Projection level above the resolution cap of the grid."""


class NonProductPattern(DyadwaveError):
    """Sign table does not factor as a per-axis product pattern."""


class TooManyTerms(DyadwaveError):
    """Coefficient family too large for exact sign enumeration."""


class AlphaTooSmall(DyadwaveError):
    """No admissible root interval: every candidate average exceeds alpha."""


class DegenerateF(DyadwaveError):
    """Closed set F carries no grid mass inside the truncation window."""


class FrameTooLarge(DyadwaveError):
    """An output frame would take more than its share of physical memory."""


class BankRejected(DyadwaveError):
    """Filter bank failed the biorthogonality acceptance gate."""
