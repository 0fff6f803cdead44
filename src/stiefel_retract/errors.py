"""Exception types raised by the library.

All library errors derive from :class:`StiefelRetractError` so callers can
catch everything with one handler while still distinguishing validation-time
failures (``RankDeficientError``) from computation-time breakdown
(``NumericalRankLossError``, ``InternalRankLossError``).
"""


class StiefelRetractError(Exception):
    """Base class for every error raised by this package."""


class NonFiniteError(StiefelRetractError):
    """A matrix or vector contains NaN or infinite entries."""


class DimensionError(StiefelRetractError):
    """Shapes are incompatible with the requested operation."""


class RankDeficientError(StiefelRetractError):
    """Columns failed the linear-independence test at validation time;
    ``index`` is the failing matrix's position in a checked stack (0 for one)."""

    def __init__(self, message: str, index: int = 0):
        super().__init__(message)
        self.index = index


class NumericalRankLossError(StiefelRetractError):
    """Input passed validation but collapsed under roundoff while
    orthonormalizing, or its R or coefficient matrix left the float range.

    Distinct from :class:`RankDeficientError` so callers can tell
    validation-time from computation-time failure.
    """


class InternalRankLossError(StiefelRetractError):
    """A homotopy point failed its rank certificate; signals numerical
    breakdown that should not occur for well-conditioned inputs."""


class NotOrthonormalError(StiefelRetractError):
    """Columns are not orthonormal within tolerance."""

    def __init__(self, message: str, deviation: float):
        super().__init__(message)
        self.deviation = deviation


class DomainError(StiefelRetractError):
    """A scalar parameter lies outside its admissible set."""


class ZeroVectorError(StiefelRetractError):
    """The vector is zero, so it has no direction to normalize."""


class MatrixFormatError(StiefelRetractError):
    """A matrix file, text block or array could not be read as reals."""
