"""Exception hierarchy shared across the package."""


class QstarError(Exception):
    """Base class for all package-specific errors."""


class PrecisionError(QstarError):
    """A certified bound could not be met at the working precision."""


class PrecisionCapError(PrecisionError):
    """Precision doubling hit the hard cap before certification."""


class SeriesPrecisionError(QstarError):
    """A coefficient beyond the known precision of a series was requested."""


class DatasetError(QstarError):
    """A dataset file or object violates the schema."""


class InconsistentDatasetError(DatasetError):
    """Series data contradicts the algebraic model (not a truncation issue)."""


class NonIntegralCoefficientError(DatasetError):
    """Derived equation coefficients failed the integrality check."""


class InsufficientPrecisionError(QstarError):
    """Input data is too short for the requested computation."""


class FactorizationError(QstarError):
    """An integer could not be factored within the effort budget."""


class InputError(QstarError):
    """Malformed user input (CLI arguments, point parsing, ...)."""
