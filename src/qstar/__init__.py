"""qstar: exact models and j-invariant pipelines for genus-2 quotient curves.

Builds integral sextic models y**2 = f(x) from eigenform q-expansion data,
expresses symmetric functions of divisor-rescaled j-functions in a
Riemann-Roch monomial basis, evaluates them at rational points, factors the
resulting j-polynomials over Q, identifies the number fields the roots live
in, and tests roots for complex multiplication.
"""

from .errors import (
    DatasetError,
    FactorizationError,
    InconsistentDatasetError,
    InputError,
    InsufficientPrecisionError,
    NonIntegralCoefficientError,
    PrecisionCapError,
    PrecisionError,
    QstarError,
    SeriesPrecisionError,
)

__version__ = "0.1.0"

__all__ = [
    "QstarError",
    "PrecisionError",
    "PrecisionCapError",
    "SeriesPrecisionError",
    "DatasetError",
    "InconsistentDatasetError",
    "NonIntegralCoefficientError",
    "InsufficientPrecisionError",
    "FactorizationError",
    "InputError",
    "__version__",
]
