"""Exception hierarchy and the immutable value base shared across the package."""

from operator import attrgetter


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


class Value:
    """Base of the package's immutable value classes, built from ``__slots__``.

    A subclass lists its fields in ``__slots__`` and sets them in its own
    ``__init__`` through ``Value.__init__``, which takes one value per slot in
    slot order. Two instances are equal when they have the same class and
    equal public fields, the hash is that of the tuple of public fields, and
    ``repr`` reads ``Name(field=value, ...)``. A slot whose name starts with
    an underscore is private state that none of these see. Assigning to or
    deleting any attribute raises AttributeError. Nothing is generated or
    compiled when a subclass is defined.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(n for n in cls.__slots__ if not n.startswith("_"))
        get = attrgetter(*cls._fields)
        # the tuple of public fields; attrgetter gives a bare value for one name
        cls._key = staticmethod(get if len(cls._fields) > 1 else lambda v: (get(v),))

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        args = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
