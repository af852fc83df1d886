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

    A subclass lists its fields in ``__slots__``; the constructor binds
    positional and keyword arguments to them by name and raises TypeError
    on a missing, unknown or repeated field or a surplus argument. A subclass
    that checks or normalizes its arguments defines its own ``__init__`` and
    passes one value per slot, in slot order, to ``Value.__init__``. Two
    instances are equal when they have the same class and equal fields,
    the hash is that of the tuple of fields, and ``repr`` reads
    ``Name(field=value, ...)``. Assigning to or deleting any attribute
    raises AttributeError. Nothing is generated or compiled when a
    subclass is defined.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls.__slots__)
        # the tuple of fields; attrgetter gives a bare value for one name
        cls._key = staticmethod(get if len(cls.__slots__) > 1 else lambda v: (get(v),))

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """One value per slot from positional and keyword arguments."""
        names = cls.__slots__
        if len(args) > len(names):
            raise TypeError(
                f"{cls.__qualname__}() takes {len(names)} fields, got {len(args)}"
            )
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(f"{cls.__qualname__}() has no field {name!r}")
            if name in values:
                raise TypeError(f"{cls.__qualname__}() got field {name!r} twice")
            values[name] = value
        missing = [n for n in names if n not in values]
        if missing:
            raise TypeError(f"{cls.__qualname__}() is missing fields {missing}")
        return tuple(values[n] for n in names)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        args = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
