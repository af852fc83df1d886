"""Cusp-form q-expansion datasets and sextic model derivation.

A dataset carries the echelonized weight-2 basis pair (h1, h2) for one level
to a stated q-precision.  From it the coordinate functions x = h1/h2 and
y = -q (dx/dq) / h2 come out as exact Laurent series, and matching the
principal part of y^2 - x^6 against powers of x recovers the sextic model.
The residual of the relation over all remaining known coefficients is the
dataset's consistency certificate.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from importlib import resources
from math import lcm
from typing import Optional

from .algnum import squarefree_kernel
from .errors import (
    DatasetError,
    FactorizationError,
    InconsistentDatasetError,
    InputError,
    InsufficientPrecisionError,
    NonIntegralCoefficientError,
    PrecisionError,
    Value,
)
from .hyperelliptic import SexticCurve
from .series import LaurentSeries

__all__ = [
    "ModularDataset",
    "ValidationReport",
    "echelon_series",
    "echelonize",
    "coordinates",
    "coordinate_series",
    "relation_residual",
    "derive_equation",
    "validate_dataset",
    "dataset_from_json",
    "dataset_to_json",
    "load_dataset",
    "bundled_dataset_levels",
]

# The residual y^2 - f(x) has precision P - 8, so at P = 16 derive_equation
# checks q^1..q^7 and at P = 19 q^1..q^10; validate_dataset counts checks
# past those 10 as extra, and so reports 0 extra for every P <= 19.
_MIN_DERIVE_PRECISION = 16


class ModularDataset(Value):
    """Echelon basis pair of a level: h1 = q + 0 q^2 + ..., h2 = q^2 + ...

    ``h1`` lists the integer coefficients of q^1 ... q^(precision-1) and
    ``h2`` those of q^2 ... q^(precision-1). A level that only Pollard rho
    could show square-free has two prime factors past trial division, far
    past every level the procedure applies to, and raises PrecisionError.
    """

    __slots__ = ("level", "precision", "h1", "h2")

    def __init__(self, level: int, precision: int, h1: tuple, h2: tuple):
        try:
            squarefree = level >= 1 and squarefree_kernel(level, budget=0)[1] == 1
        except FactorizationError:
            raise PrecisionError(
                f"level {level} could be shown square-free only by Pollard rho; "
                "refused before factoring"
            ) from None
        if not squarefree:
            raise DatasetError(f"level must be square-free, got {level}")
        if precision < 3:
            raise DatasetError(f"precision must be at least 3, got {precision}")
        if len(h1) != precision - 1 or len(h2) != precision - 2:
            raise DatasetError("coefficient lists do not match the precision")
        if not all(isinstance(c, int) for c in h1 + h2):
            raise DatasetError("coefficients must be integers")
        if h1[0] != 1 or h1[1] != 0:
            raise DatasetError("h1 must start q + 0*q^2")
        if h2[0] != 1:
            raise DatasetError("h2 must start q^2")
        super().__init__(level, precision, h1, h2)

    def h1_series(self) -> LaurentSeries:
        return LaurentSeries(1, self.h1)

    def h2_series(self) -> LaurentSeries:
        return LaurentSeries(2, self.h2)

    def truncate(self, precision: int) -> "ModularDataset":
        if precision > self.precision:
            raise DatasetError("cannot extend a dataset by truncation")
        return ModularDataset(
            self.level, precision, self.h1[: precision - 1], self.h2[: precision - 2]
        )


# ---------------------------------------------------------------------------
# echelon form


def _series_from_fractions(val: int, coeffs: list) -> LaurentSeries:
    den = lcm(*(c.denominator for c in coeffs))
    return LaurentSeries(val, [int(c * den) for c in coeffs], den)


def echelon_series(g1: LaurentSeries, g2: LaurentSeries) -> tuple:
    """The basis (q + 0 q^2 + ..., q^2 + ...) of the span of g1, g2.

    Coefficients stay rational.  Raises when the span lacks a valuation-1
    or valuation-2 vector (in particular for dependent inputs).
    """
    prec = min(g1.prec, g2.prec)
    if min(g1.val, g2.val) < 1:
        raise InputError("inputs must be cusp expansions (valuation >= 1)")
    rows = [
        [g.coeff(k) for k in range(1, prec)]
        for g in (g1.truncate(prec), g2.truncate(prec))
    ]
    if rows[0][0] == 0:
        rows.reverse()
    r1, r2 = rows
    if r1[0] == 0:
        raise InputError("span contains no vector of valuation 1")
    r1 = [c / r1[0] for c in r1]
    r2 = [c - r2[0] * d for c, d in zip(r2, r1)]
    if not any(r2):
        raise InputError("inputs are linearly dependent")
    if len(r2) < 2 or r2[1] == 0:
        raise InputError("span contains no vector of valuation 2")
    r2 = [c / r2[1] for c in r2]
    r1 = [c - r1[1] * d for c, d in zip(r1, r2)]
    return _series_from_fractions(1, r1), _series_from_fractions(2, r2[1:])


def echelonize(g1: LaurentSeries, g2: LaurentSeries, *, level: int) -> ModularDataset:
    """The dataset of ``echelon_series(g1, g2)``, which must be integral."""
    h1, h2 = echelon_series(g1, g2)
    if h1.den != 1 or h2.den != 1:
        raise NonIntegralCoefficientError(
            "echelon basis is not integral; inputs do not span a "
            "dataset over the integers"
        )
    return ModularDataset(
        level=level, precision=h1.prec, h1=tuple(h1.nums), h2=tuple(h2.nums)
    )


# ---------------------------------------------------------------------------
# coordinates and the sextic


def coordinates(h1: LaurentSeries, h2: LaurentSeries) -> tuple:
    """(x, y) = (h1/h2, -q (dx/dq) / h2) for any basis pair h1, h2."""
    inv = h2.invert()
    x = h1 * inv
    return x, -(x.q_derivative()) * inv


@lru_cache(maxsize=16)
def coordinate_series(data: ModularDataset):
    """The model functions (x, y) of the dataset's basis pair as series.

    x has valuation -1 and y valuation -3, both with leading coefficient 1.
    Cached, so deriving the model and expanding its generators share one pass.
    """
    if data.precision < 10:
        raise InsufficientPrecisionError(
            f"coordinate series need precision >= 10, dataset has {data.precision}"
        )
    x, y = coordinates(data.h1_series(), data.h2_series())
    assert x.val == -1 and x.coeff(-1) == 1
    assert y.val == -3 and y.coeff(-3) == 1
    return x, y


def _x_powers(x: LaurentSeries, n: int) -> list:
    """[1, x, ..., x^n]."""
    out = [x**0]
    for _ in range(n):
        out.append(out[-1] * x)
    return out


def relation_residual(x: LaurentSeries, y: LaurentSeries, coeffs) -> LaurentSeries:
    """y^2 - sum_i coeffs[i] x^i (constant term first) to the known precision."""
    residual = y * y
    for c, power in zip(coeffs, _x_powers(x, len(coeffs) - 1)):
        if c:
            residual = residual - power.scale(c)
    return residual


@lru_cache(maxsize=16)
def derive_equation(data: ModularDataset) -> SexticCurve:
    """The sextic y^2 = x^6 + a5 x^5 + ... + a0 satisfied by the coordinates.

    Matches the q^-5 ... q^0 coefficients of y^2 - x^6 greedily against
    x^5, ..., x, 1, then requires every remaining known coefficient of the
    residual to vanish and every a_i to be an integer. Cached, so a caller
    that needs the model before LevelContext.from_data derives it once.
    """
    if data.precision < _MIN_DERIVE_PRECISION:
        raise InsufficientPrecisionError(
            f"deriving the equation needs precision >= {_MIN_DERIVE_PRECISION}, "
            f"dataset has {data.precision}"
        )
    x, y = coordinate_series(data)
    powers = _x_powers(x, 6)
    residual = y * y - powers[6]
    found = []
    for i in range(5, -1, -1):
        c = residual.coeff(-i)
        found.append(c)
        if c:
            residual = residual - powers[i].scale(c)
    for k in range(1, residual.prec):
        if residual.coeff(k):
            raise InconsistentDatasetError(
                f"y^2 - f(x) has a nonzero q^{k} coefficient "
                f"({residual.coeff(k)}); the dataset does not satisfy a "
                "sextic model"
            )
    for c in found:
        if c.denominator != 1:
            raise NonIntegralCoefficientError(
                f"sextic coefficient {c} is not an integer"
            )
    return SexticCurve.from_coeffs(tuple(int(c) for c in reversed(found)))


class ValidationReport(Value):
    """Comparison of a dataset-derived sextic against an expected model."""

    __slots__ = (
        "level",
        "derived",  # (a0, ..., a5), or None when the derivation failed
        "expected",
        "extra_verified",  # residual coefficients checked beyond the minimum
        "error",  # why the derivation failed, or None
    )

    @property
    def coefficient_match(self) -> Optional[tuple]:
        """(a0 ok, ..., a5 ok) when derivable."""
        if self.derived is None:
            return None
        return tuple(a == b for a, b in zip(self.derived, self.expected))

    @property
    def matches(self) -> bool:
        return self.derived is not None and all(self.coefficient_match)

    @property
    def low_margin(self) -> bool:
        return self.extra_verified == 0


def validate_dataset(data: ModularDataset, expected: SexticCurve) -> ValidationReport:
    """Derive the sextic and compare, reporting failures instead of raising."""
    expected_coeffs = tuple(expected.f_coeffs()[:6])
    try:
        derived = derive_equation(data)
    except (
        InconsistentDatasetError,
        NonIntegralCoefficientError,
        InsufficientPrecisionError,
    ) as exc:
        return ValidationReport(data.level, None, expected_coeffs, 0, str(exc))
    extra = max(0, (data.precision - 9) - 10)
    return ValidationReport(
        data.level, tuple(derived.f_coeffs()[:6]), expected_coeffs, extra, None
    )


# ---------------------------------------------------------------------------
# bundled dataset files


def _json_int(value, what: str) -> int:
    """A JSON integer or a decimal string; floats, bools and the rest are refused."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and re.fullmatch(r"-?[0-9]+", value):
        return int(value)
    raise DatasetError(f"malformed dataset JSON: {what} is {value!r}, not an integer")


def _json_int_list(value, what: str) -> tuple:
    if not isinstance(value, list):
        raise DatasetError(
            f"malformed dataset JSON: {what} is a {type(value).__name__}, not a list"
        )
    return tuple(_json_int(c, f"an entry of {what}") for c in value)


def dataset_from_json(obj: dict) -> ModularDataset:
    """Parse the versioned dataset mapping (decimal-string coefficients)."""
    if not isinstance(obj, dict):
        raise DatasetError("dataset JSON must be an object")
    if obj.get("format") != 1:
        raise DatasetError(f"unsupported dataset format {obj.get('format')!r}")
    try:
        level = _json_int(obj["level"], "level")
        precision = _json_int(obj["precision"], "precision")
        h1 = _json_int_list(obj["h1"], "h1")
        h2 = _json_int_list(obj["h2"], "h2")
    except (KeyError, ValueError) as exc:
        raise DatasetError(f"malformed dataset JSON: {exc}") from exc
    return ModularDataset(level, precision, h1, h2)


def dataset_to_json(data: ModularDataset) -> dict:
    return {
        "format": 1,
        "level": data.level,
        "precision": data.precision,
        "h1": [str(c) for c in data.h1],
        "h2": [str(c) for c in data.h2],
    }


def _dataset_dir():
    return resources.files("qstar.data").joinpath("datasets")


def bundled_dataset_levels() -> list:
    """Levels with a bundled q-expansion dataset, ascending."""
    out = []
    for entry in _dataset_dir().iterdir():
        name = entry.name
        if name.startswith("ds") and name.endswith(".json"):
            out.append(int(name[2:-5]))
    return sorted(out)


@lru_cache(maxsize=None)
def load_dataset(level: int) -> ModularDataset:
    """The bundled dataset for ``level``."""
    path = _dataset_dir().joinpath(f"ds{level:03d}.json")
    try:
        text = path.read_text()
    except (FileNotFoundError, OSError) as exc:
        raise DatasetError(f"no bundled dataset for level {level}") from exc
    data = dataset_from_json(json.loads(text))
    if data.level != level:
        raise DatasetError(
            f"dataset file ds{level:03d}.json claims level {data.level}"
        )
    return data
