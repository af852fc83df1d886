"""Bundled genus-2 curve models, rational points, and known CM data.

The package ships a table of 36 square-free levels whose quotient curve has
genus 2, each with the sextic model ``y^2 = x^6 + a5 x^5 + ... + a0`` and the
rational points known on it.  :func:`load_table` parses the JSON once and
caches the result; :func:`fixture_curve` / :func:`fixture_points` are the
common entry points.

A second table records, for each known rational point, the CM discriminants
and exact j-invariants (or the field the j-invariant generates when its
degree exceeds 2).  Cells whose source printing is internally inconsistent
carry an ``anomaly`` note; except for the one row marked ``as_printed``,
the machine-readable values are verified against the class polynomials by
``tools/check_cm_tables.py``, which the test suite runs.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from typing import Union

from .algnum import MultiQuadElement
from .errors import InputError, Value
from .hyperelliptic import INF_MINUS, CurvePoint, SexticCurve

__all__ = [
    "CurveFixture",
    "CMTableRow",
    "load_table",
    "load_cm_table",
    "fixture_curve",
    "fixture_points",
    "cm_rows",
]

# a known j-invariant: exact rational, exact quadratic surd (an element of
# Q(sqrt(d)), its conjugate implied), or the generator set of the field it
# generates
CMValue = Union[Fraction, MultiQuadElement, tuple]


class CurveFixture(Value):
    """One bundled level: its sextic model and known rational points."""

    __slots__ = (
        "level",
        "curve",
        "points",  # affine points only, both signs expanded
        "points_complete",
        "anomalous_points",  # (x, y) pairs stored verbatim that miss the curve
    )


def _read_raw() -> dict:
    text = resources.files("qstar.data").joinpath("table1.json").read_text()
    return json.loads(text)


@lru_cache(maxsize=1)
def load_table() -> dict[int, CurveFixture]:
    """Parse the bundled curve table into validated fixtures."""
    raw = _read_raw()
    out: dict[int, CurveFixture] = {}
    for key, row in raw["levels"].items():
        level = int(key)
        coeffs = [Fraction(c) for c in row["coeffs"]]
        curve = SexticCurve.from_coeffs(coeffs)
        bad = {
            (Fraction(a["point"][0]), Fraction(a["point"][1]))
            for a in row.get("anomalies", [])
        }
        pts: list[CurvePoint] = []
        for entry in row["points"]:
            x, y = Fraction(entry["x"]), Fraction(entry["y"])
            if (x, y) in bad:
                continue
            pts.append(curve.point(x, y))
            # the mirror of any affine point with y != 0 is on the curve,
            # whether or not the source table printed it
            if y != 0:
                pts.append(curve.point(x, -y))
        out[level] = CurveFixture(
            level=level,
            curve=curve,
            points=tuple(pts),
            points_complete=bool(row["points_complete"]),
            anomalous_points=tuple(sorted(bad)),
        )
    return out


class CMTableRow(Value):
    """Known CM data at one rational point of one level."""

    __slots__ = (
        "level",
        "point",
        "cm",
        "discriminants",
        "j_values",  # CMValues parallel to discriminants for CM rows
        "display",  # the cell as printed in the source table
        "anomaly",
        "as_printed",  # verbatim transcription of an inconsistent cell
    )


def _parse_cm_value(obj: dict) -> CMValue:
    kind = obj["kind"]
    if kind == "rational":
        return Fraction(obj["v"])
    if kind == "surd":
        return MultiQuadElement((obj["d"],), (Fraction(obj["u"]), Fraction(obj["v"])))
    if kind == "field":
        return tuple(obj["gens"])
    raise InputError(f"unknown j-value kind {kind!r}")


@lru_cache(maxsize=1)
def load_cm_table() -> dict[int, tuple[CMTableRow, ...]]:
    """Parse the bundled CM table, keyed by level."""
    text = resources.files("qstar.data").joinpath("cm_tables.json").read_text()
    raw = json.loads(text)
    curves = load_table()
    out: dict[int, tuple[CMTableRow, ...]] = {}
    for key, rows in raw["levels"].items():
        level = int(key)
        curve = curves[level].curve
        parsed = []
        for r in rows:
            if r["point"] == "inf-":
                pt = INF_MINUS
            else:
                xs, ys = r["point"].split(",")
                pt = curve.point(Fraction(xs), Fraction(ys))
            parsed.append(
                CMTableRow(
                    level=level,
                    point=pt,
                    cm=bool(r["cm"]),
                    discriminants=tuple(r["D"]),
                    j_values=tuple(_parse_cm_value(v) for v in r["j"]),
                    display=r["display"],
                    anomaly=r.get("anomaly"),
                    as_printed=bool(r.get("as_printed", False)),
                )
            )
        out[level] = tuple(parsed)
    return out


def cm_rows(level: int) -> tuple[CMTableRow, ...]:
    """Known CM rows for ``level``."""
    table = load_cm_table()
    if level not in table:
        raise InputError(f"no CM table for level {level}")
    return table[level]


def fixture_curve(level: int) -> SexticCurve:
    """The bundled sextic model for ``level``."""
    table = load_table()
    if level not in table:
        raise InputError(f"no bundled curve for level {level}")
    return table[level].curve


def fixture_points(level: int) -> tuple[CurvePoint, ...]:
    """Known affine rational points for ``level`` (mirror points expanded)."""
    table = load_table()
    if level not in table:
        raise InputError(f"no bundled curve for level {level}")
    return table[level].points
