#!/usr/bin/env python3
"""Build src/qstar/data/cm_tables.json.

The file records, for every genus-two level, the known CM data at each
rational point: the discriminant list, the exact j-invariants (rational,
quadratic surd, or a field presentation for higher degree), and the cell
text as printed in the source tables.  Cells whose printed content is
internally inconsistent carry an ``anomaly`` note; the stored values are
the corrected ones, and every corrected CM value is re-verified here
against the class polynomial before the file is written.

Run from the repository root:  python3 tools/make_cm_tables.py
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from functools import lru_cache
from math import prod
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qstar.algnum import (
    MultiQuadElement,
    _factor_into_primes,
    identify_multiquadratic,
    squarefree_kernel,
)
from qstar.cm import class_number, class_polynomial, one_class_per_genus

OUT = Path(__file__).resolve().parent.parent / "src" / "qstar" / "data" / "cm_tables.json"

# numeric field identification is run only where the class polynomial has
# degree <= IDENT_DEGREE_MAX; larger cells rely on the genus-span check
IDENT_DEGREE_MAX = 4


def Q2(a, b, d) -> MultiQuadElement:
    """a + b*sqrt(d) with exact rational a, b; d squarefree, not 0 or 1."""
    return MultiQuadElement((d,), (a, b))


def S(value: MultiQuadElement) -> dict:
    """Surd j-value entry (the stored conjugate has positive surd part)."""
    (d,), (a, b) = value.generators, value.coords
    return {"kind": "surd", "u": str(a), "v": str(abs(b)), "d": d}


def J(value) -> dict:
    return {"kind": "rational", "v": str(Fraction(value))}


def Fld(*gens: int) -> dict:
    return {"kind": "field", "gens": list(gens)}


def row(point, cm, D, j, display, anomaly=None, as_printed=False):
    r = {
        "point": point,
        "cm": cm,
        "D": list(D),
        "j": list(j),
        "display": display,
    }
    if anomaly:
        r["anomaly"] = anomaly
    if as_printed:
        # D/j transcribed verbatim despite being mutually inconsistent;
        # exempt from cell verification
        r["as_printed"] = True
    return r


ZERO = J(0)

# frequently repeated surd cells
J_35 = S(-(16 * Q2(15, 7, 5)) ** 3)
J_40 = S((6 * Q2(65, 27, 5)) ** 3)
J_36 = S(-((4 * Q2(102, 61, 3)) ** 3) * Q2(-2, 1, 3))
J_24 = S((12 * Q2(9, 7, 2)) ** 3 * Q2(-1, 1, 2))
J_52 = S((30 * Q2(31, 9, 13)) ** 3)
J_60 = S((3 * Q2(470, 213, 5)) ** 3 * Q2(1, 1, 5) / 2)
J_15 = S(-((3 * Q2(25, 9, 5) / 2) ** 3) * Q2(-1, 1, 5) / 2)
J_48 = S(4 * (15 * Q2(30, 17, 3)) ** 3)
J_51 = S(-((48 * Q2(37, 9, 17)) ** 3) * Q2(-4, 1, 17))
J_75 = S(-((48 * Q2(69, 31, 5)) ** 3) * Q2(0, 1, 5))
J_88 = S((60 * Q2(155, 108, 2)) ** 3)
J_91 = S(-((48 * Q2(227, 63, 13)) ** 3))
J_100 = S((6 * Q2(2927, 1323, 5)) ** 3)
J_112 = S((15 * Q2(2168, 819, 7)) ** 3)
J_115 = S(-((48 * Q2(785, 351, 5)) ** 3))
J_123 = S(-((480 * Q2(461, 72, 41)) ** 3) * Q2(-32, 5, 41))
J_147 = S(-3 * (480 * Q2(142, 31, 21)) ** 3 * Q2(0, 1, 21))
J_148 = S((60 * Q2(2837, 468, 37)) ** 3)
J_232 = S((30 * Q2(140989, 26163, 29)) ** 3)
J_20 = S((2 * Q2(25, 13, 5)) ** 3)
J_72 = S(-((20 * Q2(389, 158, 6)) ** 3) * Q2(-5, 2, 6))

D60_NOTE = (
    "printed D=-60 surd has a stray leading minus or the cube applied to "
    "the inner factor only; the exact pair is (3(470 +- 213 sqrt5))^3"
    "(1 +- sqrt5)/2 with matched signs"
)

TABLES = {
    67: [
        row("inf-", True, [-11], [J(-(32**3))], "-11 | -32^3"),
        row(
            "-1,7",
            True,
            [-28],
            [J(255**3)],
            "-7 | 255^3",
            anomaly="D column prints -7, but 255^3 is the D=-28 invariant "
            "(the -7 invariant -15^3 sits at (1,-1))",
        ),
        row("-1,-7", True, [-67], [J(-(5280**3))], "-67 | -5280^3"),
        row("0,3", True, [-27], [J(-3 * 160**3)], "-27 | -3*160^3"),
        row("0,-3", True, [-3], [ZERO], "-3 | 0"),
        row("1,1", True, [-8], [J(20**3)], "-8 | 20^3"),
        row("1,-1", True, [-7], [J(-(15**3))], "-7 | -15^3"),
        row("2,1", True, [-43], [J(-(960**3))], "-43 | -960^3"),
        row("2,-1", True, [-12], [J(2 * 30**3)], "-12 | 2*30^3"),
    ],
    73: [
        row("inf-", True, [-12], [J(2 * 30**3)], "-12 | 2*30^3"),
        row("0,1", True, [-27], [J(-3 * 160**3)], "-27 | -3*160^3"),
        row("0,-1", True, [-4], [J(12**3)], "-4 | 12^3"),
        row("1,1", True, [-19], [J(-(96**3))], "-19 | -96^3"),
        row("1,-1", True, [-8], [J(20**3)], "-8 | 20^3"),
        row("2,3", True, [-67], [J(-(5280**3))], "-67 | -5280^3"),
        row("2,-3", True, [-16], [J(66**3)], "-16 | 66^3"),
        row("3/2,5/8", True, [-3], [ZERO], "-3 | 0"),
        row(
            "3/2,-5/8",
            False,
            [],
            [S(20 * (3 * Q2(-26670989, 15471309, -127) / 2**26) ** 3)],
            "- | 20(3(-26670989 +- 15471309 sqrt-127)/2^26)^3",
        ),
    ],
    103: [
        row("inf-", True, [-67], [J(-(5280**3))], "-67 | -5280^3"),
        row("0,1", True, [-43], [J(-(960**3))], "-43 | -960^3"),
        row("0,-1", True, [-27], [J(-3 * 160**3)], "-27 | -3*160^3"),
        row("1,1", True, [-19], [J(-(96**3))], "-19 | -96^3"),
        row("1,-1", True, [-12], [J(2 * 30**3)], "-12 | 2*30^3"),
        row(
            "3,19",
            False,
            [],
            [S(19 * (48 * Q2(1623826405, 30228849, 2885)) ** 3)],
            "- | 19(48(1623826405 +- 30228849 sqrt2885))^3",
        ),
        row("3,-19", True, [-3], [ZERO], "-3 | 0"),
    ],
    107: [
        row("inf-", True, [-8], [J(20**3)], "-8 | 20^3"),
        row("0,1", True, [-7], [J(-(15**3))], "-7 | -15^3"),
        row("0,-1", True, [-43], [J(-(960**3))], "-43 | -960^3"),
        row("2,1", True, [-67], [J(-(5280**3))], "-67 | -5280^3"),
        row("2,-1", True, [-28], [J(255**3)], "-28 | 255^3"),
    ],
    167: [
        row("inf-", True, [-43], [J(-(960**3))], "-43 | -960^3"),
        row("-1,1", True, [-67], [J(-(5280**3))], "-67 | -5280^3"),
        row("-1,-1", True, [-163], [J(-(640320**3))], "-163 | -640320^3"),
    ],
    191: [
        row("inf-", True, [-43], [J(-(960**3))], "-43 | -960^3"),
        row("0,1", True, [-11], [J(-(32**3))], "-11 | -32^3"),
        row("0,-1", True, [-7], [J(-(15**3))], "-7 | -15^3"),
        row(
            "2,11",
            False,
            [],
            [
                S(
                    Q2(724537954586714121, 16056976492100, 2036079533)
                    * (480 * Q2(7725788647437, 95942438, 2036079533) / 191**2) ** 3
                )
            ],
            "- | (724537954586714121 +- 16056976492100 sqrt(2036079533))"
            "(480(7725788647437 +- 95942438 sqrt(2036079533))/191^2)^3",
        ),
        row("2,-11", True, [-28], [J(255**3)], "-28 | 255^3"),
    ],
    85: [
        row("inf-", True, [-19], [J(-(96**3))], "-19 | -96^3"),
        row("0,5", True, [-35], [J_35], "-35 | -(16(15 +- 7 sqrt5))^3"),
        row(
            "0,-5",
            True,
            [-60],
            [J_60],
            "-60 | (3(470 +- 213 sqrt5)^3 (1 +- sqrt5)/2)",
            anomaly=D60_NOTE,
        ),
        row("1,2", True, [-16], [J(66**3)], "-16 | 66^3"),
        row("1,-2", True, [-4], [J(12**3)], "-4 | 12^3"),
        row("2,5", True, [-115], [J_115], "-115 | -(48(785 +- 351 sqrt5))^3"),
        row(
            "2,-5",
            True,
            [-15],
            [J_15],
            "-15 | -(3(25 +- 9 sqrt5)/2)^3 (-1 +- sqrt5)/2",
        ),
        row(
            "3/2,17/8",
            True,
            [-51],
            [J_51],
            "-51 | -(48(37 +- 9 sqrt17))^3 (-4 +- sqrt17)",
        ),
        row("3/2,-17/8", False, [], [Fld(17, -95)], "- | Q(sqrt17, sqrt-95)"),
        row("-4/3,425/27", False, [], [Fld(85, -4295)], "- | Q(sqrt85, sqrt-4295)"),
        row("-4/3,-425/27", True, [-595], [Fld(5, 17)], "-595 | Q(sqrt5, sqrt17)"),
    ],
    93: [
        row("inf-", True, [-12], [J(2 * 30**3)], "-12 | 2*30^3"),
        row(
            "0,3",
            True,
            [-60],
            [J_60],
            "-60 | (3(470 +- 213 sqrt5)^3 (1 +- sqrt5)/2)",
            anomaly=D60_NOTE,
        ),
        row(
            "0,-3",
            True,
            [-24],
            [S((12 * Q2(5, 2, 2)) ** 3 * Q2(3, 2, 2))],
            "-24 | (12(5 +- 2 sqrt2))^3 (3 +- 2 sqrt2)",
            # same pair as (12(9 +- 7 sqrt2))^3(-1 +- sqrt2), different form
        ),
        row(
            "-1,3",
            True,
            [-123],
            [J_123],
            "-123 | -(480(461 +- 72 sqrt41))^3 (-32 +- 5 sqrt41)",
        ),
        row(
            "-1,-3",
            True,
            [-75],
            [J_75],
            "-75 | -(48(-69 +- 31 sqrt5))^3 (+- sqrt5)",
        ),
        row("1,1", True, [-11], [J(-(32**3))], "-11 | -32^3"),
        row(
            "1,-1",
            True,
            [-3, -12],
            [ZERO, J(-3 * 160**3)],
            "-3,-12 | 0, -3*160^3",
            anomaly="recorded anomaly, stored as printed: the D column and "
            "the invariants disagree (-3*160^3 is the D=-27 value, and an "
            "odd level cannot pair conductors 1 and 2); no correction made",
            as_printed=True,
        ),
        row(
            "2,3",
            True,
            [-147],
            [J_147],
            "-147 | -3(480(142 +- 31 sqrt21))^3 (+- sqrt21)",
        ),
        row(
            "2,-3",
            True,
            [-15],
            [S(-((3 * Q2(-5, 4, 5)) ** 3) * Q2(-3, 1, 5) / 2)],
            "-15 | -(3(-5 +- 4 sqrt5))^3 (-3 +- sqrt5)/2",
        ),
        row("3/2,9/8", True, [-48], [J_48], "-48 | 4(15(30 +- 17 sqrt3))^3"),
        row("3/2,-9/8", False, [], [Fld(-15, -109)], "- | Q(sqrt-15, sqrt-109)"),
        row("1/4,143/64", True, [-3], [ZERO], "-3 | 0"),
        row("1/4,-143/64", False, [], [Fld(-23, -143)], "- | Q(sqrt-23, sqrt-143)"),
    ],
    106: [
        row("inf-", True, [-7], [J(-(15**3))], "-7 | -15^3"),
        row(
            "-1,4",
            True,
            [-36],
            [J_36],
            "-36 | 4(21 +- 20 sqrt3)^3 (7 +- 4 sqrt3)",
            anomaly="printed surd differs from the D=-36 pair "
            "-(4(102 +- 61 sqrt3))^3 (-2 +- sqrt3) used everywhere else; "
            "it does not satisfy the class polynomial",
        ),
        row("-1,-4", True, [-148], [J_148], "-148 | (60(2837 +- 468 sqrt37))^3"),
        row("0,1", True, [-40], [J_40], "-40 | (6(65 +- 27 sqrt5))^3"),
        row("0,-1", True, [-4, -16], [J(12**3), J(66**3)], "-4,-16 | 12^3, 66^3"),
        row("1,2", True, [-24], [J_24], "-24 | (12(9 +- 7 sqrt2))^3 (-1 +- sqrt2)"),
        row("1,-2", True, [-52], [J_52], "-52 | (30(31 +- 9 sqrt13))^3"),
        row("2,5", True, [-100], [J_100], "-100 | (6(2927 +- 1323 sqrt5))^3"),
        row("2,-5", True, [-4], [J(12**3)], "-4 | 12^3"),
        row("1/2,5/8", False, [], [Fld(33, -591)], "- | Q(sqrt33, sqrt-591)"),
        row(
            "1/2,-5/8",
            True,
            [-7, -28],
            [J(-(15**3)), J(255**3)],
            "-7,-28 | -15^3, 255^3",
        ),
    ],
    115: [
        row(
            "inf-",
            True,
            [-115],
            [J_115],
            "-115 | (48(-785 +- 351 sqrt5))^3",
        ),
        row("1,1", True, [-19], [J(-(96**3))], "-19 | -96^3"),
        row("1,-1", True, [-11], [J(-(32**3))], "-11 | -32^3"),
        row(
            "2,5",
            True,
            [-235],
            [S((528 * Q2(-8875, 3969, 5)) ** 3)],
            "-235 | (528(-8875 +- 3969 sqrt5))^3",
        ),
        row(
            "2,-5",
            True,
            [-15],
            [J_15],
            "-15 | -(3/2(25 +- 9 sqrt5))^3 (-1 +- sqrt5)/2",
        ),
        row("1/2,5/8", False, [], [Fld(65, -3495)], "- | Q(sqrt65, sqrt-3495)"),
        row("1/2,-5/8", True, [-40], [J_40], "-40 | (6(65 +- 27 sqrt5))^3"),
        row(
            "4/3,35/27",
            True,
            [-60],
            [J_60],
            "-60 | (3(470 +- 213 sqrt5)^3 (1 +- sqrt5)/2)",
            anomaly=D60_NOTE,
        ),
        row("4/3,-35/27", False, [], [Fld(10, -9278)], "- | Q(sqrt10, sqrt-9278)"),
    ],
    122: [
        row(
            "inf-",
            True,
            [-36],
            [J_36],
            "-36 | -(4(102 +- 61 sqrt3))^3 (-2 +- sqrt3)",
        ),
        row("-1,4", True, [-52], [J_52], "-52 | (30(31 +- 9 sqrt13))^3"),
        row("-1,-4", True, [-100], [J_100], "-100 | (6(2927 +- 1323 sqrt5))^3"),
        row("0,1", True, [-3, -12], [ZERO, J(2 * 30**3)], "-3,-12 | 0, 2*30^3"),
        row("0,-1", True, [-4, -16], [J(12**3), J(66**3)], "-4,-16 | 12^3, 66^3"),
        row("1,2", True, [-88], [J_88], "-88 | (60(155 +- 108 sqrt2))^3"),
        row("1,-2", True, [-20], [J_20], "-20 | (2(25 +- 13 sqrt5))^3"),
        row(
            "3/2,37/8",
            True,
            [-232],
            [J_232],
            "-232 | (30(140989 +- 26163 sqrt29))^3",
        ),
        row("3/2,-37/8", False, [], [Fld(-15, 1585)], "- | Q(sqrt-15, sqrt1585)"),
        row("2/3,37/27", True, [-4], [J(12**3)], "-4 | 12^3"),
        row("2/3,-37/27", False, [], [Fld(1258, -1598)], "- | Q(sqrt1258, sqrt-1598)"),
    ],
    129: [
        row(
            "inf-",
            True,
            [-75],
            [J_75],
            "-75 | -(48(69 +- 31 sqrt5))^3 (+- sqrt5)",
        ),
        row(
            "-1,3",
            True,
            [-123],
            [J_123],
            "-123 | -(480(-461 +- 72 sqrt41))^3 (32 +- 5 sqrt41)",
        ),
        row("-1,-3", True, [-48], [J_48], "-48 | 4(15(30 +- 17 sqrt3))^3"),
        row(
            "0,2",
            True,
            [-147],
            [J_147],
            "-147 | -3(480(362 +- 79 sqrt21))^3 (+- sqrt21)",
            anomaly="printed inner pair (362, 79) is not a root of the "
            "D=-147 class polynomial; the other -147 cell's (142, 31) is, "
            "and is what is stored here",
        ),
        row("0,-2", True, [-8], [J(20**3)], "-8 | 20^3"),
        row(
            "1,1",
            True,
            [-3, -27],
            [ZERO, J(-3 * 160**3)],
            "-3,-27 | 0, -3*160^3",
        ),
        row("1,-1", True, [-12], [J(2 * 30**3)], "-12 | 2*30^3"),
        row(
            "1/2,3/8",
            True,
            [-51],
            [J_51],
            "-51 | -(48(37 +- 9 sqrt17))^3 (-4 +- sqrt17)",
        ),
        row("1/2,-3/8", False, [], [Fld(57, -687)], "- | Q(sqrt57, sqrt-687)"),
        row("-7/5,383/125", True, [-3], [ZERO], "-3 | 0"),
        row("-7/5,-383/125", False, [], [Fld(1149, -1059)], "- | Q(sqrt1149, sqrt-1059)"),
        row("7/12,383/1728", False, [], [Fld(-7, -444783)], "- | Q(sqrt-7, sqrt-444783)"),
        row("7/12,-383/1728", False, [], [Fld(85, -347)], "- | Q(sqrt85, sqrt-347)"),
    ],
    133: [
        row("inf-", False, [], [Fld(2, 69)], "- | Q(sqrt2, sqrt69)"),
        row("0,1", True, [-27], [J(-3 * 160**3)], "-27 | -3*160^3"),
        row("0,-1", True, [-19], [J(-(96**3))], "-19 | -96^3"),
        row(
            "1,1",
            True,
            [-91],
            [J_91],
            "-91 | (48(-227 +- 63 sqrt13))^3",
        ),
        row("1,-1", True, [-12], [J(2 * 30**3)], "-12 | 2*30^3"),
        row("3/5,83/125", True, [-3], [ZERO], "-3 | 0"),
        row("3/5,-83/125", False, [], [Fld(-31, -3651)], "- | Q(sqrt-31, sqrt-3651)"),
    ],
    134: [
        row("inf-", True, [-52], [J_52], "-52 | (30(31 +- 9 sqrt13))^3"),
        row("-1,3", True, [-7], [J(-(15**3))], "-7 | -15^3"),
        row("-1,-3", True, [-232], [J_232], "-232 | (30(140989 +- 26163 sqrt29))^3"),
        row("0,1", True, [-20], [J_20], "-20 | (2(25 +- 13 sqrt5))^3"),
        row("0,-1", True, [-3, -12], [ZERO, J(2 * 30**3)], "-3,-12 | 0, 2*30^3"),
        row("1,1", True, [-8], [J(20**3)], "-8 | 20^3"),
        row(
            "1,-1",
            True,
            [-7, -28],
            [J(-(15**3)), J(255**3)],
            "-7,-28 | -15^2, 255^3",
            anomaly="first invariant prints -15^2; the D=-7 value is -15^3",
        ),
        row("-1/2,7/8", False, [], [Fld(113, -1271)], "- | Q(sqrt113, sqrt-1271)"),
        row(
            "-1/2,-7/8",
            True,
            [-72],
            [J_72],
            "-72 | (20(389 +- 158 sqrt6))^3 (-5 +- 2 sqrt6)",
            anomaly="cell lacks the leading minus carried by the other -72 "
            "entry; the exact pair is -(20(389 +- 158 sqrt6))^3(-5 +- 2 sqrt6)",
        ),
    ],
    146: [
        row("inf-", True, [-3, -12], [ZERO, J(2 * 30**3)], "-3,-12 | 0, 2*30^3"),
        row(
            "-1,1",
            True,
            [-36],
            [J_36],
            "-36 | -(4(102 +- 61 sqrt3))^3 (-2 +- sqrt3)",
        ),
        row("-1,-1", True, [-148], [J_148], "-148 | (60(2837 +- 468 sqrt37))^3"),
        row("0,1", True, [-4, -16], [J(12**3), J(66**3)], "-4,-16 | 12^3, 66^3"),
        row("0,-1", True, [-24], [J_24], "-24 | (12(9 +- 7 sqrt2))^3 (-1 +- sqrt2)"),
        row("1,3", True, [-8], [J(20**3)], "-8 | 20^3"),
        row(
            "1,-3",
            True,
            [-72],
            [J_72],
            "-72 | -(20(389 +- 158 sqrt6))^3 (-5 +- 2 sqrt6)",
        ),
        row("2,5", True, [-100], [J_100], "-100 | (6(2927 +- 1323 sqrt5))^3"),
        row("2,-5", True, [-4], [J(12**3)], "-4 | 12^3"),
    ],
    158: [
        row("inf-", True, [-7], [J(-(15**3))], "-7 | -15^3"),
        row("0,1", True, [-3, -12], [ZERO, J(2 * 30**3)], "-3,-12 | 0, 2*30^3"),
        row("0,-1", True, [-24], [J_24], "-24 | (12(9 +- 7 sqrt2))^3 (-1 +- sqrt2)"),
        row("2,1", True, [-232], [J_232], "-232 | (30(140989 +- 26163 sqrt29))^3"),
        row("2,-1", True, [-148], [J_148], "-148 | (60(2837 +- 468 sqrt37))^3"),
        row("1/2,1/8", False, [], [Fld(1169, -1247)], "- | Q(sqrt1169, sqrt-1247)"),
        row(
            "1/2,-1/8",
            True,
            [-7, -28],
            [J(-(15**3)), J(255**3)],
            "-7,-28 | -15^3, 255^3",
        ),
    ],
    161: [
        row("inf-", True, [-7], [J(-(15**3))], "-7 | -15^3"),
        row("-1,7", True, [-91], [J_91], "-91 | -(48(227 +- 63 sqrt13))^3"),
        row("-1,-7", True, [-483], [Fld(21, 69)], "-483 | Q(sqrt21, sqrt69)"),
        row("1,1", True, [-115], [J_115], "-115 | -(48(785 +- 351 sqrt5))^3"),
        row("1,-1", True, [-19], [J(-(96**3))], "-19 | -96^3"),
        row("-1/2,35/8", False, [], [Fld(-7, 32009)], "- | Q(sqrt-7, sqrt32009)"),
        row(
            "-1/2,-35/8",
            True,
            [-112],
            [J_112],
            "-112 | (15(2168 +- 819 sqrt7))^3",
        ),
        row(
            "-1/4,209/64",
            True,
            [-28],
            [J(255**3)],
            "-8 | 255^3",
            anomaly="D column prints -8, but 255^3 is the D=-28 invariant "
            "(D=-8 has 20^3)",
        ),
        row("-1/4,-209/64", False, [], [Fld(209, -1140391)], "- | Q(sqrt209, sqrt-1140391)"),
    ],
    177: [
        row(
            "inf-",
            True,
            [-11],
            [J(-(32**3))],
            "--11 | 32^3",
            anomaly="D prints with a double dash and the invariant prints "
            "32^3; the D=-11 value is -32^3",
        ),
        row("0,1", True, [-24], [J_24], "-24 | (12(9 +- 7 sqrt2))^3 (-1 +- sqrt2)"),
        row("0,-1", True, [-8], [J(20**3)], "-8 | 20^3"),
        row(
            "3/2,17/8",
            True,
            [-267],
            [S(-((240 * Q2(562501, 59625, 89)) ** 3) * Q2(-500, 53, 89))],
            "-267 | -(240(562501 +- 59625 sqrt89))^3 (-500 +- 53 sqrt89)",
        ),
        row("3/2,-17/8", False, [], [Fld(-23, 2881)], "- | Q(sqrt-23, sqrt2881)"),
    ],
    205: [
        row("inf-", True, [-115], [J_115], "-115 | -(48(785 +- 351 sqrt5))^3"),
        row("0,1", True, [-16], [J(66**3)], "-16 | 66^3"),
        row("0,-1", True, [-40], [J_40], "-40 | (6(65 +- 27 sqrt5))^3"),
        row("-2,7", True, [-4], [J(12**3)], "-4 | 12^3"),
        row(
            "-2,-7",
            True,
            [-1435],
            [Fld(5, 41)],
            "-1435 | Q(sqrt5, sqrt21)",
            anomaly="prints Q(sqrt5, sqrt21), but 21 does not divide 1435 = "
            "5*7*41 so sqrt21 cannot lie in the ring class field; the "
            "genus field real subfield is Q(sqrt5, sqrt41) as carried by "
            "the other -1435 cell",
        ),
    ],
    206: [
        row("inf-", True, [-24], [J_24], "-24 | (12(9 +- 7 sqrt2))^3 (-1 +- sqrt2)"),
        row("-1,1", True, [-3, -12], [ZERO, J(2 * 30**3)], "-3,-12 | 0, 2*30^3"),
        row("-1,-1", True, [-88], [J_88], "-88 | (60(155 +- 108 sqrt2))^3"),
        row(
            "0,1",
            True,
            [-40],
            [J_40],
            "-40 | 6(65 +- 27 sqrt5)",
            anomaly="cell prints the unscaled surd; the D=-40 invariant is "
            "(6(65 +- 27 sqrt5))^3",
        ),
        row("0,-1", True, [-20], [J_20], "-20 | (2(25 +- 13 sqrt5))^3"),
        row("1/2,19/8", True, [-148], [J_148], "-148 | (60(2837 +- 468 sqrt37))^3"),
        row("1/2,-19/8", False, [], [Fld(193, -27119)], "- | Q(sqrt193, sqrt-27119)"),
    ],
    209: [
        row("inf-", True, [-8], [J(20**3)], "-8 | 20^3"),
        row("0,2", True, [-19], [J(-(96**3))], "-19 | -96^3"),
        row("0,-2", True, [-88], [J_88], "-88 | (60(155 +- 108 sqrt2))^3"),
        row("-1/2,19/8", False, [], [Fld(-1007, 902537)], "- | Q(sqrt-1007, sqrt902537)"),
        row("-1/2,-19/8", True, [-627], [Fld(33, 57)], "-627 | Q(sqrt33, sqrt57)"),
    ],
    213: [
        row(
            "inf-",
            True,
            [-51],
            [J_51],
            "-51 | yes | -(48(37 +- 9 sqrt17))^3 (-4 +- sqrt17)",
            anomaly="the CM and D columns print transposed",
        ),
        row(
            "1,1",
            True,
            [-123],
            [J_123],
            "-123 | (480(461 +- 72 sqrt41))^3 (-32 +- 5 sqrt41)",
            anomaly="cell lacks the leading minus carried by the other -123 "
            "entries; the exact pair is -(480(461 +- 72 sqrt41))^3"
            "(-32 +- 5 sqrt41)",
        ),
        row("1,-1", True, [-11], [J(-(32**3))], "-11 | -32^3"),
    ],
    215: [
        row("inf-", False, [], [Fld(2, 47645)], "- | Q(sqrt2, sqrt47645)"),
        row(
            "1,1",
            True,
            [-235],
            [S(-((528 * Q2(8875, 3969, 5)) ** 3))],
            "-235 | -(528(8875 +- 3969 sqrt5))^3",
        ),
        row("1,-1", True, [-19], [J(-(96**3))], "-19 | -96^3"),
        row("2,10", False, [], [Fld(85, 3418805)], "- | Q(sqrt85, sqrt3418805)"),
        row("2,-10", True, [-115], [J_115], "-115 | -(48(785 +- 351 sqrt5))^3"),
    ],
    221: [
        row("inf-", True, [-16], [J(66**3)], "-16 | 66^3"),
        row("0,1", True, [-43], [J(-(960**3))], "-43 | -960^3"),
        row(
            "0,-1",
            True,
            [-51],
            [J_51],
            "-51 | -(48(37 +- 9 sqrt17))^3 (-4 +- sqrt17)",
        ),
        row("1/2,9/8", False, [], [Fld(1081, -779263)], "- | Q(sqrt1081, sqrt-779263)"),
        row("1/2,-9/8", True, [-4], [J(12**3)], "-4 | 12^3"),
    ],
    287: [
        row("inf-", True, [-91], [J_91], "-91 | -(48(227 +- 63 sqrt13))^3"),
        row("-2,9", True, [-1435], [Fld(5, 41)], "-1435 | Q(sqrt5, sqrt41)"),
        row("-2,-9", False, [], [Fld(8321, 2904137173)], "- | Q(sqrt8321, sqrt2904137173)"),
    ],
    299: [
        row("inf-", True, [-91], [J_91], "-91 | -(48(227 +- 63 sqrt13))^3"),
        row("-1/2,1/8", True, [-43], [J(-(960**3))], "-43 | -960^3"),
        row("-1/2,-1/8", False, [], [Fld(1513, -3325543)], "- | Q(sqrt1513, sqrt-3325543)"),
    ],
    154: [
        row("inf-", True, [-40], [J_40], "-40 | (6(65 +- 27 sqrt5))^3"),
        row("0,2", True, [-24], [J_24], "-24 | (12(9 +- 7 sqrt2))^3 (-1 +- sqrt2)"),
        row("0,-2", True, [-52], [J_52], "-52 | (30(31 +- 9 sqrt13))^3"),
        row("1,4", True, [-7], [J(-(15**3))], "-7 | -15^3"),
        row(
            "1,-4",
            True,
            [-7, -28],
            [J(-(15**3)), J(255**3)],
            "-7,-28 | -15^3, 255^3",
        ),
        row("2,0", True, [-84], [Fld(3, 7)], "-84 | Q(sqrt3, sqrt7)"),
        row(
            "-3/2,77/8",
            False,
            [],
            [Fld(-143, -185, -455)],
            "- | Q(sqrt-143, sqrt-185, sqrt-455)",
        ),
        row("-3/2,-77/8", True, [-1540], [Fld(5, 7, 11)], "-1540 | Q(sqrt5, sqrt7, sqrt11)"),
        row(
            "-1/3,56/27",
            False,
            [],
            [Fld(7, 55, -479)],
            "- | Q(sqrt7, sqrt55, sqrt-479)",
        ),
        row(
            "-1/3,-56/27",
            True,
            [-28, -112],
            [J(255**3), J_112],
            "-28,-112 | 255^3, (15(2168 +- 819 sqrt7))^3",
        ),
        row("4,22", True, [-1848], [Fld(2, 21, 33)], "-1848 | Q(sqrt2, sqrt21, sqrt33)"),
        row("4,-22", True, [-132], [Fld(3, 11)], "-132 | Q(sqrt3, sqrt11)"),
    ],
    165: [
        row("inf-", True, [-11], [J(-(32**3))], "-11 | -32^3"),
        row("0,3", True, [-195], [Fld(5, 13)], "-195 | Q(sqrt5, sqrt13)"),
        row(
            "0,-3",
            True,
            [-51],
            [J_51],
            "-51 | -(48(37 +- 9 sqrt17))^3 (-4 +- sqrt17)",
        ),
        row("1,0", True, [-24], [J_24], "-24 | (12(9 +- 7 sqrt2))^3 (-1 +- sqrt2)"),
        row("2,5", True, [-435], [Fld(5, 29)], "-435 | Q(sqrt5, sqrt29)"),
        row("2,-5", True, [-35], [J_35], "-35 | -(16(15 +- 7 sqrt5))^3"),
        row(
            "-1/2,15/8",
            False,
            [],
            [Fld(-15, 265, 1745)],
            "- | Q(sqrt-15, sqrt265, sqrt1745)",
        ),
        row("-1/2,-15/8", True, [-120], [Fld(2, 5)], "-120 | Q(sqrt2, sqrt5)"),
        row("-3,0", True, [-1155], [Fld(5, 21, 33)], "-1155 | Q(sqrt5, sqrt21, sqrt33)"),
        row(
            "2/3,55/27",
            True,
            [-11, -99],
            [J(-(32**3)), S((16 * Q2(3751, 653, 33)) ** 3 * Q2(-23, 4, 33))],
            "-11,-99 | -32^3, (16(3751 +- 653 sqrt33))^3 (-23 +- 4 sqrt33)",
        ),
        row(
            "2/3,-55/27",
            False,
            [],
            [Fld(-11, 47, -661)],
            "- | Q(sqrt-11, sqrt47, sqrt-661)",
        ),
        row("5/2,99/8", True, [-1320], [Fld(5, 6, 22)], "-1320 | Q(sqrt5, sqrt6, sqrt22)"),
        row(
            "5/2,-99/8",
            False,
            [],
            [Fld(-7, 33, 393)],
            "- | Q(sqrt-7, sqrt33, sqrt393)",
        ),
    ],
    170: [
        row(
            "inf-",
            True,
            [-36],
            [J_36],
            "-36 | -(4(102 +- 61 sqrt3))^3 (-2 +- sqrt3)",
        ),
        row("1,2", True, [-4, -16], [J(12**3), J(66**3)], "-4,-16 | 12^3, 66^3",
            anomaly="row keyed (-1, 2) in the source; the model here has "
            "x shifted by 2 (the source x-coordinates are x-2)"),
        row("1,-2", True, [-340], [Fld(5, 17)], "-340 | Q(sqrt5, sqrt17)",
            anomaly="row keyed (-1, -2) in the source (x shifted by 2)"),
        row("2,1", True, [-4, -100], [J(12**3), J_100],
            "-4,-100 | 12^3, (6(2927 +- 1323 sqrt5))^3",
            anomaly="row keyed (0, 1) in the source (x shifted by 2)"),
        row("2,-1", True, [-15], [J_15],
            "-15 | -(3(25 +- 9 sqrt5)/2)^3 (-1 +- sqrt5)/2",
            anomaly="row keyed (0, -1) in the source (x shifted by 2)"),
        row("4,5", True, [-280], [Fld(2, 5)], "-280 | Q(sqrt2, sqrt5)",
            anomaly="row keyed (2, 5) in the source (x shifted by 2)"),
        row("4,-5", True, [-15, -60], [J_15, J_60],
            "-15,-60 | -(3(25 +- 9 sqrt5)/2)^3 (-1 +- sqrt5)/2, "
            "-(3(470 +- 213 sqrt5))^3 (1 +- sqrt5)/2",
            anomaly="row keyed (2, -5) in the source (x shifted by 2); "
            + D60_NOTE),
        row("3/2,5/8", True, [-120], [Fld(2, 5)], "-120 | Q(sqrt2, sqrt5)",
            anomaly="row keyed (-1/2, 5/8) in the source (x shifted by 2)"),
        row("3/2,-5/8", False, [], [Fld(17, -95, 65)],
            "- | Q(sqrt17, sqrt-95, sqrt65)",
            anomaly="row keyed (-1/2, -5/8) in the source (x shifted by 2)"),
        row("11/3,38/27", False, [], [Fld(73, 19, -5)],
            "- | Q(sqrt73, sqrt19, sqrt-5)",
            anomaly="row keyed (5/3, 38/27) in the source (x shifted by 2)"),
        row("11/3,-38/27", True, [-4], [J(12**3)], "-4 | 12^3",
            anomaly="row keyed (5/3, -38/27) in the source (x shifted by 2)"),
    ],
    186: [
        row("inf-", True, [-3, -12], [ZERO, J(2 * 30**3)], "-3,-12 | 0, 2*30^3"),
        row("-1,-3", True, [-228], [Fld(3, 19)], "-228 | Q(sqrt3, sqrt19)"),
        row(
            "0,1",
            True,
            [-15],
            [J_15],
            "-15 | -(3(25 +- 9 sqrt5)/2)^3 (-1 +- sqrt5)/2",
        ),
        row("0,-1", True, [-24], [J_24], "-24 | (12(9 +- 7 sqrt2))^3 (-1 +- sqrt2)"),
        row("1,3", True, [-168], [Fld(6, 14)], "-168 | Q(sqrt6, sqrt14)"),
        row("1,-3", True, [-120], [Fld(2, 5)], "-120 | Q(sqrt2, sqrt5)"),
        row("2,9", True, [-708], [Fld(3, 59)], "-708 | Q(sqrt3, sqrt59)"),
        row(
            "2,-9",
            True,
            [-15, -60],
            [J_15, J_60],
            "-15,-60 | -(3(25 +- 9 sqrt5)/2)^3 (-1 +- sqrt5)/2, "
            "-(3(470 +- 213 sqrt5))^3 (1 +- sqrt5)/2",
            anomaly=D60_NOTE,
        ),
        row(
            "-1/2,3/8",
            False,
            [],
            [Fld(-15, 177, 1257)],
            "- | Q(sqrt-15, sqrt177, sqrt1257)",
        ),
        row(
            "-1/2,-3/8",
            True,
            [-12, -48],
            [J(2 * 30**3), J_48],
            "-12,-48 | 2*30^3, 4(15(30 +- 17 sqrt3))^3",
        ),
        row(
            "-4/3,143/27",
            False,
            [],
            [Fld(37, -143, 2077)],
            "- | Q(sqrt37, sqrt-143, sqrt2077)",
        ),
        row(
            "-4/3,-143/27",
            True,
            [-372],
            [Fld(3, 31)],
            "-332 | Q(sqrt3, sqrt31)",
            anomaly="D column prints -332, whose class number is 9 (odd, so "
            "never a multiquadratic field of this shape); D=-372 has class "
            "number 4 and its class polynomial generates Q(sqrt3, sqrt31)",
        ),
    ],
    230: [
        row("inf-", True, [-40], [J_40], "-40 | (6(65 +- 27 sqrt5))^3"),
        row("0,1", True, [-20], [J_20], "-20 | (2(25 +- 13 sqrt5))^3"),
        row(
            "0,-1",
            True,
            [-15],
            [J_15],
            "-15 | -(3(25 +- 9 sqrt5)/2)^3 (-1 +- sqrt5)/2",
        ),
        row("1,5", True, [-520], [Fld(5, 13)], "-520 | Q(sqrt5, sqrt13)"),
        row("1,-5", True, [-120], [Fld(2, 5)], "-120 | Q(sqrt2, sqrt5)"),
        row(
            "-2,5",
            True,
            [-15, -60],
            [J_15, J_60],
            "-15,-60 | -(3(25 +- 9 sqrt5)/2)^3 (-1 +- sqrt5)/2, "
            "-(3(470 +- 213 sqrt5))^3 (1 +- sqrt5)/2",
            anomaly=D60_NOTE,
        ),
        row("-2,-5", True, [-1380], [Fld(3, 5, 23)], "-1380 | Q(sqrt3, sqrt5, sqrt23)"),
        row(
            "3,35",
            False,
            [],
            [Fld(685, 705, 19043)],
            "- | Q(sqrt685, sqrt705, sqrt19043)",
        ),
        row("3,-35", True, [-180], [Fld(3, 5)], "-180 | Q(sqrt3, sqrt5)"),
    ],
    266: [
        row("inf-", True, [-52], [J_52], "-52 | (30(31 +- 9 sqrt13))^3"),
        row("-1,1", True, [-84], [Fld(3, 7)], "-84 | Q(sqrt3, sqrt7)"),
        row("-1,-1", True, [-3, -12], [ZERO, J(2 * 30**3)], "-3,-12 | 0, 2*30^3"),
        row("0,1", True, [-280], [Fld(2, 5)], "-280 | Q(sqrt2, sqrt5)"),
        row("0,-1", True, [-40], [J_40], "-40 | (6(65 +- 27 sqrt5))^3"),
        row(
            "-5/2,83/8",
            False,
            [],
            [Fld(1041, -415, 105)],
            "- | Q(sqrt1041, sqrt-415, sqrt105)",
        ),
        row(
            "-5/2,-83/8",
            True,
            [-532],
            [Fld(7, 19)],
            "-532 | Q(sqrt17, sqrt19)",
            anomaly="prints Q(sqrt17, sqrt19), but 17 does not divide 532 = "
            "4*7*19 so sqrt17 cannot lie in the ring class field; the genus "
            "field real subfield is Q(sqrt7, sqrt19)",
        ),
    ],
    285: [
        row(
            "inf-",
            True,
            [-51],
            [J_51],
            "-51 | -(48(37 +- 9 sqrt17))^3 (-4 +- sqrt17)",
        ),
        row(
            "-1,4",
            True,
            [-15],
            [J_15],
            "-15 | -(3(25 +- 9 sqrt5)/2)^3 (-1 +- sqrt5)/2",
        ),
        row(
            "-1,-4",
            True,
            [-60],
            [J_60],
            "-60 | -(3(470 +- 213 sqrt5))^3 (1 +- sqrt5)/2",
            anomaly=D60_NOTE,
        ),
        row(
            "0,0",
            True,
            [-3, -75],
            [ZERO, J_75],
            "-3,-75 | 0, -(48(-69 +- 31 sqrt5))^3 (+- sqrt5)",
        ),
        row(
            "3,24",
            False,
            [],
            [Fld(3, 95, 60197)],
            "- | Q(sqrt3, sqrt95, sqrt60197)",
        ),
        row("3,-24", True, [-240], [Fld(3, 5)], "-240 | Q(sqrt3, sqrt5)"),
        row(
            "-3/2,57/8",
            False,
            [],
            [Fld(-79, 57, 11985)],
            "- | Q(sqrt-79, sqrt57, sqrt11985)",
        ),
        row("-3/2,-57/8", True, [-1995], [Fld(5, 21, 57)], "-1995 | Q(sqrt5, sqrt21, sqrt57)"),
    ],
    286: [
        row("inf-", True, [-40], [J_40], "-40 | (6(65 +- 27 sqrt5))^3"),
        row("-1,4", True, [-52], [J_52], "-52 | (30(31 +- 9 sqrt13))^3"),
        row("-1,-4", True, [-88], [J_88], "-88 | (60(155 +- 108 sqrt2))^3"),
        row(
            "5/2,143/8",
            False,
            [],
            [Fld(39, 168917, 232)],
            "- | Q(sqrt39, sqrt168917, sqrt232)",
        ),
        row(
            "5/2,-143/8",
            False,
            [],
            [Fld(1841, -3367, 37609)],
            "- | Q(sqrt1841, sqrt-3367, sqrt37609)",
        ),
    ],
    357: [
        row("inf-", True, [-168], [Fld(6, 14)], "-168 | Q(sqrt6, sqrt14)"),
        row(
            "2,14",
            False,
            [],
            [Fld(293, 89997, 21)],
            "- | Q(sqrt293, sqrt89997, sqrt21)",
            anomaly="row keyed (-1, 4) in the source, which does not lie on "
            "the model here; the affine points are (2, +-14)",
        ),
        row(
            "2,-14",
            True,
            [-35],
            [J_35],
            "-35 | -(16(15 +- 7 sqrt5))^3",
            anomaly="row keyed (-1, -4) in the source, which does not lie on "
            "the model here; the affine points are (2, +-14)",
        ),
    ],
    390: [
        row(
            "inf-",
            True,
            [-5460],
            [Fld(3, 5, 7, 13)],
            "-5460 | Q(sqrt3, sqrt5, sqrt7, sqrt11)",
            anomaly="prints Q(sqrt3, sqrt5, sqrt7, sqrt11), but 11 does not "
            "divide 5460 = 4*3*5*7*13 so sqrt11 cannot lie in the ring "
            "class field; the genus field real subfield is "
            "Q(sqrt3, sqrt5, sqrt7, sqrt13)",
        ),
        row("0,1", True, [-120], [Fld(2, 5)], "-120 | Q(sqrt2, sqrt5)"),
        row("0,-1", True, [-420], [Fld(3, 5, 7)], "-420 | Q(sqrt3, sqrt5, sqrt7)"),
        row("1,2", True, [-660], [Fld(3, 5, 11)], "-660 | Q(sqrt3, sqrt5, sqrt11)"),
        row(
            "1,-2",
            True,
            [-4, -36],
            [J(12**3), J_36],
            "-4,-36 | 12^3, -(4(102 +- 61 sqrt3))^3 (-2 +- sqrt3)",
        ),
    ],
}


def _span(gens) -> frozenset:
    """F2-span of squarefree kernels, excluding 1."""
    span = {1}
    for g in gens:
        k = squarefree_kernel(g)[0]
        span |= {squarefree_kernel(k * s)[0] for s in span}
    return frozenset(span - {1})


@lru_cache(maxsize=None)
def _H(d: int):
    return class_polynomial(d).poly


def _is_fundamental(d: int) -> bool:
    if d % 4 == 1:
        return squarefree_kernel(d)[1] == 1
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and squarefree_kernel(m)[1] == 1
    return False


def _genus_real_span(d: int) -> frozenset:
    """Positive square classes of the genus field of a fundamental d < 0.

    d factors uniquely into prime discriminants; the field generated by a
    root of the class polynomial (real, since every genus has one class)
    is the real subfield of the genus field, i.e. the positive part of the
    span of those prime discriminants.
    """
    odd_primes: dict = {}
    _factor_into_primes(-d // (d & -d), [6_000_000], odd_primes)  # odd part of |d|
    discs = [p if p % 4 == 1 else -p for p in odd_primes]
    rem = d // prod(discs)
    if rem != 1:
        if rem not in (-4, 8, -8):
            raise ValueError(f"{d} is not a prime-discriminant product")
        discs.append(rem)
    return frozenset(x for x in _span(discs) if x > 1)


@lru_cache(maxsize=None)
def _check_cell(d: int, jkey: str):
    """Verify one (discriminant, value) cell; returns None or a problem."""
    j = json.loads(jkey)
    if not one_class_per_genus(d):
        return f"D={d} has a genus with several classes"
    h = class_number(d)
    poly = _H(d)
    if j["kind"] == "rational":
        v = Fraction(j["v"])
        if h != 1 or poly(v) != 0:
            return f"{v} is not the D={d} invariant"
    elif j["kind"] == "surd":
        u = Q2(j["u"], j["v"], j["d"])
        if h != 2 or poly(u):
            return f"surd is not a root of H({d})"
    else:
        gens = tuple(j["gens"])
        if h != 2 ** len(gens):
            return f"h({d})={h} != 2^{len(gens)}"
        checked = False
        if _is_fundamental(d):
            checked = True
            if _span(gens) != _genus_real_span(d):
                return f"gens {gens} do not match the genus field of {d}"
        if poly.degree <= IDENT_DEGREE_MAX:
            checked = True
            mq = identify_multiquadratic(poly)
            if mq is None or _span(mq.generators) != _span(gens):
                return f"field of H({d}) is not Q(sqrt {gens})"
        if not checked:
            return f"no verification route for D={d} field cell"
    return None


def verify() -> list[str]:
    problems = []
    for level, rows in sorted(TABLES.items()):
        for r in rows:
            ds, js = r["D"], r["j"]
            if r["cm"] and (not ds or len(ds) != len(js)):
                problems.append(f"{level} {r['point']}: D/j length mismatch")
                continue
            if not r["cm"] and ds:
                problems.append(f"{level} {r['point']}: non-CM row carries D")
                continue
            if r.get("as_printed"):
                continue
            for d, j in zip(ds, js):
                p = _check_cell(d, json.dumps(j, sort_keys=True))
                if p:
                    problems.append(f"{level} {r['point']}: {p}")
    return problems


def tables_text() -> str:
    """The text of cm_tables.json."""
    doc = {
        "format": 1,
        "levels": {str(n): TABLES[n] for n in sorted(TABLES)},
    }
    return json.dumps(doc, indent=1) + "\n"


def main() -> int:
    problems = verify()
    for p in problems:
        print("MISMATCH:", p)
    if problems:
        return 1
    OUT.write_text(tables_text())
    n_rows = sum(len(v) for v in TABLES.values())
    n_flag = sum(1 for v in TABLES.values() for r in v if "anomaly" in r)
    print(f"wrote {OUT.name}: {len(TABLES)} levels, {n_rows} rows, {n_flag} flagged")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
