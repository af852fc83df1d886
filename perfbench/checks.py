"""Checks of qstar's outputs, computed apart from qstar.

Nothing here imports qstar.  The reference tables are read as plain JSON,
curve and polynomial arithmetic uses fractions.Fraction, and class
polynomials are rebuilt from reduced forms counted here and from
mpmath.kleinj.  Every failed check raises CheckError with a message that
names the input and what went wrong.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from math import gcd, isqrt
from pathlib import Path

import mpmath

DATA = Path("src") / "qstar" / "data"


class CheckError(Exception):
    """An output of qstar disagrees with the independent computation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def load_tables(root: Path) -> tuple:
    """The bundled curve table and CM table, keyed by level, read as JSON."""
    table1 = json.loads((root / DATA / "table1.json").read_text())["levels"]
    cm = json.loads((root / DATA / "cm_tables.json").read_text())["levels"]
    return table1, cm


# ---------------------------------------------------------------------------
# polynomials as ascending coefficient lists


def poly_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_eval(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def surd_eval(coeffs, a: Fraction, b: Fraction, d: int) -> tuple:
    """The value at a + b*sqrt(d) as the pair (rational part, sqrt(d) part)."""
    p, q = Fraction(0), Fraction(0)
    for c in reversed(coeffs):
        p, q = p * a + q * b * d + c, p * b + q * a
    return p, q


def is_cube(n: int) -> bool:
    """Exact test by integer bisection for the cube root of |n|."""
    n = abs(n)
    lo, hi = 0, 1 << (n.bit_length() // 3 + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**3 <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo**3 == n


def is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


# ---------------------------------------------------------------------------
# class polynomials from reduced forms and mpmath.kleinj


def reduced_forms(D: int) -> list:
    """Reduced primitive forms (a, b, c) with b*b - 4ac = D < 0."""
    out = []
    for a in range(1, isqrt(-D // 3) + 1):
        for b in range(-a + 1, a + 1):
            if (b * b - D) % (4 * a):
                continue
            c = (b * b - D) // (4 * a)
            if c < a or gcd(gcd(a, b), c) != 1 or (b < 0 and a == c):
                continue
            out.append((a, b, c))
    return out


def kleinj_class_polynomial(D: int) -> list:
    """H_D as ascending integers: the product of x - j(tau) over reduced forms.

    j = 1728 * mpmath.kleinj at a working precision sized from the largest
    root, pi*sqrt|D|/a per form; the precision doubles until every
    coefficient lies within 1/8 of an integer.
    """
    forms = reduced_forms(D)
    bits = int(sum(math.pi * math.sqrt(-D) / a for a, _, _ in forms) / math.log(2))
    bits += 64 + 8 * len(forms)
    for _ in range(4):
        with mpmath.workprec(bits):
            root = mpmath.sqrt(-D)
            poly = [mpmath.mpc(1)]
            for a, b, _ in forms:
                j = 1728 * mpmath.kleinj(mpmath.mpc(-b, root) / (2 * a))
                nxt = [mpmath.mpc(0)] * (len(poly) + 1)
                for i, p in enumerate(poly):
                    nxt[i + 1] += p
                    nxt[i] -= p * j
                poly = nxt
            out = [int(mpmath.nint(p.real)) for p in poly]
            if all(
                abs(p.real - n) < 0.125 and abs(p.imag) < 0.125
                for p, n in zip(poly, out)
            ):
                return out
        bits *= 2
    raise CheckError(f"D={D}: mpmath.kleinj product did not round to integers")


def check_class_polynomial(D: int, coeffs: list, certified: bool) -> None:
    """One class-sweep output against h(D), the classical congruences and kleinj."""
    h = len(reduced_forms(D))
    require(certified is True, f"D={D}: polynomial not certified")
    require(len(coeffs) == h + 1, f"D={D}: degree {len(coeffs) - 1} but h(D) = {h}")
    require(coeffs[-1] == 1, f"D={D}: not monic")
    if D % 3:
        require(is_cube(coeffs[0]), f"D={D}: H_D(0) is not a cube")
    if D % 2:
        value = (-D) ** h * poly_eval(coeffs, 1728)
        require(is_square(value), f"D={D}: |D|^h * H_D(1728) is not a square")
    require(
        coeffs == kleinj_class_polynomial(D),
        f"D={D}: differs from the mpmath.kleinj product",
    )


# ---------------------------------------------------------------------------
# pipeline reports


def point_key(point: dict) -> str:
    """The point as the CM table writes it: 'inf-' or 'x,y'."""
    if point["kind"] != "affine":
        return point["kind"]
    return f"{Fraction(point['x'])},{Fraction(point['y'])}"


def table_points(row: dict) -> set:
    """inf- and every affine table point with its mirror, anomalies left out."""
    anomalies = row.get("anomalies", ())
    bad = {(Fraction(a["point"][0]), Fraction(a["point"][1])) for a in anomalies}
    keys = {"inf-"}
    for p in row["points"]:
        x, y = Fraction(p["x"]), Fraction(p["y"])
        if (x, y) in bad:
            continue
        keys.add(f"{x},{y}")
        keys.add(f"{x},{-y}")
    return keys


def check_pipeline(doc: dict, level: int, table1: dict, cm_table: dict) -> None:
    """One `qstar pipeline` document against the tables and exact arithmetic."""
    row = table1[str(level)]
    curve = [Fraction(c) for c in doc["curve"]["coefficients"]]
    require(
        curve == [Fraction(c) for c in row["coeffs"]] + [1],
        f"level {level}: curve differs from table1.json",
    )
    require(doc["level"] == str(level), f"level {level}: report names level {doc['level']}")
    cm_rows = {r["point"]: r for r in cm_table[str(level)]}
    keys = []
    for report in doc["reports"]:
        key = point_key(report["point"])
        keys.append(key)
        where = f"level {level} point {key}"
        if report["point"]["kind"] == "affine":
            x, y = Fraction(report["point"]["x"]), Fraction(report["point"]["y"])
            require(y * y == poly_eval(curve, x), f"{where}: not on y^2 = f(x)")
        check_report(report, cm_rows.get(key), where)
    require(len(keys) == len(set(keys)), f"level {level}: a point is reported twice")
    require(
        set(keys) == table_points(row),
        f"level {level}: reported points differ from table1.json",
    )


def check_report(report: dict, cm_row, where: str) -> None:
    jpoly = [Fraction(c) for c in report["j_polynomial"]["coefficients"]]
    factors = report["factors"]
    product = [1]
    for f in factors:
        coeffs = [int(c) for c in f["coefficients"]]
        for _ in range(int(f["multiplicity"])):
            product = poly_mul(product, coeffs)
    require(
        [Fraction(c, product[-1]) for c in product] == jpoly,
        f"{where}: factors do not multiply back to the j-polynomial",
    )
    for f in factors:
        check_roots(f, where)
    require(cm_row is not None, f"{where}: no row in cm_tables.json")
    check_cm_row(report, cm_row, where)


def check_roots(factor: dict, where: str) -> None:
    coeffs = [int(c) for c in factor["coefficients"]]
    field, roots = factor["field"], factor["roots"]
    degree = len(coeffs) - 1
    where = f"{where} factor {factor['display']}"
    if field["kind"] == "rational":
        require(degree == 1 and len(roots) == 1, f"{where}: rational, degree {degree}")
        value = Fraction(roots[0]["value"])
        require(poly_eval(coeffs, value) == 0, f"{where}: root does not vanish")
    elif field["kind"] == "quadratic":
        require(degree == 2 and len(roots) == 2, f"{where}: quadratic, degree {degree}")
        seen = set()
        for r in roots:
            a, b, d = Fraction(r["a"]), Fraction(r["b"]), int(r["d"])
            require([str(d)] == field["generators"], f"{where}: radicand is not the field's")
            require(b != 0, f"{where}: surd root with b = 0")
            vanishes = surd_eval(coeffs, a, b, d) == (0, 0)
            require(vanishes, f"{where}: surd root does not vanish")
            seen.add((a, b))
        require(len(seen) == 2, f"{where}: surd roots are not distinct")
    elif field["kind"] == "multiquadratic":
        (r,) = roots
        gens = r["generators"]
        require(gens == field["generators"], f"{where}: root generators are not the field's")
        coords = [Fraction(c) for c in r["coordinates"]]
        check_multiquadratic(coeffs, [int(g) for g in gens], coords, where)
    else:
        raise CheckError(f"{where}: field kind {field['kind']!r}")


def check_multiquadratic(coeffs: list, gens: list, coords: list, where: str) -> None:
    """Every sign-flip conjugate, evaluated in mpmath, is a root of the factor."""
    k = len(gens)
    degree = len(coeffs) - 1
    require(len(coords) == 1 << k == degree, f"{where}: {k} generators for degree {degree}")
    with mpmath.workprec(512):
        sqrts = [mpmath.sqrt(mpmath.mpc(g)) for g in gens]
        values = []
        for mask in range(1 << k):
            theta = mpmath.mpc(0)
            for s, c in enumerate(coords):
                term = mpmath.mpf(c.numerator) / c.denominator
                for i in range(k):
                    if s >> i & 1:
                        term *= -sqrts[i] if mask >> i & 1 else sqrts[i]
                theta += term
            size = sum(abs(c) * max(1, abs(theta)) ** i for i, c in enumerate(coeffs))
            residual = abs(poly_eval(coeffs, theta))
            tiny = residual <= size * mpmath.mpf(2) ** -200
            require(tiny, f"{where}: conjugate {mask} is not a root")
            values.append(theta)
        for i in range(len(values)):
            for j in range(i):
                apart = abs(values[i] - values[j]) > mpmath.mpf(2) ** -100
                require(apart, f"{where}: conjugates {j} and {i} coincide")


def _matches(factor: dict, j: dict) -> bool:
    """Whether a factor carries the j-value of one CM table entry."""
    kind, roots = factor["field"]["kind"], factor["roots"]
    if j["kind"] == "rational":
        return kind == "rational" and Fraction(roots[0]["value"]) == Fraction(j["v"])
    if j["kind"] == "surd":
        u, v, d = Fraction(j["u"]), Fraction(j["v"]), int(j["d"])
        got = {(Fraction(r["a"]), Fraction(r["b"]), int(r["d"])) for r in roots}
        return kind == "quadratic" and got == {(u, v, d), (u, -v, d)}
    if j["kind"] == "field":
        gens = factor["field"].get("generators", ())
        return sorted(int(g) for g in gens) == sorted(j["gens"])
    raise CheckError(f"unknown CM table value kind {j['kind']!r}")


def check_cm_row(report: dict, row: dict, where: str) -> None:
    """D, j and fields of one report against its cm_tables.json row."""
    entries = report["cm_entries"]
    require(len(entries) == len(report["factors"]), f"{where}: not one CM entry per factor")
    found = sorted(int(d) for d in entries if d is not None)
    require(found == sorted(row["D"]), f"{where}: CM discriminants {found}, table {row['D']}")
    ds = row["D"] if row["cm"] else [None] * len(row["j"])
    for D, j in zip(ds, row["j"]):
        hits = [i for i, f in enumerate(report["factors"]) if _matches(f, j)]
        require(hits, f"{where}: no factor carries the table value {j}")
        want = None if D is None else str(D)
        require(any(entries[i] == want for i in hits), f"{where}: table value {j} has D {D}")


# ---------------------------------------------------------------------------
# identify-cm answers


def check_identify(doc: dict, D: int, hit: bool) -> None:
    """A hit returns its generating D, certified; a miss returns null."""
    match = doc.get("match")
    if not hit:
        require(match is None, f"shifted H_{D}: expected no match, got {match}")
        return
    require(match is not None, f"H_{D}: no match")
    require(match["D"] == str(D), f"H_{D}: matched D = {match['D']}")
    require(match["certified"] is True, f"H_{D}: match not certified")
