"""Sextic curve models, Riemann-Roch generators, and point search."""

import random
from fractions import Fraction

import pytest

from qstar.algnum import _zmul, _zsub
from qstar.errors import InputError
from qstar.fixtures import fixture_curve, fixture_points, load_table
from qstar.hyperelliptic import (
    INF_MINUS,
    INF_PLUS,
    CurvePoint,
    SexticCurve,
    evaluate_f,
    involution,
    rr_generators,
    search_points,
)
from qstar.jpipeline import express_in_basis, expression_to_json
from qstar.series import LaurentSeries

F = Fraction


def fixture_levels() -> list:
    """All bundled levels, ascending."""
    return sorted(load_table())


def is_affine(p: CurvePoint) -> bool:
    return p.kind == "affine"


def random_curve(rng, span=9):
    """A random squarefree sextic with small integer coefficients."""
    while True:
        try:
            return SexticCurve.from_coeffs([rng.randint(-span, span) for _ in range(6)])
        except InputError:
            continue


# --- construction -----------------------------------------------------------


def test_construction_and_f_at():
    c = SexticCurve.from_coeffs([9, -14, 9, -6, 6, -4])
    assert c.f_at(1) == 1 - 4 + 6 - 6 + 9 - 14 + 9
    assert c.f_at(F(1, 2)) == F(1 + 2 * (-4) + 4 * 6 + 8 * (-6) + 16 * 9 + 32 * (-14) + 64 * 9, 64)
    assert c.f_coeffs()[-1] == 1


def test_non_squarefree_rejected():
    # (x^2)(x^4) = x^6 has a repeated root at 0
    with pytest.raises(InputError):
        SexticCurve.from_coeffs([0, 0, 0, 0, 0, 0])
    # (x^3 - x)^2 = x^6 - 2x^4 + x^2
    with pytest.raises(InputError):
        SexticCurve.from_coeffs([0, 0, 1, 0, -2, 0])
    # squarefree with a rational double point would need repeated factors;
    # x^6 + 1 is fine
    SexticCurve.from_coeffs([1, 0, 0, 0, 0, 0])
    # rational coefficients are cleared before the discriminant test:
    # (x^2 - 1/4)^2 (x^2 + 1) is singular, x^6 + 1/2 is not
    with pytest.raises(InputError):
        SexticCurve.from_coeffs(
            [Fraction(1, 16), 0, Fraction(-7, 16), 0, Fraction(1, 2), 0]
        )
    SexticCurve.from_coeffs([Fraction(1, 2), 0, 0, 0, 0, 0])


def test_singular_sextics_are_exactly_those_with_zero_discriminant():
    import sympy

    rng = random.Random(6161)
    x = sympy.symbols("x")
    singular = 0
    for _ in range(150):
        # half the draws get a forced square factor (x - r)^2
        r = rng.randint(-3, 3)
        rest = [rng.randint(-4, 4) for _ in range(4)] + [1]
        square = [r * r, -2 * r, 1]
        coeffs = [rng.randint(-6, 6) for _ in range(6)] + [1]
        if rng.random() < 0.5:
            coeffs = [
                sum(square[i] * rest[k - i] for i in range(3) if 0 <= k - i < 5)
                for k in range(7)
            ]
        disc = sympy.discriminant(sympy.Poly(list(reversed(coeffs)), x))
        if disc == 0:
            singular += 1
            with pytest.raises(InputError):
                SexticCurve.from_coeffs(coeffs[:6])
        else:
            SexticCurve.from_coeffs(coeffs[:6])
    assert 50 < singular < 100


def test_point_validation():
    c = fixture_curve(67)
    p = c.point(1, 1)
    assert is_affine(p) and p.x == 1 and p.y == 1
    with pytest.raises(InputError):
        c.point(1, 2)


# --- involution --------------------------------------------------------------


def test_involution_affine_and_infinity():
    c = fixture_curve(67)
    assert involution(c.point(0, 3)) == c.point(0, -3)
    assert involution(INF_PLUS) == INF_MINUS
    assert involution(INF_MINUS) == INF_PLUS


def test_involution_fixes_weierstrass_point():
    c = fixture_curve(154)
    p = c.point(2, 0)
    assert involution(p) == p


# --- generators: closed forms -----------------------------------------------


def test_generators_level_67():
    g = rr_generators(fixture_curve(67))
    # f3 = (-1 + x - 2x^2 + x^3 + y)/2, f4 = x*f3 + 1, f5 = x*f4 - 1
    assert g.p == (F(-1, 2), F(1, 2), F(-1), F(1, 2))
    assert g.k4 == 1 and g.k5 == -1


def test_generators_x6_plus_1():
    g = rr_generators(SexticCurve.from_coeffs([1, 0, 0, 0, 0, 0]))
    assert g.p == (0, 0, 0, F(1, 2))
    assert g.k4 == 0 and g.k5 == 0


def test_generators_x6_plus_x():
    g = rr_generators(SexticCurve.from_coeffs([0, 1, 0, 0, 0, 0]))
    assert g.k4 == 0
    assert g.k5 == F(1, 4)


def test_generator_shape_random():
    rng = random.Random(11)
    for _ in range(25):
        g = rr_generators(random_curve(rng))
        # P is a cubic with leading coefficient 1/2
        assert len(g.p) == 4 and g.p[3] == F(1, 2)


# --- generator evaluation -----------------------------------------------------


def test_evaluate_f_level_67_anchors():
    c = fixture_curve(67)
    g = rr_generators(c)
    assert evaluate_f(g, c.point(1, 1)) == (0, 1, 0)
    assert evaluate_f(g, c.point(-1, 7)) == (1, 0, -1)
    assert evaluate_f(g, INF_MINUS) == (0, 0, 0)
    with pytest.raises(InputError):
        evaluate_f(g, INF_PLUS)


def test_evaluate_f_vanishes_at_inf_minus_random():
    rng = random.Random(23)
    for _ in range(20):
        g = rr_generators(random_curve(rng))
        assert evaluate_f(g, INF_MINUS) == (0, 0, 0)


# --- symbolic identities ------------------------------------------------------


def check_identities(curve):
    # f_i = P_i(x) + x^(i-3) y / 2, so f_i - f_i|w = x^(i-3) y by construction.
    # f_i has its one pole, of order i, at inf+ and vanishes at inf-, so the
    # norm f_i * f_i|w = P_i^2 - x^(2(i-3)) f(x) / 4 is a polynomial in x of
    # degree at most i - 1.
    g = rr_generators(curve)
    quarter_f = [c / 4 for c in curve.f_coeffs()]
    p3 = list(g.p)
    p4 = [g.k4] + p3  # x*P3 + k4
    p5 = [g.k5] + p4  # x*P4 + k5
    for i, p in ((3, p3), (4, p4), (5, p5)):
        norm = _zsub(_zmul(p, p), [0] * (2 * (i - 3)) + quarter_f)
        assert len(norm) <= i, (str(curve), i)


def test_identities_all_fixture_curves():
    for lvl in fixture_levels():
        check_identities(fixture_curve(lvl))


def test_identities_random_curves():
    rng = random.Random(47)
    for _ in range(15):
        check_identities(random_curve(rng))


# --- basis monomials by pole order ---------------------------------------------


def _pole(n, prec=220):
    """q^-n + O(q^prec): a function whose only pole has order n."""
    return LaurentSeries(-n, [1] + [0] * (prec + n - 1))


# f3, f4, f5 with nothing but their poles, so each f(3+g) * f3^k is q^-(3+g+3k)
# and a reduction of q^-n reads off which basis monomial has pole order n.
POLES = (_pole(3), _pole(4), _pole(5))


def test_monomial_for_order_anchors():
    for n, gen, k in ((3, "f3", 0), (4, "f4", 0), (5, "f5", 0), (66, "f3", 21),
                      (67, "f4", 21), (68, "f5", 21)):
        e = expression_to_json(express_in_basis(_pole(n), POLES))
        assert e == {"constant": "0", "terms": [{"k": k, "gen": gen, "coeff": "1"}]}, n


def test_monomial_order_roundtrip_and_injectivity():
    seen = set()
    tables = {}  # the Horner tables, shared across orders as j_expression shares them
    for n in range(3, 200):
        e = express_in_basis(_pole(n), POLES, _cache=tables)
        assert e.constant == 0
        terms = [(g, k) for g, poly in enumerate(e.polys) for k, c in enumerate(poly) if c]
        assert len(terms) == 1, n
        g, k = terms[0]
        assert e.polys[g][k] == 1
        assert 3 + g + 3 * k == n
        assert (g, k) not in seen
        seen.add((g, k))


# --- point search ---------------------------------------------------------------


def as_set(points):
    return {(p.kind, p.x, p.y) for p in points}


def test_search_level_67():
    pts = search_points(fixture_curve(67), 10)
    want = {("infinity_plus", None, None), ("infinity_minus", None, None)}
    for x, y in ((-1, 7), (0, 3), (1, 1), (2, 1)):
        want.add(("affine", F(x), F(y)))
        want.add(("affine", F(x), F(-y)))
    assert as_set(pts) == want


def test_search_level_167():
    pts = search_points(fixture_curve(167), 10)
    affine = [p for p in pts if is_affine(p)]
    assert as_set(affine) == {("affine", F(-1), F(1)), ("affine", F(-1), F(-1))}


def test_search_x6_plus_1():
    pts = search_points(SexticCurve.from_coeffs([1, 0, 0, 0, 0, 0]), 1)
    assert INF_PLUS in pts and INF_MINUS in pts
    affine = [p for p in pts if is_affine(p)]
    assert as_set(affine) == {("affine", F(0), F(1)), ("affine", F(0), F(-1))}


def test_search_weierstrass_emitted_once():
    pts = search_points(fixture_curve(154), 4)
    zeros = [p for p in pts if is_affine(p) and p.y == 0]
    assert zeros == [CurvePoint(kind="affine", x=F(2), y=F(0))]


def test_search_closed_under_involution_and_on_curve():
    rng = random.Random(5)
    for _ in range(10):
        c = random_curve(rng, span=5)
        pts = search_points(c, 8)
        got = set(pts)
        for p in pts:
            assert involution(p) in got
            if is_affine(p):
                assert p.y * p.y == c.f_at(p.x)


def test_search_bad_height():
    with pytest.raises(InputError):
        search_points(fixture_curve(67), 0)


# --- bundled table ---------------------------------------------------------------


def test_fixture_table_loads_and_counts():
    table = load_table()
    assert len(table) == 36
    assert fixture_levels()[0] == 67 and fixture_levels()[-1] == 390
    # every stored point was validated on-curve by the loader (curve.point)
    total = sum(len(f.points) for f in table.values())
    assert total == 238


def test_fixture_anomaly_level_165():
    fx = load_table()[165]
    assert fx.anomalous_points == ((F(-1), F(4)),)
    # the recorded pair really is off the recorded curve: f(-1) < 0
    assert fx.curve.f_at(-1) == -20
    assert all(p.x != -1 for p in fx.points)


def test_fixture_complete_levels():
    complete = {lvl for lvl, fx in load_table().items() if fx.points_complete}
    assert complete == {85, 93, 106, 115, 122, 129, 154, 158, 161, 165, 170,
                        186, 209, 215, 230, 285, 286, 357, 390}


def test_fixture_points_closed_under_involution():
    for lvl in fixture_levels():
        pts = set(fixture_points(lvl))
        assert {involution(p) for p in pts} == pts


def test_search_reproduces_complete_levels():
    """Height-12 search recovers exactly the stored set where it is exhaustive."""
    for lvl, fx in sorted(load_table().items()):
        found = search_points(fx.curve, 12)
        affine = {p for p in found if is_affine(p)}
        if fx.points_complete:
            assert affine == set(fx.points), lvl
        else:
            assert set(fx.points) <= affine, lvl


def test_search_height_1000_finds_exactly_the_complete_point_sets():
    """Where the table's affine list is exhaustive, a height-1000 search adds nothing."""
    complete = [fx for _, fx in sorted(load_table().items()) if fx.points_complete]
    assert len(complete) == 19
    for fx in complete:
        found = search_points(fx.curve, 1000)
        affine = {p for p in found if is_affine(p)}
        assert affine == set(fx.points), fx.level


def test_fixture_unknown_level():
    with pytest.raises(InputError):
        fixture_curve(68)
    with pytest.raises(InputError):
        fixture_points(100)
