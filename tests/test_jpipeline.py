"""Tests for symmetric j-function expressions and evaluation at points."""

import json
import random
from fractions import Fraction

import pytest

from qstar.errors import (
    InconsistentDatasetError,
    InputError,
    InsufficientPrecisionError,
)
from qstar.hyperelliptic import INF_MINUS, INF_PLUS, Monomial, SexticCurve
from qstar.jpipeline import (
    FExpression,
    LevelContext,
    PRECISION_MARGIN,
    expression_to_json,
    express_in_basis,
    evaluate_expression,
    j_expression,
    j_polynomial_at_point,
    required_precision,
    symmetric_j_series,
)
import qstar.modular
from qstar.modular import dataset_from_json, dataset_to_json, load_dataset
from qstar.series import LaurentSeries
from qstar.fixtures import fixture_curve

F = Fraction


def _ctx(level):
    return LevelContext.from_data(load_dataset(level))


# ---------------------------------------------------------------------------
# context construction


def test_context_divisors_and_sigma():
    ctx = _ctx(67)
    assert ctx.divisors == (1, 67)
    assert ctx.m == 2
    assert ctx.sigma == 68

    ctx = _ctx(85)
    assert ctx.divisors == (1, 5, 17, 85)
    assert ctx.m == 4
    assert ctx.sigma == 108


def test_required_precision_values():
    assert required_precision(67) == 68 + PRECISION_MARGIN
    assert required_precision(73) == 74 + PRECISION_MARGIN
    assert required_precision(85) == 108 + PRECISION_MARGIN
    assert required_precision(107) == 108 + PRECISION_MARGIN


@pytest.mark.parametrize("level", [67, 73, 85, 107])
def test_context_curve_is_the_table_curve(level):
    assert _ctx(level).curve == fixture_curve(level)


def test_context_derives_the_coordinates_once(monkeypatch):
    # deriving the model and expanding f3, f4, f5 share one coordinate pass
    data = dataset_from_json(dataset_to_json(load_dataset(85)))
    original = qstar.modular.coordinates
    calls = []

    def counting(h1, h2):
        calls.append(1)
        return original(h1, h2)

    monkeypatch.setattr(qstar.modular, "coordinates", counting)
    qstar.modular.coordinate_series.cache_clear()
    ctx = LevelContext.from_data(data)
    assert ctx.curve == fixture_curve(85)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# function-field generators as q-series


@pytest.mark.parametrize("level", [67, 73, 85, 107])
def test_f_series_leading_behaviour(level):
    ctx = _ctx(level)
    for gen, s in zip(("f3", "f4", "f5"), ctx.f_series):
        order = {"f3": 3, "f4": 4, "f5": 5}[gen]
        assert s.val == -order
        assert s.coeff(-order) == 1


def test_f_series_satisfies_recurrences():
    # f4 = x*f3 + 1 and f5 = x*f4 - 1 must hold coefficientwise.
    ctx = _ctx(67)
    from qstar.modular import coordinate_series

    x, _ = coordinate_series(ctx.dataset)
    s3, s4, s5 = ctx.f_series
    d4 = s4 - x * s3
    d5 = s5 - x * s4
    assert d4.coeff(0) == 1 and d5.coeff(0) == -1
    for k in range(d4.val, min(d4.prec, d5.prec)):
        if k == 0:
            continue
        assert d4.coeff(k) == 0
        assert d5.coeff(k) == 0


def test_f_series_rejects_low_precision():
    data = load_dataset(67).truncate(15)
    with pytest.raises(InsufficientPrecisionError):
        LevelContext.from_data(data)


# ---------------------------------------------------------------------------
# symmetric sums of j-expansions


def test_symmetric_series_level_67():
    ctx = _ctx(67)
    s1 = symmetric_j_series(ctx, 1)
    assert s1.val == -67
    assert s1.coeff(-67) == 1
    assert s1.coeff(-1) == 1
    assert s1.coeff(0) == 1488

    s2 = symmetric_j_series(ctx, 2)
    assert s2.val == -68
    assert s2.coeff(-68) == 1


def test_symmetric_series_index_range():
    ctx = _ctx(67)
    with pytest.raises(InputError):
        symmetric_j_series(ctx, 0)
    with pytest.raises(InputError):
        symmetric_j_series(ctx, 3)


def test_symmetric_series_needs_margin():
    data = load_dataset(67).truncate(required_precision(67) - 1)
    with pytest.raises(InsufficientPrecisionError, match=">= 80, got 79"):
        LevelContext.from_data(data)


# ---------------------------------------------------------------------------
# expressing series in the function-field basis


def test_j1_expression_level_67():
    ctx = _ctx(67)
    e = j_expression(ctx, 1)
    assert e.coefficient(Monomial("f3", 21)) == -23
    assert e.coefficient(Monomial("f4", 21)) == 1
    assert e.coefficient(Monomial("f5", 0)) == 92000
    assert e.coefficient(Monomial("f4", 0)) == 81536
    assert e.coefficient(Monomial("f3", 0)) == -571936
    assert e.constant == -65536


def test_j2_expression_level_67():
    ctx = _ctx(67)
    e = j_expression(ctx, 2)
    assert e.coefficient(Monomial("f5", 21)) == 1
    assert e.coefficient(Monomial("f4", 21)) == 720
    assert e.coefficient(Monomial("f3", 21)) == 179980
    assert e.coefficient(Monomial("f4", 9)) == -1369085873848977
    assert e.constant == 1073741824


@pytest.mark.parametrize("level", [67, 73])
@pytest.mark.parametrize("i", [1, 2])
def test_expression_reconstructs_series(level, i):
    # Substituting the generator q-expansions back into the expression
    # must reproduce the symmetric sum through the available precision.
    ctx = _ctx(level)
    target = symmetric_j_series(ctx, i)
    e = j_expression(ctx, i)
    s3 = ctx.f_series[0]
    acc = LaurentSeries.from_fraction(e.constant, target.prec)
    for mono, c in e.terms:
        base = {"f3": s3, "f4": ctx.f_series[1], "f5": ctx.f_series[2]}[mono.gen]
        term = base
        for _ in range(mono.k):
            term = term * s3
        acc = acc + term.scale(c)
    diff = target - acc
    assert diff.is_zero()
    assert diff.prec >= 9


def test_vieta_products_level_67():
    # J1 and J2 are the coefficient functions of (T - j(z))(T - j(67 z)),
    # so J1^2 - 4*J2 must be the square of j(z) - j(67 z).
    ctx = _ctx(67)
    s1 = symmetric_j_series(ctx, 1)
    s2 = symmetric_j_series(ctx, 2)
    lhs = s1 * s1 - s2.scale(4)
    prec = lhs.prec
    d1 = ctx.dataset.precision
    from qstar.series import j_expansion

    j1 = j_expansion(d1).truncate(prec)
    j67 = j_expansion(-(-prec // 67)).rescale_exponent(67).truncate(prec)
    diff = j1 - j67
    assert (lhs - diff * diff).is_zero()


def test_express_in_basis_round_trip():
    ctx = _ctx(67)
    s3, s4, _ = ctx.f_series
    probe = s4 + LaurentSeries.from_fraction(F(5), s4.prec)
    e = express_in_basis(probe, ctx.f_series)
    assert e.terms == ((Monomial("f4", 0), F(1)),)
    assert e.constant == 5
    assert express_in_basis(s3 * s3, ctx.f_series).coefficient(
        Monomial("f3", 1)
    ) == 1


def test_express_in_basis_rejects_gap_orders():
    ctx = _ctx(67)
    bad = ctx.f_series[0].shift(2)  # pole order 1
    with pytest.raises(InputError):
        express_in_basis(bad, ctx.f_series)
    bad = ctx.f_series[0].shift(1)  # pole order 2
    with pytest.raises(InputError):
        express_in_basis(bad, ctx.f_series)


def test_express_in_basis_rejects_short_series():
    ctx = _ctx(67)
    with pytest.raises(InsufficientPrecisionError):
        express_in_basis(ctx.f_series[0].truncate(8), ctx.f_series)


def test_express_in_basis_rejects_non_member():
    # A series with a stray positive-power tail is not in the span.
    ctx = _ctx(67)
    s3 = ctx.f_series[0]
    tail = LaurentSeries(1, [1] + [0] * (s3.prec - 2))
    probe = s3 + tail
    with pytest.raises(InconsistentDatasetError):
        express_in_basis(probe, ctx.f_series)


# ---------------------------------------------------------------------------
# evaluation at rational points


def test_evaluate_expression_matches_generators():
    ctx = _ctx(67)
    e = j_expression(ctx, 1)
    assert evaluate_expression(e, (F(0), F(1), F(0))) == 16000


def test_polynomial_at_infinity_minus():
    ctx = _ctx(67)
    coeffs = j_polynomial_at_point(ctx, INF_MINUS)
    assert coeffs == (F(1073741824), F(65536), F(1))
    # (z + 32768)^2
    assert coeffs[1] ** 2 == 4 * coeffs[0]


def test_polynomial_at_affine_points():
    ctx = _ctx(67)
    assert j_polynomial_at_point(ctx, ctx.curve.point(1, 1)) == (
        F(64000000),
        F(-16000),
        F(1),
    )
    c = j_polynomial_at_point(ctx, ctx.curve.point(-1, 7))
    assert c[2] == 1
    z = F(255**3)
    assert c[0] + c[1] * z + c[2] * z * z == 0


def test_polynomial_levels_73_and_107():
    ctx73 = _ctx(73)
    c = j_polynomial_at_point(ctx73, ctx73.curve.point(0, 1))
    assert c == (F(150994944000000), F(24576000), F(1))
    # double root at -12288000
    assert c[1] ** 2 == 4 * c[0]

    ctx107 = _ctx(107)
    c = j_polynomial_at_point(ctx107, ctx107.curve.point(0, 1))
    assert c == (F(11390625), F(6750), F(1))
    assert c[1] ** 2 == 4 * c[0]


def test_polynomial_level_85_quartic():
    ctx85 = _ctx(85)
    c = j_polynomial_at_point(ctx85, ctx85.curve.point(0, 5))
    assert len(c) == 5
    assert c[4] == 1
    assert c == (
        F(18014398509481984000000),
        F(-31665934879948800000),
        F(13915425603584000),
        F(235929600),
        F(1),
    )


def test_polynomial_rejects_cusp():
    ctx = _ctx(67)
    with pytest.raises(InputError):
        j_polynomial_at_point(ctx, INF_PLUS)


def test_point_constructor_rejects_non_member():
    ctx = _ctx(67)
    with pytest.raises(InputError):
        ctx.curve.point(0, 1)


@pytest.mark.parametrize("level", [67, 107])
def test_truncation_does_not_change_polynomials(level):
    # Any sufficiently precise dataset determines the same expressions.
    full = _ctx(level)
    data = load_dataset(level).truncate(required_precision(level))
    lean = LevelContext.from_data(data)
    for i in range(1, full.m + 1):
        assert j_expression(full, i) == j_expression(lean, i)
    pt = full.curve.point(1, 1) if level == 67 else full.curve.point(0, 1)
    assert j_polynomial_at_point(full, pt) == j_polynomial_at_point(lean, pt)


def test_polynomial_signs_alternate():
    # coefficient of z^(m-i) is (-1)^i * J_i evaluated at the point
    ctx = _ctx(67)
    pt = ctx.curve.point(1, 1)
    coeffs = j_polynomial_at_point(ctx, pt)
    from qstar.hyperelliptic import rr_generators, evaluate_f

    vals = evaluate_f(rr_generators(ctx.curve), pt)
    assert coeffs[1] == -evaluate_expression(j_expression(ctx, 1), vals)
    assert coeffs[0] == evaluate_expression(j_expression(ctx, 2), vals)


# ---------------------------------------------------------------------------
# serialization


def test_expression_json_round_trip():
    ctx = _ctx(67)
    for i in (1, 2):
        e = j_expression(ctx, i)
        doc = json.loads(json.dumps(expression_to_json(e)))
        assert F(doc["constant"]) == e.constant
        terms = [(Monomial(t["gen"], t["k"]), F(t["coeff"])) for t in doc["terms"]]
        assert terms == list(e.terms)


def test_expression_json_strings_are_exact():
    e = FExpression(
        constant=F(1, 3),
        terms=((Monomial("f4", 2), F(-7, 2)),),
    )
    doc = expression_to_json(e)
    assert doc["constant"] == "1/3"
    assert doc["terms"][0] == {"gen": "f4", "k": 2, "coeff": "-7/2"}


def test_expression_validation():
    with pytest.raises(InputError):
        FExpression(constant=F(0), terms=((Monomial("f3", 0), F(0)),))
    with pytest.raises(InputError):
        FExpression(
            constant=F(0),
            terms=(
                (Monomial("f3", 0), F(1)),
                (Monomial("f3", 0), F(2)),
            ),
        )


def test_expression_terms_sorted_by_pole_order():
    rng = random.Random(85)
    monos = [Monomial("f3", 4), Monomial("f5", 1), Monomial("f4", 0)]
    rng.shuffle(monos)
    e = FExpression(
        constant=F(0), terms=tuple((m, F(1)) for m in monos)
    )
    orders = [m.pole_order for m, _ in e.terms]
    assert orders == sorted(orders, reverse=True)
