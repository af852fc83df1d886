"""Tests for symmetric j-function expressions and evaluation at points."""

import json
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from qstar.algnum import IntPolynomial
from qstar.cli import _report_data
from qstar.cm import ClassPolynomial
from qstar.errors import (
    InconsistentDatasetError,
    InputError,
    InsufficientPrecisionError,
)
from qstar.hyperelliptic import INF_MINUS, INF_PLUS, SexticCurve
from qstar.jpipeline import (
    FactorReport,
    FExpression,
    LevelContext,
    PointReport,
    PRECISION_MARGIN,
    _elementary_symmetric,
    divisors,
    expression_to_json,
    express_in_basis,
    evaluate_expression,
    j_expression,
    j_polynomial_at_point,
    point_report,
    required_precision,
)
import qstar.modular
from qstar.modular import (
    ValidationReport,
    dataset_from_json,
    dataset_to_json,
    load_dataset,
)
from qstar.series import LaurentSeries
from qstar.fixtures import fixture_curve

F = Fraction


def _ctx(level):
    return LevelContext.from_data(load_dataset(level))


@lru_cache(maxsize=None)
def _symmetric_series(level):
    """e_1 .. e_m of {j(dz) : d | level} as series, formed once per level."""
    return _elementary_symmetric(divisors(level), load_dataset(level).precision)


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


def test_value_classes_compare_hash_order_and_freeze():
    p = SexticCurve.from_coeffs([9, -14, 9, -6, 6, -4]).point(F(2), F(-1))
    assert repr(p) == "CurvePoint(kind='affine', x=Fraction(2, 1), y=Fraction(-1, 1))"
    assert repr(INF_MINUS) == "CurvePoint(kind='infinity_minus', x=None, y=None)"
    assert hash(p) == hash(("affine", F(2), F(-1)))
    assert p != INF_MINUS and INF_MINUS != ("infinity_minus", None, None)
    with pytest.raises(AttributeError):
        p.x = F(3)
    with pytest.raises(AttributeError):
        del p.y
    # a context is its six fields: rebuilt from them, it equals and hashes alike
    ctx = _ctx(67)
    twin = LevelContext(
        ctx.dataset, ctx.divisors, ctx.curve, ctx.generators, ctx.f_series,
        ctx.expressions,
    )
    assert ctx == twin and hash(ctx) == hash(twin)
    assert repr(ctx) == repr(twin)


def test_value_constructor_binds_fields_by_name():
    poly = IntPolynomial((3375, 1))
    by_position = ClassPolynomial(-7, poly, True)
    assert ClassPolynomial(-7, poly=poly, certified=True) == by_position
    assert ClassPolynomial(certified=True, discriminant=-7, poly=poly) == by_position
    with pytest.raises(TypeError, match="missing"):
        ClassPolynomial(-7, poly)
    with pytest.raises(TypeError, match="no field 'timing'"):
        ClassPolynomial(-7, poly, True, timing=0.5)
    with pytest.raises(TypeError, match="takes 3 fields"):
        ClassPolynomial(-7, poly, True, None)
    with pytest.raises(TypeError, match="twice"):
        ClassPolynomial(-7, poly, True, certified=True)


def test_reports_store_only_underived_fields():
    assert FactorReport.__slots__ == ("poly", "multiplicity", "roots", "cm")
    assert PointReport.__slots__ == ("level", "point", "j_coefficients", "factors")
    assert ValidationReport.__slots__ == (
        "level", "derived", "expected", "extra_verified", "error"
    )


def test_point_report_is_a_value_read_from_its_roots():
    ctx = _ctx(85)
    curve = ctx.curve
    # (point, [(field kind, generators, CM discriminant) per factor])
    cases = (
        (INF_MINUS, [("rational", (), -19)]),
        (curve.point(0, 5), [("quadratic", (5,), -35)]),
        (curve.point(F(3, 2), F(17, 8)), [("quadratic", (17,), -51)]),
        (curve.point(F(3, 2), F(-17, 8)), [("multiquadratic", (17, -95), None)]),
    )
    for p, expected in cases:
        report = point_report(ctx, p)
        assert report == point_report(ctx, p)
        assert hash(report) == hash(point_report(ctx, p))
        got = [(f.field_kind, f.generators, f.cm) for f in report.factors]
        assert got == expected, p
        data = _report_data(report)
        for f, fj in zip(report.factors, data["factors"]):
            assert fj["field"]["kind"] == f.field_kind
            assert fj["field"].get("generators", []) == [str(g) for g in f.generators]
        cms = [None if d is None else str(d) for *_, d in expected]
        assert data["cm_entries"] == cms
    # the 5th cyclotomic field is cyclic of degree 4, not multiquadratic
    opaque = FactorReport(IntPolynomial((1, 1, 1, 1, 1)), 1, (), None)
    assert (opaque.field_kind, opaque.generators) == ("opaque", ())


def test_divisors():
    assert divisors(1) == (1,)
    assert divisors(85) == (1, 5, 17, 85)
    assert divisors(12) == (1, 2, 3, 4, 6, 12)
    # a large prime level is factored, not trial-divided up to its root
    assert divisors(10**18 + 3) == (1, 10**18 + 3)


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
    # pinned precisions: the reduction's tail check reads the f-series up to
    # them, so a shorter series would silently certify less
    f3_prec = {67: 79, 73: 85, 85: 119, 107: 119}[level]
    ctx = _ctx(level)
    for order, s in enumerate(ctx.f_series, start=3):
        assert s.val == -order
        assert s.coeff(-order) == 1
        assert s.prec == f3_prec + 3 - order


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
    s1, s2 = _symmetric_series(67)
    assert s1.val == -67
    assert s1.coeff(-67) == 1
    assert s1.coeff(-1) == 1
    assert s1.coeff(0) == 1488

    assert s2.val == -68
    assert s2.coeff(-68) == 1


def test_symmetric_series_index_range():
    # e_1 .. e_m and nothing more: J_i exists exactly for i in 1..m
    ctx = _ctx(67)
    assert len(_symmetric_series(67)) == ctx.m == 2


@pytest.mark.parametrize("level", [67, 85])
def test_j_expression_index_range(level):
    # expressions[i - 1] alone would hand back J_m for i = 0
    ctx = _ctx(level)
    assert j_expression(ctx, ctx.m) == ctx.expressions[-1]
    for i in (0, ctx.m + 1, -1):
        with pytest.raises(InputError, match=f"index {i} outside 1..{ctx.m}"):
            j_expression(ctx, i)


def test_symmetric_series_needs_margin():
    data = load_dataset(67).truncate(required_precision(67) - 1)
    with pytest.raises(InsufficientPrecisionError, match=">= 80, got 79"):
        LevelContext.from_data(data)


# ---------------------------------------------------------------------------
# expressing series in the function-field basis


def test_j1_expression_level_67():
    ctx = _ctx(67)
    e = j_expression(ctx, 1)
    # polys[g][k] is the coefficient of f(3+g) * f3^k
    assert e.polys[0][21] == -23
    assert e.polys[1][21] == 1
    assert e.polys[2][0] == 92000
    assert e.polys[1][0] == 81536
    assert e.polys[0][0] == -571936
    assert e.constant == -65536


def test_j2_expression_level_67():
    ctx = _ctx(67)
    e = j_expression(ctx, 2)
    assert e.polys[2][21] == 1
    assert e.polys[1][21] == 720
    assert e.polys[0][21] == 179980
    assert e.polys[1][9] == -1369085873848977
    assert e.constant == 1073741824


@pytest.mark.parametrize("level", [67, 73])
@pytest.mark.parametrize("i", [1, 2])
def test_expression_reconstructs_series(level, i):
    # Substituting the generator q-expansions back into the expression
    # must reproduce the symmetric sum through the available precision.
    ctx = _ctx(level)
    target = _symmetric_series(level)[i - 1]
    e = j_expression(ctx, i)
    s3 = ctx.f_series[0]
    acc = LaurentSeries.from_fraction(e.constant, target.prec)
    for base, poly in zip(ctx.f_series, e.polys):
        term = base
        for c in poly:
            acc = acc + term.scale(c)
            term = term * s3
    diff = target - acc
    assert diff.is_zero()
    assert diff.prec >= 9


def test_vieta_products_level_67():
    # J1 and J2 are the coefficient functions of (T - j(z))(T - j(67 z)),
    # so J1^2 - 4*J2 must be the square of j(z) - j(67 z).
    ctx = _ctx(67)
    s1, s2 = _symmetric_series(67)
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
    assert e.polys == ((), (F(1),), ())
    assert e.constant == 5
    assert express_in_basis(s3 * s3, ctx.f_series).polys == ((F(0), F(1)), (), ())


def _basis_element(fs, n, cache):
    """f(3+g) * f3^k of pole order n = 3 + g + 3k, built from that of n - 3."""
    if n not in cache:
        cache[n] = fs[n - 3] if n < 6 else _basis_element(fs, n - 3, cache) * fs[0]
    return cache[n]


@pytest.mark.parametrize("level", [67, 73, 85, 107])
def test_basis_element_round_trip(level):
    # every pole order whose element the reduction can certify (8 positive
    # exponents left), up to at least sigma, the deepest pole of the J_i
    ctx = _ctx(level)
    fs = ctx.f_series
    cache = {}
    n = 3
    while True:
        element = _basis_element(fs, n, cache)
        if element.prec < 9:
            break
        e = express_in_basis(element, fs)
        g, k = n % 3, n // 3 - 1
        assert e.constant == 0, n
        assert e.polys[g][k] == 1, n
        nonzero = [c for poly in e.polys for c in poly if c]
        assert nonzero == [1], n
        n += 1
    assert n > ctx.sigma


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


def _greedy_reference(series, f_series):
    """The greedy as a chain of LaurentSeries subtractions: the oracle."""
    cache = {}
    polys = ([], [], [])
    cur = series
    while not cur.is_zero() and cur.val < 0:
        order = -cur.val
        if order in (1, 2):
            raise InputError(
                f"pole order {order} reached; input is not a function with "
                "poles only above x = infinity"
            )
        c = cur.coeff(cur.val)
        poly = polys[order % 3]
        poly.extend([F(0)] * (order // 3 - len(poly)))
        poly[order // 3 - 1] = c
        cur = cur - _basis_element(f_series, order, cache).scale(c)
    if cur.prec < 9:
        raise InsufficientPrecisionError(
            "fewer than 8 positive-exponent coefficients remain to certify "
            f"the reduction (precision O(q^{cur.prec}))"
        )
    constant = cur.coeff(0)
    for k in range(1, cur.prec):
        if cur.coeff(k):
            raise InconsistentDatasetError(
                f"residual tail has nonzero q^{k} coefficient {cur.coeff(k)}"
            )
    return FExpression(constant=constant, polys=tuple(map(tuple, polys)))


def _outcome(reduce, series, f_series):
    try:
        return reduce(series, f_series)
    except (InputError, InsufficientPrecisionError, InconsistentDatasetError) as exc:
        return type(exc), str(exc)


def _rational_basis(fs):
    """f3 + 1/3, f4 - 2/5 f3, f5 + 3/7 f4 - 1/2: same pole orders, leading 1."""
    s3, s4, s5 = fs
    one = LaurentSeries.from_fraction(1, s3.prec)
    return (
        s3 + one.scale(F(1, 3)),
        s4 - s3.scale(F(2, 5)),
        s5 + s4.scale(F(3, 7)) - one.scale(F(1, 2)),
    )


def _random_member(rng, fs, max_order):
    """A seeded rational combination of basis monomials, plus a constant."""
    cache = {}
    constant = F(rng.randint(-99, 99), rng.randint(1, 9))
    total = LaurentSeries.from_fraction(constant, fs[0].prec)
    for order in rng.sample(range(3, max_order + 1), 12):
        c = F(rng.choice([-1, 1]) * rng.randint(1, 10**6), rng.randint(2, 60))
        total = total + _basis_element(fs, order, cache).scale(c)
    return total


def test_integer_greedy_matches_series_greedy_on_rational_input():
    fs = _ctx(67).f_series
    rng = random.Random(2718)
    # the short basis leaves the probes more precise than every monomial
    short = tuple(s.truncate(s.prec - 7) for s in fs)
    for basis in (fs, _rational_basis(fs), short):
        for _ in range(6):
            probe = _random_member(rng, fs, 60)
            assert probe.den > 1
            cut = rng.randint(probe.val + 1, probe.prec)
            for series in (probe, probe.truncate(cut)):
                expected = _outcome(_greedy_reference, series, basis)
                assert _outcome(express_in_basis, series, basis) == expected
            assert isinstance(_outcome(express_in_basis, probe, basis), FExpression)


def test_integer_greedy_errors_match_series_greedy():
    fs = _ctx(67).f_series
    s3, s4, _ = fs
    third = F(1, 3)
    tail = LaurentSeries(5, [7] + [0] * (s3.prec - 6), 3)
    cases = {
        InputError: [
            s3.shift(2).scale(third),  # pole order 1 at once
            s4.scale(third) + LaurentSeries(-2, [1] + [0] * (s4.prec + 1), 2),
        ],
        InsufficientPrecisionError: [s3.scale(third).truncate(8), s4.truncate(5)],
        InconsistentDatasetError: [s3.scale(third) + tail],
    }
    for basis in (fs, _rational_basis(fs)):
        for error, probes in cases.items():
            for probe in probes:
                expected = _outcome(_greedy_reference, probe, basis)
                assert expected[0] is error
                assert _outcome(express_in_basis, probe, basis) == expected


def test_block_reduction_matches_series_greedy_across_blocks():
    # three digits a block and pole orders of 27 to 60, so every probe spans
    # at least three blocks, some with empty top digits; the cuts end the
    # known coefficients at every digit position of a block
    fs = _ctx(67).f_series
    rng = random.Random(314)
    short = tuple(s.truncate(s.prec - 7) for s in fs)
    # a short f4 sets the precision below the top element's; a short f3
    # bounds f4 f3^k and f5 f3^k by f3
    short_f4 = (fs[0], fs[1].truncate(fs[1].prec - 20), fs[2])
    short_f3 = (fs[0].truncate(fs[0].prec - 6), fs[1], fs[2])
    for basis in (fs, _rational_basis(fs), short, short_f4, short_f3):
        tables = {"s": 3}  # shared across the probes, as from_data shares them
        for max_order in (40, 47, 60):
            probe = _random_member(rng, fs, max_order)
            assert -probe.val >= 27
            cuts = range(probe.val + 1, 0) if max_order == 40 else rng.sample(
                range(probe.val + 1, probe.prec + 1), 8
            )
            for cut in (probe.prec, *cuts):
                series = probe.truncate(cut)
                expected = _outcome(_greedy_reference, series, basis)
                assert _outcome(express_in_basis, series, basis) == expected
                got = _outcome(
                    lambda f, b: express_in_basis(f, b, _cache=tables), series, basis
                )
                assert got == expected


@pytest.mark.parametrize("i, certified", [(1, 15), (2, 14)])
def test_reduction_precision_boundary_level_67(i, certified):
    # J_i truncated to O(q^t), plus q^(t-1)/7: the reduction certifies
    # min(t, certified) coefficients, so the marker is seen exactly when
    # t <= certified, and below 9 the reduction refuses
    ctx = _ctx(67)
    series = _symmetric_series(67)[i - 1]
    assert series.prec == certified + 2
    outcomes = {}
    for t in range(series.prec - 12, series.prec + 1):
        marker = LaurentSeries(t - 1, [1], 7)
        for probe in (series.truncate(t), series.truncate(t) + marker):
            expected = _outcome(_greedy_reference, probe, ctx.f_series)
            assert _outcome(express_in_basis, probe, ctx.f_series) == expected
        outcomes[t] = expected
    assert outcomes[8][0] is InsufficientPrecisionError
    assert outcomes[certified] == (
        InconsistentDatasetError,
        f"residual tail has nonzero q^{certified - 1} coefficient 1/7",
    )
    assert outcomes[certified + 1] == j_expression(ctx, i)


# ---------------------------------------------------------------------------
# evaluation at rational points


def test_evaluate_expression_matches_generators():
    ctx = _ctx(67)
    e = j_expression(ctx, 1)
    assert evaluate_expression(e, (F(0), F(1), F(0))) == 16000


def _evaluate_reference(e, fvals):
    """Term-by-term substitution with Fraction powers: the oracle."""
    gen_vals = [Fraction(v) for v in fvals]
    total = e.constant
    for gen_val, poly in zip(gen_vals, e.polys):
        for k, c in enumerate(poly):
            total += c * gen_val * gen_vals[0] ** k
    return total


def test_horner_evaluation_matches_term_by_term():
    rng = random.Random(31415)
    slots = [(g, k) for g in range(3) for k in range(13)]
    exprs = [FExpression(constant=F(-7, 3), polys=((), (), ()))]
    for _ in range(10):
        polys = [[F(0)] * 13 for _ in range(3)]
        for g, k in rng.sample(slots, rng.randint(1, 20)):
            c = F(rng.choice([-1, 1]) * rng.randint(1, 10**9), rng.randint(1, 40))
            polys[g][k] = c
        polys = tuple(map(tuple, polys))
        exprs.append(FExpression(constant=F(rng.randint(-50, 50), 7), polys=polys))
    exprs.append(FExpression(constant=F(0), polys=((), (F(0),) * 5 + (F(3, 4),), ())))
    points = [
        (F(0), F(0), F(0)),  # inf-
        (F(0), F(1), F(-2, 9)),
        (F(-3), F(5), F(7)),
        (F(-7, 3), F(2, 5), F(-11, 4)),
        (F(5, 11), F(-1, 6), F(13)),
        (1, -2, 3),
    ]
    for e in exprs:
        for fvals in points:
            value = evaluate_expression(e, fvals)
            assert isinstance(value, Fraction)
            assert value == _evaluate_reference(e, fvals)


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
        polys = ([], [], [])
        for t in doc["terms"]:
            poly = polys[int(t["gen"][1:]) - 3]
            k = int(t["k"])
            poly.extend([F(0)] * (k + 1 - len(poly)))
            poly[k] = F(t["coeff"])
        assert tuple(map(tuple, polys)) == e.polys


def test_expression_json_strings_are_exact():
    e = FExpression(constant=F(1, 3), polys=((), (F(0), F(0), F(-7, 2)), ()))
    doc = expression_to_json(e)
    assert doc["constant"] == "1/3"
    assert doc["terms"] == [{"gen": "f4", "k": "2", "coeff": "-7/2"}]


def test_expression_terms_sorted_by_pole_order():
    # f3^5 (order 15), f5 * f3 (order 8) and f4 (order 4), zeros left out
    polys = ((F(0),) * 4 + (F(1),), (F(1),), (F(0), F(1)))
    e = FExpression(constant=F(0), polys=polys)
    gens = [(t["gen"], int(t["k"])) for t in expression_to_json(e)["terms"]]
    assert gens == [("f3", 4), ("f5", 1), ("f4", 0)]
