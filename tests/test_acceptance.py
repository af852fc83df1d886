"""Acceptance gate: one test per advertised end-to-end guarantee.

Every test here pins exact expected values (no tolerances anywhere — all
arithmetic is exact) together with a wall-clock budget.  The budgets have
10x-1000x margin on the reference machine, so a timing failure means a real
performance regression, not scheduler noise.  Run with ``pytest -v`` to get
one pass/fail line per criterion.
"""

import gc
import random
import time
from fractions import Fraction
from math import gcd, lcm

import pytest

import qstar.cm
from qstar.algnum import (
    IntPolynomial,
    MultiQuadElement,
    _zmul,
    _zsub,
    factor_rational,
    identify_multiquadratic,
    squarefree_kernel,
)
from qstar.cm import (
    class_number,
    class_polynomial,
    identify_cm,
    one_class_per_genus,
    reduced_forms,
)
from qstar.fixtures import fixture_curve, load_cm_table, load_table
from qstar.hyperelliptic import (
    INF_MINUS,
    INF_PLUS,
    rr_generators,
    search_points,
)
from qstar.jpipeline import (
    LevelContext,
    _elementary_symmetric,
    j_expression,
    j_polynomial_at_point,
)
from qstar.modular import (
    bundled_dataset_levels,
    derive_equation,
    load_dataset,
    validate_dataset,
)
from qstar.series import LaurentSeries

F = Fraction


def radical_span(gens):
    """The set of squarefree kernels generated by a radicand list under products."""
    span = {1}
    for g in gens:
        d = squarefree_kernel(g)[0]
        span |= {squarefree_kernel(d * s)[0] for s in span}
    return frozenset(span)


def minpoly_of(element):
    """Minimal polynomial via the exact conjugate-product expansion."""
    poly = [1]
    for sigma in range(1 << element.k):
        conj = element.conjugate(sigma)
        new = [0] * (len(poly) + 1)
        for i, c in enumerate(poly):
            new[i + 1] = new[i + 1] + c
            new[i] = new[i] - c * conj
        poly = new
    coeffs = [Fraction(c) if isinstance(c, int) else c.coords[0] for c in poly]
    assert not any(c - r for c, r in zip(poly, coeffs)), "irrational coefficient"
    den = lcm(*[c.denominator for c in coeffs])
    return IntPolynomial(tuple(int(c * den) for c in coeffs))


def valid_discriminants(bound):
    """Negative discriminants D with |D| <= bound and D = 0 or 1 mod 4."""
    for absd in range(3, bound + 1):
        if -absd % 4 in (0, 1):
            yield -absd


def built_from_scale(D: int, scale: int):
    """class_polynomial(D) from a start of scale bits, past its cache."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qstar.cm, "_default_scale", lambda D, forms: scale)
        return qstar.cm.class_polynomial.__wrapped__(D)


# -- criterion 1: closed forms of the pole-order-3,4,5 generators --------


def test_criterion_1_generator_closed_forms():
    curve = fixture_curve(67)
    rr_generators(curve)  # warm the import path; the budget is per call
    # best of five with the collector off: one GC pause or preemption on a
    # loaded machine can push a single timing past the budget
    timings = []
    gc.disable()
    try:
        for _ in range(5):
            t0 = time.perf_counter()
            gens = rr_generators(curve)
            timings.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    elapsed = min(timings)

    half = F(1, 2)
    # f3 = (-1 + x - 2x^2 + x^3 + y) / 2
    assert gens.p == (-half, half, -1, half)
    # f4 = x*f3 + 1 and f5 = x*f4 - 1, exactly
    assert gens.k4 == 1 and gens.k5 == -1
    assert elapsed < 0.001


# -- criterion 2: sextic model derived from the bundled q-expansions -----


def test_criterion_2_equation_derivation_matches_reference_table():
    levels = bundled_dataset_levels()
    assert set(levels) >= {67, 73, 85}
    for level in levels:
        data = load_dataset(level)
        t0 = time.perf_counter()
        derived = derive_equation(data)
        elapsed = time.perf_counter() - t0
        assert derived == fixture_curve(level), level
        report = validate_dataset(data, fixture_curve(level))
        assert report.matches, level
        assert report.extra_verified >= 10, level
        assert not report.low_margin, level
        assert elapsed < 5.0, level


# -- criterion 3: symmetric j-functions in the monomial basis ------------


def test_criterion_3_j_expression_anchors_and_reconstruction():
    t0 = time.perf_counter()
    ctx = LevelContext.from_data(load_dataset(67))
    e1 = j_expression(ctx, 1)
    e2 = j_expression(ctx, 2)
    # polys[g][k] is the coefficient of f(3+g) * f3^k
    assert e1.polys[0][21] == -23
    assert e1.polys[1][21] == 1
    assert e1.constant == -65536
    assert e2.polys[2][21] == 1
    assert e2.polys[1][21] == 720
    assert e2.polys[0][21] == 179980
    assert e2.constant == 1073741824

    # substituting the generator q-expansions back into each expression must
    # reproduce the symmetric function through the dataset's full precision
    fs = ctx.f_series
    targets = _elementary_symmetric(ctx.divisors, ctx.dataset.precision)
    for i, (target, expr) in enumerate(zip(targets, (e1, e2)), start=1):
        acc = LaurentSeries.from_fraction(expr.constant, target.prec)
        for gen, poly in zip(fs, expr.polys):
            element = gen  # gen * f3^k
            for coeff in poly:
                acc = acc + element.scale(coeff)
                element = element * fs[0]
        assert (acc - target).is_zero(), i
    assert time.perf_counter() - t0 < 60.0


# -- criterion 4: j-invariants at the level-67 rational points -----------


def test_criterion_4_level_67_j_values_at_rational_points():
    t0 = time.perf_counter()
    ctx = LevelContext.from_data(load_dataset(67))

    # the non-cuspidal point at infinity carries -32768 as a double root
    assert j_polynomial_at_point(ctx, INF_MINUS) == (
        F(32768) ** 2,
        F(2 * 32768),
        F(1),
    )

    expected = {
        (-1, 7): F(255**3),
        (-1, -7): F(-(5280**3)),
        (0, 3): F(-3 * 160**3),
        (0, -3): F(0),
        (1, 1): F(20**3),
        (1, -1): F(-(15**3)),
        (2, 1): F(-(960**3)),
        (2, -1): F(2 * 30**3),
    }
    for (x, y), j in expected.items():
        point = ctx.curve.point(F(x), F(y))
        coeffs = j_polynomial_at_point(ctx, point)
        assert sum(c * j**k for k, c in enumerate(coeffs)) == 0, (x, y)
    assert time.perf_counter() - t0 < 60.0


# -- criterion 5: rational point search across every bundled curve -------


def test_criterion_5_height_100_search_reproduces_reference_points():
    t0 = time.perf_counter()
    table = load_table()
    assert len(table) == 36
    for level, fx in sorted(table.items()):
        found = search_points(fx.curve, 100)
        assert found[:2] == [INF_PLUS, INF_MINUS], level
        affine = [p for p in found if p.kind == "affine"]
        assert len(affine) == len(set(affine)), level
        assert set(affine) == set(fx.points), level
    assert time.perf_counter() - t0 < 10.0


# -- criterion 6: CM discriminants from rational j-invariants ------------


def test_criterion_6_cm_identification_and_class_polynomial():
    # H(-35) against the exact cube of -16(15 +/- 7 sqrt 5), expanded in the
    # surd algebra rather than through any floating-point path
    t0 = time.perf_counter()
    root = MultiQuadElement((5,), (F(15), F(7)))
    j_plus = -(16**3) * root**3
    j_minus = j_plus.conjugate(1)
    trace = j_plus + j_minus
    norm = j_plus * j_minus
    assert not trace - trace.coords[0] and not norm - norm.coords[0]
    oracle = IntPolynomial((int(norm.coords[0]), -int(trace.coords[0]), 1))
    assert class_polynomial(-35).poly == oracle
    assert time.perf_counter() - t0 < 10.0

    # named spot values: j = -960^3, 20^3, -15^3, 255^3
    assert identify_cm(IntPolynomial((960**3, 1))) == -43
    assert identify_cm(IntPolynomial((-(20**3), 1))) == -8
    assert identify_cm(IntPolynomial((15**3, 1))) == -7
    assert identify_cm(IntPolynomial((-(255**3), 1))) == -28
    row = {str(r.point): r for r in load_cm_table()[107]}["(2, -1)"]
    assert row.discriminants == (-28,)
    assert row.j_values == (F(255**3),)

    # every rational j tabulated at levels 67 and 107 identifies exactly
    checked = 0
    for level in (67, 107):
        for row in load_cm_table()[level]:
            for disc, j in zip(row.discriminants, row.j_values):
                if not isinstance(j, Fraction):
                    continue
                assert j.denominator == 1, (level, str(row.point))
                t1 = time.perf_counter()
                got = identify_cm(IntPolynomial((-int(j), 1)))
                assert time.perf_counter() - t1 < 10.0
                assert got == disc, (level, str(row.point), disc, got)
                checked += 1
    assert checked >= 10


# -- criterion 7: number field identification ----------------------------


def test_criterion_7_field_identification():
    t0 = time.perf_counter()

    # the non-CM quartic at the level-85 point (3/2, -17/8) generates
    # Q(sqrt 17, sqrt -95); compare fields by radical span, not by tuple
    ctx = LevelContext.from_data(load_dataset(85))
    point = ctx.curve.point(F(3, 2), F(-17, 8))
    coeffs = j_polynomial_at_point(ctx, point)
    den = lcm(*[c.denominator for c in coeffs])
    factors = factor_rational(IntPolynomial(tuple(int(c * den) for c in coeffs)))
    assert [(g.degree, m) for g, m in factors] == [(4, 1)]
    theta = identify_multiquadratic(factors[0][0])
    assert theta is not None
    assert radical_span(theta.generators) == radical_span((17, -95))

    # degree-16 case: the span of sqrt 3, sqrt 5, sqrt 7, sqrt 11 recovered
    # from the exact minimal polynomial of their sum
    coords = [F(0)] * 16
    for i in range(4):
        coords[1 << i] = F(1)
    primitive = MultiQuadElement((3, 5, 7, 11), tuple(coords))
    g = minpoly_of(primitive)
    assert g.degree == 16 and g.is_monic()
    theta16 = identify_multiquadratic(g)
    assert theta16 is not None
    assert radical_span(theta16.generators) == radical_span((3, 5, 7, 11))
    assert time.perf_counter() - t0 < 120.0


# -- criterion 8: always-on property suites ------------------------------


def _eisenstein(rng, degree):
    """A provably irreducible monic integer polynomial (Eisenstein at p)."""
    p = rng.choice([2, 3])
    body = [p * rng.randint(-4, 4) for _ in range(degree)]
    c0 = p * rng.choice([1, -1]) * rng.choice([1, 2, 4, 5])
    while c0 % (p * p) == 0:
        c0 = p * rng.choice([1, -1]) * rng.choice([1, 2, 4, 5])
    body[0] = c0
    return IntPolynomial(tuple(body + [1]))


def _primitive_linear(rng):
    a = rng.randint(1, 9)
    b = rng.randint(-9, 9)
    while gcd(a, b) != 1:
        b = rng.randint(-9, 9)
    return IntPolynomial((b, a))


def _count_reduced_forms_directly(D):
    """Scan |b| <= a <= sqrt(|D|/3), c from the discriminant equation."""
    count = 0
    a = 1
    while 3 * a * a <= -D:
        for b in range(-a, a + 1):
            num = b * b - D
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if b < 0 and (a == -b or a == c):  # boundary ties demand b >= 0
                continue
            if gcd(gcd(a, b), c) != 1:
                continue
            count += 1
        a += 1
    return count


def test_criterion_8_property_suites():
    # (a) f_i = P_i(x) + x^(i-3) y / 2 vanishes at inf- and has its one
    # pole, of order i, at inf+, so its norm under (x, y) -> (x, -y),
    # P_i^2 - x^(2(i-3)) f(x) / 4, has degree at most i - 1, on every
    # bundled curve
    for level, fx in sorted(load_table().items()):
        gens = rr_generators(fx.curve)
        quarter_f = [c / 4 for c in fx.curve.f_coeffs()]
        p3 = list(gens.p)
        p4 = [gens.k4] + p3  # x*P3 + k4
        p5 = [gens.k5] + p4  # x*P4 + k5
        for i, p in ((3, p3), (4, p4), (5, p5)):
            norm = _zsub(_zmul(p, p), [0] * (2 * (i - 3)) + quarter_f)
            assert len(norm) <= i, (level, i)

    # (b) 200 factorization roundtrips over products of construction-time
    # irreducibles (linears and Eisenstein polynomials), total degree <= 12
    rng = random.Random(982451653)
    pool = [_primitive_linear(rng) for _ in range(6)]
    pool += [_eisenstein(rng, d) for d in (2, 2, 3, 3, 4)]
    pool = sorted(set(pool), key=lambda p: (p.degree, p.coeffs))
    for trial in range(200):
        chosen = {}
        total = 0
        while True:
            block = rng.choice(pool)
            if total + block.degree > 12:
                break
            chosen[block] = chosen.get(block, 0) + 1
            total += block.degree
        if not chosen:
            continue
        product = IntPolynomial((rng.choice([1, -1, 2, 6]),))
        for block, mult in chosen.items():
            for _ in range(mult):
                product = product * block
        expected = sorted(
            ((g.coeffs, m) for g, m in chosen.items()),
            key=lambda t: (len(t[0]), t[0]),
        )
        got = [(g.coeffs, m) for g, m in factor_rational(product)]
        assert got == expected, trial

    # (c) the scale-doubling ladder lands on the same class polynomial from
    # a deliberately starved 128-bit start, for every |D| <= 600
    for D in valid_discriminants(600):
        low = built_from_scale(D, 128)
        ref = class_polynomial(D)
        assert low.certified and ref.certified
        assert low.poly == ref.poly, D

    # (d) every tabulated discriminant has one class per genus
    for level, rows in sorted(load_cm_table().items()):
        for row in rows:
            for disc in row.discriminants:
                assert one_class_per_genus(disc), (level, disc)

    # (e) reduced-form counts against the direct scan
    for D in valid_discriminants(600):
        n = len(reduced_forms(D))
        assert n == class_number(D) == _count_reduced_forms_directly(D), D
