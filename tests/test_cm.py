import hashlib
import json
import time
from collections import Counter
from fractions import Fraction
from math import gcd, isqrt

import pytest
from mpmath import iv

import qstar.cm
from qstar import arith
from qstar.algnum import IntPolynomial
from qstar.cm import (
    ClassPolynomial,
    QuadForm,
    class_number,
    class_polynomial,
    identify_cm,
    one_class_per_genus,
    reduced_forms,
)
from qstar.errors import InputError
from qstar.series import j_expansion


def valid_discriminants(lo: int, hi: int = 3):
    """Negative discriminants from -lo up to -hi (0 or 1 mod 4)."""
    for absd in range(hi, lo + 1):
        if -absd % 4 in (0, 1):
            yield -absd


# -- reduced forms ------------------------------------------------------


def test_reduced_forms_examples():
    assert [(f.a, f.b, f.c) for f in reduced_forms(-67)] == [(1, 1, 17)]
    assert [(f.a, f.b, f.c) for f in reduced_forms(-35)] == [(1, 1, 9), (3, 1, 3)]
    assert [(f.a, f.b, f.c) for f in reduced_forms(-3)] == [(1, 1, 1)]


def test_class_number_known_values():
    known = {
        -3: 1, -4: 1, -7: 1, -8: 1, -11: 1, -12: 1, -16: 1, -19: 1,
        -20: 2, -23: 3, -27: 1, -28: 1, -32: 2, -35: 2, -43: 1,
        -47: 5, -67: 1, -71: 7, -83: 3, -99: 2, -148: 2, -163: 1,
        -332: 9, -372: 4, -5460: 16,
    }
    for D, h in known.items():
        assert class_number(D) == h, D


def test_reduced_forms_rejects_invalid_discriminant():
    for D in (5, 0, -1, -2, -6):
        with pytest.raises(InputError):
            reduced_forms(D)


def test_quadform_validation():
    QuadForm(2, -1, 3)  # interior form: negative b allowed
    with pytest.raises(InputError):
        QuadForm(-1, 0, 1)  # not positive definite
    with pytest.raises(InputError):
        QuadForm(1, 3, 1)  # discriminant 5 >= 0
    with pytest.raises(InputError):
        QuadForm(2, 2, 2)  # imprimitive
    with pytest.raises(InputError):
        QuadForm(1, -1, 1)  # boundary |b| = a needs b >= 0
    with pytest.raises(InputError):
        QuadForm(2, -1, 2)  # boundary a = c needs b >= 0
    with pytest.raises(InputError):
        QuadForm(3, 4, 5)  # |b| > a


def brute_forms(D):
    """Independent enumeration: b outer, then a | (b*b - D)/4 with bounds."""
    out = set()
    for b in range(-isqrt_upper(D), isqrt_upper(D) + 1):
        if (b - D) % 2:
            continue
        num = b * b - D
        if num % 4:
            continue
        prod = num // 4  # a * c
        for a in range(max(1, abs(b)), prod + 1):
            if a * a > prod:
                break
            if prod % a:
                continue
            c = prod // a
            if abs(b) > a or c < a:
                continue
            if b < 0 and (abs(b) == a or a == c):
                continue
            if gcd(gcd(a, b), c) != 1:
                continue
            out.add((a, b, c))
    return out


def isqrt_upper(D):
    from math import isqrt

    return isqrt(-D) + 1


def test_reduced_forms_match_independent_rescan():
    for D in valid_discriminants(300):
        got = [(f.a, f.b, f.c) for f in reduced_forms(D)]
        assert sorted(got) == got  # deterministic order
        assert len(set(got)) == len(got)
        assert set(got) == brute_forms(D), D
        for f in reduced_forms(D):
            assert f.discriminant == D


# -- one class per genus -----------------------------------------------


def test_one_class_per_genus_examples():
    assert one_class_per_genus(-5460) is True
    assert one_class_per_genus(-3) is True
    assert one_class_per_genus(-23) is False


def odd_prime_count(n):
    """The number of distinct odd primes dividing n > 0, by trial division."""
    while n % 2 == 0:
        n //= 2
    r, p = 0, 3
    while p * p <= n:
        if n % p == 0:
            r += 1
            while n % p == 0:
                n //= p
        p += 2
    return r + (n > 1)


def genus_count_exponent(D):
    """mu, with 2**(mu - 1) genera of forms of discriminant D (Cox, Thm 3.15)."""
    r = odd_prime_count(-D)
    if D % 4 == 1:
        return r
    n = -D // 4
    if n % 4 == 3:
        return r
    if n % 8 == 0:
        return r + 2
    return r + 1


def test_one_class_per_genus_matches_genus_count_oracle():
    # exponent <= 2 iff each genus holds one class, i.e. h(D) = 2**(mu - 1)
    for D in valid_discriminants(2000):
        expected = class_number(D) == 2 ** (genus_count_exponent(D) - 1)
        assert one_class_per_genus(D) == expected, D


# every CM discriminant reported by the bundled result tables (one cell
# normalized in data/cm_tables.json: a printed -332 with h = 9 cannot match
# its degree-4 field, the intended order is -372)
TABLE_DISCRIMINANTS = (
    -3, -4, -7, -8, -11, -12, -15, -16, -19, -20, -24, -27, -28, -35, -36,
    -40, -43, -48, -51, -52, -60, -67, -72, -75, -84, -88, -91, -99, -100,
    -112, -115, -120, -123, -132, -147, -148, -163, -168, -180, -195, -228,
    -232, -235, -240, -267, -280, -332, -340, -372, -420, -435, -483, -520,
    -532, -595, -627, -660, -708, -1155, -1320, -1380, -1435, -1540, -1848,
    -1995, -5460,
)


def test_tabulated_discriminants_have_one_class_per_genus():
    for D in TABLE_DISCRIMINANTS:
        if D == -332:  # the normalized cell; kept to pin its class number
            assert class_number(D) == 9
            assert not one_class_per_genus(D)
            continue
        assert one_class_per_genus(D), D


# -- class polynomials --------------------------------------------------

# j-invariants of the thirteen one-class discriminants
SINGLETON_J = {
    -3: 0,
    -4: 12**3,
    -7: -(15**3),
    -8: 20**3,
    -11: -(32**3),
    -12: 2 * 30**3,
    -16: 66**3,
    -19: -(96**3),
    -27: -3 * 160**3,
    -28: 255**3,
    -43: -(960**3),
    -67: -(5280**3),
    -163: -(640320**3),
}


def test_class_polynomial_linear_values():
    for D, j in SINGLETON_J.items():
        cp = class_polynomial(D)
        assert isinstance(cp, ClassPolynomial)
        assert cp.certified and cp.discriminant == D
        assert cp.poly == IntPolynomial((-j, 1)), D


def surd_quadratic(d, scalar, base, unit=None):
    """x**2 - tr*x + nm for j = scalar * (u + v sqrt(d))**3 * unit."""

    def mul(p, q):
        return (p[0] * q[0] + p[1] * q[1] * d, p[0] * q[1] + p[1] * q[0])

    b = tuple(map(Fraction, base))
    cube = mul(mul(b, b), b)
    if unit is not None:
        cube = mul(cube, tuple(map(Fraction, unit)))
    u, v = (Fraction(scalar) * w for w in cube)
    tr, nm = 2 * u, u * u - d * v * v
    assert tr.denominator == 1 and nm.denominator == 1
    return IntPolynomial((int(nm), -int(tr), 1))


# class-number-two discriminants with their quadratic-surd j-invariants
QUADRATIC_J = [
    # (D, d, scalar, base, unit): j = scalar * (base . (1, sqrt d))**3 * unit
    (-15, 5, Fraction(-27, 8), (25, 9), (Fraction(-1, 2), Fraction(1, 2))),
    (-20, 5, 8, (25, 13), None),
    (-24, 2, 12**3, (9, 7), (-1, 1)),
    (-35, 5, -(16**3), (15, 7), None),
    (-40, 5, 6**3, (65, 27), None),
    (-51, 17, -(48**3), (37, 9), (-4, 1)),
    (-52, 13, 30**3, (31, 9), None),
    (-60, 5, 3**3, (470, 213), (Fraction(1, 2), Fraction(1, 2))),
    (-91, 13, 48**3, (-227, 63), None),
    (-100, 5, 6**3, (2927, 1323), None),
    (-115, 5, -(48**3), (785, 351), None),
    (-148, 37, 60**3, (2837, 468), None),
    (-232, 29, 30**3, (140989, 26163), None),
    (-235, 5, 528**3, (-8875, 3969), None),
]


def test_class_polynomial_quadratic_values():
    assert class_polynomial(-35).poly == IntPolynomial(
        (-134217728000, 117964800, 1)
    )
    for D, d, scalar, base, unit in QUADRATIC_J:
        assert class_polynomial(D).poly == surd_quadratic(
            d, scalar, base, unit
        ), D


def test_class_polynomial_cubic_value():
    assert class_polynomial(-23).poly == IntPolynomial(
        (12771880859375, -5151296875, 3491750, 1)
    )


def test_class_polynomial_shape():
    for D in (-39, -56, -120, -372):
        cp = class_polynomial(D)
        assert cp.poly.degree == class_number(D)
        assert cp.poly.is_monic()
        assert cp.certified


def test_class_polynomial_two_precision_identity():
    for D, scale in [(-71, 256), (-95, 300), (-120, 200), (-420, 400)]:
        assert class_polynomial(D, scale).poly == class_polynomial(D, 2 * scale).poly


def test_class_polynomials_up_to_600_are_pinned():
    # sha256 of [[D, coefficients, certified], ...] for 3 <= |D| <= 600
    rows = []
    for D in valid_discriminants(600):
        cp = class_polynomial(D)
        rows.append([D, list(cp.poly.coeffs), cp.certified])
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert len(rows) == 300
    assert digest == "061a990c4cd90c5b8aa6f13698f96726ec304492b6ef2bb5584b44c262cb5812"


def test_truncation_length_bounds_the_whole_tail():
    # the coefficient bound the tail rests on, c_n <= 2**(19 isqrt(n) + 19)
    series = j_expansion(301)
    assert all(series.coeff(n) <= 2 ** (19 * isqrt(n) + 19) for n in range(301))
    # every (scale, qbits) the builder starts from, or takes one rung later
    pairs = set()
    for D in valid_discriminants(2000):
        forms = qstar.cm._reduced_forms(D)
        scale = qstar.cm._default_scale(D, forms)
        for f in forms:
            qbits = qstar.cm._qbits(D, f.a)
            pairs.update({(scale, qbits), (2 * scale, qbits)})
    for scale, qbits in sorted(pairs):
        T = qstar.cm._truncation_length(scale, qbits)
        # sum_{n > T} 2**(19 isqrt(n) + 19 - qbits n): exactly over 32 terms,
        # then the docstring's geometric bound on the rest, from m = T + 33
        m = T + 33
        exps = [19 * isqrt(n) + 19 - qbits * n for n in range(T + 1, m)]
        exps.append(19 * (isqrt(m - 1) + 1) + 20 - qbits * m)
        low = min(exps)
        assert -scale >= low, (scale, qbits, T)
        assert sum(1 << (e - low) for e in exps) <= 1 << (-scale - low), (
            scale, qbits, T,
        )
        # and T is the least that the docstring's bound admits
        assert T == 3 or 19 * (isqrt(T - 1) + 1) + 20 - qbits * T > -scale
    # D = -364, form (7, 0, 13): T = 47 leaves a tail near 2**-338 at scale 340
    assert qstar.cm._truncation_length(340, 10) > 47


def j_ball(D: int, a: int, b: int, p: int):
    """j((-b + i sqrt|D|)/(2a)) as a complex ball at precision p, from
    exp_complex and the j-series alone."""
    qbits = qstar.cm._qbits(D, a)
    T = qstar.cm._truncation_length(p, qbits)
    series = j_expansion(T + 1)
    pi = arith.pi(p)
    x = arith.scaled(arith.mul(pi, arith.sqrt(-D, p), p), -1, a)
    q, qinv = arith.exp_complex(x, arith.scaled(pi, -b, a), p)
    qx, qy, qr = q
    assert (abs(qx) + qr) ** 2 + (abs(qy) + qr) ** 2 < 1 << 2 * (p - qbits)
    total = (0, 0, 0)
    for n in range(T, -1, -1):
        x, y, r = arith.cmul(total, q, p)
        total = (x + (int(series.coeff(n)) << p), y, r)
    # the tail is below 2**-p, one ulp
    return total[0] + qinv[0], total[1] + qinv[1], total[2] + qinv[2] + 1


def overlaps(u, v) -> bool:
    """Whether the real balls u and v meet."""
    return abs(u[0] - v[0]) <= u[1] + v[1]


def test_j_symmetry_behind_the_real_product():
    # an ambiguous form has real j; (a, -b, c) has j' = conj(j) for the rest
    for D in valid_discriminants(300):
        for f in reduced_forms(D):
            x, y, r = j_ball(D, f.a, f.b, 128)
            if f.b == 0 or f.b == f.a or f.a == f.c:
                assert overlaps((y, r), (0, 0)), (D, f)
            elif f.b > 0:
                assert not overlaps((y, r), (0, 0)), (D, f)  # so the pairing is tested
                px, py, pr = j_ball(D, f.a, -f.b, 128)
                assert overlaps((px, pr), (x, r)), (D, f)
                assert overlaps((py, pr), (-y, r)), (D, f)
                assert not overlaps((py, pr), (y, r)), (D, f)


def test_class_polynomial_rejects_invalid():
    for D in (4, 0, -2, -5):
        with pytest.raises(InputError):
            class_polynomial(D)


# -- CM identification --------------------------------------------------


def test_identify_cm_examples():
    assert identify_cm(IntPolynomial((884736000, 1))) == -43
    assert identify_cm(IntPolynomial((-54000, 1))) == -12
    assert identify_cm(IntPolynomial((-1, 1))) is None
    assert identify_cm(IntPolynomial((0, 1))) == -3
    assert identify_cm(IntPolynomial((-1728, 1))) == -4


def test_identify_cm_near_misses():
    assert identify_cm(IntPolynomial((884736001, 1))) is None
    assert identify_cm(IntPolynomial((0, -54000, 1))) is None  # x(x - 54000)
    assert identify_cm(IntPolynomial((-134217728000, 117964801, 1))) is None


def test_identify_cm_rejects_invalid():
    with pytest.raises(InputError):
        identify_cm(IntPolynomial((1, 2)))  # not monic
    with pytest.raises(InputError):
        identify_cm(IntPolynomial((7,)))  # degree 0
    with pytest.raises(InputError):
        identify_cm(IntPolynomial((0,) * 17 + (1,)))  # degree 17


def test_identify_cm_roundtrip():
    tried = 0
    for D in valid_discriminants(600):
        if class_number(D) > 16:
            continue
        tried += 1
        g = class_polynomial(D).poly
        assert identify_cm(g) == D, D
        lo, hi = qstar.cm._cm_window(g)
        assert lo <= -D <= hi, D
    assert tried == 286


def class_numbers_upto(W: int) -> list:
    """h[n] = h(-n) for every discriminant -n with n <= W, and 0 elsewhere.

    One pass counts every reduced form (a, b, c), primitive or not, with
    4ac - b**2 <= W: for fixed a and b, the values 4ac - b**2 over c >= a
    run along one arithmetic progression of step 4a.  A reduced form with
    content k is k times a primitive reduced form of discriminant D / k**2,
    so subtracting h(-n) from the count at n k**2 for every k >= 2, smallest
    n first, leaves the primitive forms alone.
    """
    h = [0] * (W + 1)
    for a in range(1, isqrt(W // 3) + 1):
        step = 4 * a
        for b in range(a + 1):
            n = step * a - b * b  # c = a: the boundary form takes b >= 0
            if n > W:
                continue
            h[n] += 1
            # c > a: b and -b, except b = 0 and b = a (b = -a is not reduced)
            m = 2 if 0 < b < a else 1
            h[n + step :: step] = [v + m for v in h[n + step :: step]]
    for n in range(3, W // 4 + 1):
        if h[n]:
            for k in range(2, isqrt(W // n) + 1):
                h[n * k * k] -= h[n]
    return h


def test_class_number_sieve_oracle_agrees_with_reduced_forms():
    h = class_numbers_upto(2000)
    for D in valid_discriminants(2000):
        assert h[-D] == class_number(D), D
    assert all(h[n] == 0 for n in range(2001) if n % 4 in (1, 2))


def test_window_cap_refuses_no_class_polynomial_of_degree_16_or_less():
    # past |D| = 35,275 no discriminant up to 300,000 has class number <= 16
    h = class_numbers_upto(300_000)
    assert [n for n in range(35_276, len(h)) if 0 < h[n] <= 16] == []
    assert h[35_275] == 16
    # and the window of that largest one ends well inside the cap
    lo, hi = qstar.cm._cm_window(class_polynomial(-35_275).poly)
    assert lo <= 35_275 <= hi <= 35_277 < qstar.cm._WINDOW_CAP


def _counting_builds(monkeypatch) -> list:
    """The D of every class polynomial built from now on, in order."""
    built = []
    build = qstar.cm._class_polynomial_at

    def spy(D, forms, scale):
        built.append(D)
        return build(D, forms, scale)

    monkeypatch.setattr(qstar.cm, "_class_polynomial_at", spy)
    return built


def test_identify_cm_builds_about_once(monkeypatch):
    h35275 = class_polynomial(-35_275).poly.coeffs
    h5460 = class_polynomial(-5460).poly.coeffs
    built = _counting_builds(monkeypatch)
    cases = [
        (h35275, -35_275, 1),
        ((h5460[0] + 1,) + h5460[1:], None, 3),  # H_-5460 + 1
        (h35275[:1] + (h35275[1] + 1,) + h35275[2:], None, 3),  # H_-35275 + x
        ((10**4000,) + (0,) * 15 + (1,), None, 0),  # x**16 + 10**4000
    ]
    for coeffs, D, most in cases:
        qstar.cm.class_polynomial.cache_clear()
        built.clear()
        start = time.perf_counter()
        assert identify_cm(IntPolynomial(coeffs)) == D
        assert time.perf_counter() - start < 5
        assert len(built) <= most, built
        assert D is None or built[-1] == D


def test_j_tail_bound_from_the_series():
    # |j(tau) - 1/q| <= sum c_n |q|**n with c_n >= 0 and |q| <= e^{-pi sqrt 3}
    # on the fundamental domain; past N terms, c_n <= 2**(19 isqrt(n) + 19)
    # and isqrt(n) <= n/8 bound the tail by a geometric series of ratio r
    N = 64
    series = j_expansion(N + 1)
    saved, iv.prec = iv.prec, 80  # mpmath.iv is the independent oracle here
    try:
        qmax = iv.exp(-iv.pi * iv.sqrt(3))
        head = sum(int(series.coeff(n)) * qmax**n for n in range(N + 1))
        r = iv.mpf(2) ** (iv.mpf(19) / 8) * qmax  # 2**(19/8) * qmax
        assert r.b < iv.mpf(1) / 32
        tail = iv.mpf(2) ** 19 * r ** (N + 1) / (1 - r)
        total = head + tail
    finally:
        iv.prec = saved
    assert all(int(series.coeff(n)) >= 0 for n in range(N + 1))
    assert total.b <= qstar.cm._J_TAIL_BOUND
    assert total.a > qstar.cm._J_TAIL_BOUND - 1  # 2078.81...


def test_identify_cm_stops_at_the_match(monkeypatch):
    g = class_polynomial(-595).poly
    built = _counting_builds(monkeypatch)
    qstar.cm.class_polynomial.cache_clear()
    assert identify_cm(g) == -595
    assert built[-1] == -595
    assert all(D >= -595 for D in built), built
    assert len(built) <= 2, built


# -- bundled CM table ----------------------------------------------------


def _cm_table_rows():
    from qstar.fixtures import load_cm_table

    for level, rows in sorted(load_cm_table().items()):
        yield from rows


def test_cm_table_covers_all_levels():
    from qstar.fixtures import load_cm_table, load_table

    table = load_cm_table()
    assert sorted(table) == sorted(load_table())
    assert sum(len(rows) for rows in table.values()) == 273


def test_cm_table_row_shapes():
    for r in _cm_table_rows():
        if r.cm:
            assert len(r.discriminants) == len(r.j_values) >= 1
            assert all(d < 0 and d % 4 in (0, 1) for d in r.discriminants)
        else:
            assert r.discriminants == ()
            assert len(r.j_values) == 1
        if r.as_printed:
            assert r.anomaly


def test_cm_table_one_infinity_row_per_level():
    from qstar.fixtures import load_cm_table

    for level, rows in load_cm_table().items():
        kinds = [r.point.kind for r in rows]
        assert kinds.count("infinity_minus") == 1
        assert "infinity_plus" not in kinds


def test_cm_table_single_as_printed_row():
    flagged = [r for r in _cm_table_rows() if r.as_printed]
    assert len(flagged) == 1
    (r,) = flagged
    assert (r.level, r.discriminants) == (93, (-3, -12))
    assert r.j_values == (Fraction(0), Fraction(-12288000))


def test_cm_table_level_67_values():
    from qstar.fixtures import cm_rows

    got = {}
    for r in cm_rows(67):
        key = "inf" if r.point.kind != "affine" else (r.point.x, r.point.y)
        got[key] = (r.discriminants[0], r.j_values[0])
    assert got["inf"] == (-11, -(32**3))
    assert got[(Fraction(-1), Fraction(7))] == (-28, 255**3)
    assert got[(Fraction(-1), Fraction(-7))] == (-67, -(5280**3))
    assert got[(Fraction(0), Fraction(3))] == (-27, -3 * 160**3)
    assert got[(Fraction(0), Fraction(-3))] == (-3, 0)
    assert got[(Fraction(1), Fraction(1))] == (-8, 20**3)
    assert got[(Fraction(1), Fraction(-1))] == (-7, -(15**3))
    assert got[(Fraction(2), Fraction(1))] == (-43, -(960**3))
    assert got[(Fraction(2), Fraction(-1))] == (-12, 2 * 30**3)


def test_cm_table_rational_j_matches_class_polynomial():
    seen: dict = {}
    for r in _cm_table_rows():
        if r.as_printed:
            continue
        for d, v in zip(r.discriminants, r.j_values):
            if isinstance(v, Fraction):
                seen.setdefault(d, set()).add(v)
    for d, vals in sorted(seen.items()):
        assert len(vals) == 1, d
        assert class_polynomial(d).poly(vals.pop()) == 0, d


def test_cm_table_surd_j_matches_class_polynomial():
    from qstar.algnum import MultiQuadElement

    seen: dict = {}
    for r in _cm_table_rows():
        for d, v in zip(r.discriminants, r.j_values):
            if isinstance(v, MultiQuadElement):
                seen.setdefault(d, set()).add(v)
    for d, vals in sorted(seen.items()):
        assert len(vals) == 1, d
        s = vals.pop()
        (rad,), (a, b) = s.generators, s.coords
        # h(D) = 2 here, so H_D = (x - s)(x - conj s) exactly
        trace, norm = 2 * a, a * a - rad * b * b
        hd = class_polynomial(d).poly
        assert [Fraction(c) for c in hd.coeffs] == [norm, -trace, 1], d


def test_cm_table_field_cells_match_class_number():
    seen: dict = {}
    for r in _cm_table_rows():
        for d, v in zip(r.discriminants, r.j_values):
            if isinstance(v, tuple):
                seen.setdefault(d, set()).add(v)
    assert seen[-5460] == {(3, 5, 7, 13)}
    assert seen[-1435] == {(5, 41)}
    assert seen[-532] == {(7, 19)}
    for d, vals in sorted(seen.items()):
        assert len(vals) == 1, d
        gens = vals.pop()
        assert all(g > 1 for g in gens), d
        assert class_number(d) == 2 ** len(gens), d


def test_cm_table_discriminants_one_class_per_genus():
    ds = sorted({d for r in _cm_table_rows() for d in r.discriminants})
    assert len(ds) > 60
    for d in ds:
        assert one_class_per_genus(d), d


def test_cm_table_anomaly_flags():
    flagged = [r for r in _cm_table_rows() if r.anomaly]
    assert len(flagged) == 33
    by_level = Counter(r.level for r in flagged)
    # the re-keyed level carries a note on every shifted row
    assert by_level[170] == 10
    assert by_level[67] == 1 and by_level[390] == 1
