"""Exact factorization, surds, and multiquadratic field identification."""

import random
from fractions import Fraction
from math import gcd, lcm

import mpmath
import pytest
import sympy

from qstar import algnum
from qstar.algnum import (
    IntPolynomial,
    MultiQuadElement,
    _greedy_generators,
    _is_square,
    _monicize,
    _prime_table,
    _qdiv_exact,
    _trial_divide,
    _zmul,
    factor_rational,
    field_label,
    identify_multiquadratic,
    is_probable_prime,
    poly_str,
    prime_factors,
    quadratic_surd_roots,
    squarefree_kernel,
)
from qstar.errors import FactorizationError, InputError

F = Fraction
P = IntPolynomial


def minpoly_of(element):
    """Minimal polynomial of a multiquadratic element with distinct conjugates.

    Expands the full conjugate product exactly, so it doubles as an
    independent check of the algebra itself.
    """
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
    return P(tuple(int(c * den) for c in coeffs))


def radical_span(gens):
    """The set of squarefree kernels generated by a radicand list under products."""
    span = {1}
    for g in gens:
        d = squarefree_kernel(g)[0]
        span |= {squarefree_kernel(d * s)[0] for s in span}
    return frozenset(span)


# --- integer utilities -------------------------------------------------------


def test_squarefree_kernel_anchors():
    assert squarefree_kernel(12) == (3, 2)
    assert squarefree_kernel(-720) == (-5, 12)
    assert squarefree_kernel(1) == (1, 1)
    assert squarefree_kernel(-1) == (-1, 1)
    with pytest.raises(InputError):
        squarefree_kernel(0)


def test_squarefree_kernel_random():
    rng = random.Random(414243)
    for _ in range(200):
        n = rng.randint(1, 10**9) * rng.choice([1, -1])
        d, e = squarefree_kernel(n)
        assert d * e * e == n
        assert all(d % (p * p) for p in range(2, 200))


def test_squarefree_kernel_perfect_square_shortcut():
    # huge square cofactor resolves without any factoring
    big = (2**127 - 1) * (2**89 - 1)
    d, e = squarefree_kernel(3 * big * big, budget=10)
    assert (d, e) == (3, big)


def test_squarefree_kernel_budget_exhaustion():
    semiprime = (2**127 - 1) * (2**89 - 1)
    with pytest.raises(FactorizationError):
        squarefree_kernel(semiprime, budget=100)


# psi_12: the least strong pseudoprime to every prime base up to 37
PSI_12 = 318665857834031151167461


def test_probable_prime_vs_oracle():
    rng = random.Random(515253)
    for _ in range(300):
        n = rng.randint(2, 10**12)
        assert is_probable_prime(n) == sympy.isprime(n)
    # the deterministic range ends at psi_13 = 3.3e24, above psi_12
    sample = [rng.randint(10**23, 10**25) for _ in range(200)]
    sample += [sympy.nextprime(n) for n in sample[:20]]
    for n in sample:
        assert is_probable_prime(n) == sympy.isprime(n)
    assert not is_probable_prime(PSI_12)
    assert is_probable_prime(2**127 - 1)
    assert not is_probable_prime(2**128 - 1)


def test_prime_factors_anchors():
    assert prime_factors(1) == {}
    assert prime_factors(12) == {2: 2, 3: 1}
    assert list(prime_factors(2 * 3 * 5 * 7 * 11)) == [2, 3, 5, 7, 11]
    assert prime_factors(2**127 - 1) == {2**127 - 1: 1}
    assert prime_factors((2**61 - 1) ** 2) == {2**61 - 1: 2}
    assert prime_factors(PSI_12) == {399165290221: 1, 798330580441: 1}
    with pytest.raises(InputError):
        prime_factors(0)


def test_prime_factors_vs_oracle():
    # primes above the trial-division bound, some of them repeated
    rng = random.Random(616263)
    for _ in range(60):
        n = rng.randint(1, 10**6)
        for _ in range(rng.randint(0, 3)):
            n *= sympy.nextprime(rng.randint(10**5, 10**9)) ** rng.randint(1, 3)
        assert prime_factors(n) == sympy.factorint(n)


def _trial_divide_reference(n):
    """One remainder per sieved prime, ascending, until p*p > n."""
    out = {}
    for p in _prime_table():
        if p * p > n:
            break
        while n % p == 0:
            n //= p
            out[p] = out.get(p, 0) + 1
    return out, n


def test_trial_division_by_prime_blocks_matches_one_prime_at_a_time():
    # the largest sieved primes: the cofactor 99991 stays undivided after
    # 99989 only because 99991**2 exceeds it, while 99991**2 divides out
    assert _trial_divide(99989 * 99991) == ({99989: 1}, 99991)
    assert _trial_divide(99991**2) == ({99991: 2}, 1)
    assert prime_factors(99989 * 99991) == {99989: 1, 99991: 1}
    assert squarefree_kernel(-(99991**2)) == (-1, 99991)
    rng = random.Random(1009)
    primes = _prime_table()
    cases = [rng.getrandbits(60) for _ in range(300)]
    # prime pairs across and at the edges of the blocks of 128 primes
    cases += [
        primes[i] * primes[j] ** 2 for i in (0, 127, 128, 9000) for j in (127, 128, 9591)
    ]
    cases += [primes[127] * (2**61 - 1), 2**64 * 3**40]
    for n in cases:
        assert _trial_divide(n) == _trial_divide_reference(n), n


def test_prime_factors_budget_exhaustion():
    semiprime = sympy.nextprime(2**99) * sympy.nextprime(2**100)
    assert semiprime.bit_length() == 200
    with pytest.raises(FactorizationError):
        prime_factors(semiprime, budget=100)


def test_exact_division_stays_in_integers():
    rng = random.Random(2718)
    for _ in range(200):
        a = [rng.randint(-50, 50) for _ in range(rng.randint(0, 5))]
        a.append(rng.choice((-3, -1, 1, 2, 5)))
        b = [rng.randint(-50, 50) for _ in range(rng.randint(0, 3))]
        b.append(rng.choice((-2, 1, 3)))
        q = _qdiv_exact(_zmul(a, b), b)
        assert q == a and all(type(c) is int for c in q)
    # x**2 + 1 = (x + 1)(x - 1) + 2, and x / (2x) = 1/2
    with pytest.raises(InputError, match="not exact"):
        _qdiv_exact([1, 0, 1], [1, 1])
    with pytest.raises(InputError, match="not integral"):
        _qdiv_exact([0, 1], [0, 2])


# --- IntPolynomial basics ----------------------------------------------------


def test_polynomial_construction():
    p = P((1, 0, 3))
    assert p.degree == 2 and p.leading == 3
    assert p(2) == 13
    assert P((5, 4, 0, 0)).coeffs == (5, 4)  # trailing zeros trimmed
    with pytest.raises(InputError):
        P((0, 0))


def test_poly_str():
    assert poly_str(P((1, -6, 0, 1))) == "x^3 - 6*x + 1"
    assert poly_str(P((-2, 1)), "z") == "z - 2"
    assert poly_str(P((7,))) == "7"


def test_squarefree_mod_p_is_disc_not_divisible_by_p():
    rng = random.Random(31337)
    x = sympy.symbols("x")
    for _ in range(60):
        deg = rng.randint(2, 7)
        coeffs = [rng.randint(-20, 20) for _ in range(deg)] + [1]
        disc = int(sympy.discriminant(sympy.Poly(list(reversed(coeffs)), x)))
        for p in (3, 5, 7, 11, 13, 17, 19, 23):
            assert algnum._squarefree_mod_p(coeffs, p) == (disc % p != 0)


# --- factorization -----------------------------------------------------------


def test_factor_quadratic_square():
    fs = factor_rational(P((1073741824, 65536, 1)))
    assert fs == [(P((32768, 1)), 2)]


def test_factor_x4_minus_1():
    fs = factor_rational(P((-1, 0, 0, 0, 1)))
    assert fs == [(P((-1, 1)), 1), (P((1, 1)), 1), (P((1, 0, 1)), 1)]


def test_factor_irreducible_huge_quadratic():
    fs = factor_rational(P((-134217728000, 117964800, 1)))
    assert len(fs) == 1 and fs[0][0].degree == 2 and fs[0][1] == 1


def test_factor_strips_content_and_x_powers():
    fs = factor_rational(P((0, 0, -6, 0, 6)))  # 6x^2(x^2 - 1)
    assert fs == [(P((-1, 1)), 1), (P((0, 1)), 2), (P((1, 1)), 1)]


def test_factor_roundtrip_random():
    rng = random.Random(717273)
    x = sympy.symbols("x")
    for _ in range(60):
        f = [rng.randint(1, 3)]
        total = 0
        for _ in range(rng.randint(1, 3)):
            d = rng.randint(1, 4)
            if total + d > 12:
                break
            c = [rng.randint(-9, 9) for _ in range(d)] + [rng.choice([1, 1, 2, -1])]
            if all(v == 0 for v in c[:-1]):
                c[0] = rng.randint(1, 5)
            g = list(P(tuple(c)).coeffs)
            acc = [0] * (len(f) + len(g) - 1)
            for i, u in enumerate(f):
                for j, v in enumerate(g):
                    acc[i + j] += u * v
            f = acc
            total += d
        p = P(tuple(f))
        if p.degree < 1:
            continue
        mine = sorted((g.coeffs, m) for g, m in factor_rational(p))
        theirs = []
        for fac, m in sympy.factor_list(sympy.Poly(list(reversed(p.coeffs)), x))[1]:
            co = [int(v) for v in reversed(sympy.Poly(fac, x).all_coeffs())]
            if len(co) == 1:
                continue
            if co[-1] < 0:
                co = [-v for v in co]
            theirs.append((tuple(co), int(m)))
        assert mine == sorted(theirs)


def test_factor_deterministic_order():
    p = P((-1, 0, 0, 0, 1)) * P((1, 1, 1, 1, 1, 1, 1))
    first = factor_rational(p)
    second = factor_rational(p)
    assert first == second
    degrees = [g.degree for g, _ in first]
    assert degrees == sorted(degrees)


def test_factor_rejects_constant():
    with pytest.raises(InputError):
        factor_rational(P((3,)))


# --- quadratic surds ---------------------------------------------------------


def test_surd_validation():
    # a surd is an element of Q(sqrt(d)): d must be squarefree and not 0 or 1
    for d in (0, 1, 12):
        with pytest.raises(InputError):
            MultiQuadElement((d,), (F(1), F(1)))
    with pytest.raises(InputError):
        quadratic_surd_roots(P((-2, 0, 0, 1)))  # not a quadratic


def test_surd_roots_sqrt2():
    r1, r2 = quadratic_surd_roots(P((-2, 0, 1)))
    assert (r1.generators, r1.coords) == ((2,), (0, 1))
    assert (r2.generators, r2.coords) == ((2,), (0, -1))
    assert r2 == r1.conjugate(1)
    assert str(r1) == "sqrt(2)"


def test_surd_roots_huge_class_polynomial_root():
    r1, _ = quadratic_surd_roots(P((-134217728000, 117964800, 1)))
    assert (r1.generators, r1.coords) == ((5,), (-58982400, 26378240))


def test_surd_roots_reject_square_discriminant():
    with pytest.raises(InputError):
        quadratic_surd_roots(P((-4, 0, 1)))


def test_surd_roots_satisfy_polynomial():
    rng = random.Random(818283)
    for _ in range(40):
        a, b, c = rng.randint(1, 9), rng.randint(-9, 9), rng.randint(-9, 9)
        q = P((c, b, a))
        try:
            r1, r2 = quadratic_surd_roots(q)
        except InputError:
            continue
        assert r1.coords[1] > 0 and r2 == r1.conjugate(1)
        for r in (r1, r2):
            # a*r^2 + b*r + c == 0 split into rational and sqrt(d) parts
            (d,), (x, y) = r.generators, r.coords
            assert a * (x * x + y * y * d) + b * x + c == 0
            assert 2 * a * x * y + b * y == 0
            assert not q(r) and not a * r**2 + b * r + c


# --- the multiquadratic algebra ----------------------------------------------


def test_element_validation():
    with pytest.raises(InputError):
        MultiQuadElement((2, 3, 6), (F(0),) * 8)  # dependent: 2*3*6 is a square
    with pytest.raises(InputError):
        MultiQuadElement((1,), (F(0), F(1)))  # Q(sqrt(1)) = Q is no field extension
    with pytest.raises(InputError):
        MultiQuadElement((4,), (F(0), F(1)))
    with pytest.raises(InputError):
        MultiQuadElement((2,), (F(0),))


def evaluate(e: MultiQuadElement, prec: int = 128):
    """The numeric value of e as an mpmath complex at about prec bits."""
    with mpmath.workprec(prec + 16):
        total = mpmath.mpc(0)
        roots = [mpmath.sqrt(mpmath.mpc(g)) for g in e.generators]
        for s, c in enumerate(e.coords):
            if not c:
                continue
            term = mpmath.mpc(c.numerator) / c.denominator
            for i in range(e.k):
                if s >> i & 1:
                    term *= roots[i]
            total += term
        return total


def test_element_arithmetic_matches_numerics():
    rng = random.Random(919293)
    for _ in range(20):
        gens = (2, -3, 7)
        a = MultiQuadElement(gens, tuple(F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(8)))
        b = MultiQuadElement(gens, tuple(F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(8)))
        r = F(rng.randint(-9, 9), rng.randint(1, 5))
        n = rng.randint(1, 9)
        ea, eb = evaluate(a), evaluate(b)
        with mpmath.workprec(160):
            er = mpmath.mpf(r.numerator) / r.denominator
            for expr, num in (
                (a * b, ea * eb),
                (a + b, ea + eb),
                (a - b, ea - eb),
                (a + r, ea + er),
                (r + a, er + ea),
                (a - r, ea - er),
                (r - a, er - ea),
                (a * r, ea * er),
                (r * a, er * ea),
                (a + n, ea + n),
                (n - a, n - ea),
                (n * a, n * ea),
                (a / n, ea / n),
                (a**0, mpmath.mpf(1)),
                (a**n, ea**n),
                (b**3, eb * eb * eb),
            ):
                assert abs(evaluate(expr) - num) < 1e-25 * (1 + abs(num))
            if r:
                assert abs(evaluate(a / r) - ea / er) < 1e-25 * (1 + abs(ea / er))


def test_element_scalars_powers_and_truth():
    gens = (2, -3)
    a = MultiQuadElement(gens, (F(1, 2), F(-1), F(0), F(3)))
    zero = MultiQuadElement(gens, (F(0),) * 4)
    assert not zero and a and not a - a
    assert a + 0 == 0 + a == a and a * 1 == 1 * a == a
    assert a - F(1, 2) == MultiQuadElement(gens, (F(0), F(-1), F(0), F(3)))
    assert 1 - a == -(a - 1)
    assert a / 2 == a * F(1, 2)
    assert a**0 == MultiQuadElement(gens, (F(1), F(0), F(0), F(0)))
    assert a**5 == a * a * a * a * a
    # true when any coordinate is nonzero, not only the rational one
    assert MultiQuadElement(gens, (F(7), F(0), F(0), F(0)))
    assert MultiQuadElement(gens, (F(0), F(0), F(0), F(-1)))
    assert a - a.coords[0] and not (a - a.coords[0]).coords[0]
    with pytest.raises(ZeroDivisionError):
        a / 0
    with pytest.raises(InputError):
        a**-1
    with pytest.raises(TypeError):
        a / a
    with pytest.raises(TypeError):
        a + 0.5
    with pytest.raises(InputError):
        a + MultiQuadElement((2,), (F(0), F(1)))  # another field


def test_conjugation_is_multiplicative():
    gens = (2, 5, -7)
    rng = random.Random(101112)
    a = MultiQuadElement(gens, tuple(F(rng.randint(-5, 5)) for _ in range(8)))
    b = MultiQuadElement(gens, tuple(F(rng.randint(-5, 5)) for _ in range(8)))
    for mask in range(8):
        assert (a * b).conjugate(mask) == a.conjugate(mask) * b.conjugate(mask)


def test_element_str_and_label():
    e = MultiQuadElement((2, 3), (F(1, 2), F(-1), F(0), F(3)))
    assert str(e) == "1/2 - sqrt(2) + 3*sqrt(6)"
    assert field_label((2, 3)) == "Q(sqrt(2),sqrt(3))"
    assert field_label(()) == "Q"


# --- identification ----------------------------------------------------------


def test_identify_sqrt2_plus_sqrt3():
    theta = identify_multiquadratic(P((1, 0, -10, 0, 1)))
    assert theta.generators == (2, 3)
    assert theta.coords == (F(0), F(1), F(1), F(0))


def test_identify_canonical_under_root_choice():
    # -sqrt(2)-sqrt(3) has the same minimal polynomial; answer is canonical
    theta = identify_multiquadratic(P((1, 0, -10, 0, 1)))
    again = identify_multiquadratic(P((1, 0, -10, 0, 1)))
    assert theta == again
    assert theta.coords[1] > 0


def test_identify_mixed_signature_quartic():
    # minimal polynomial of sqrt(17) + sqrt(-95)
    theta = identify_multiquadratic(P((12544, 0, 156, 0, 1)))
    assert theta.generators == (17, -95)
    assert theta.coords == (F(0), F(1), F(1), F(0))


def test_identify_degree2_delegates_to_surd():
    theta = identify_multiquadratic(P((-134217728000, 117964800, 1)))
    assert theta.generators == (5,)
    assert theta.coords == (F(-58982400), F(26378240))


def test_identify_non_monic_quartic():
    # (sqrt(2) + sqrt(3))/2 has minimal polynomial 16x^4 - 40x^2 + 1
    theta = identify_multiquadratic(P((1, 0, -40, 0, 16)))
    assert theta.generators == (2, 3)
    assert theta.coords == (F(0), F(1, 2), F(1, 2), F(0))


def test_identify_rejects_non_multiquadratic(monkeypatch):
    lifts = []
    original = algnum._hensel_tree

    def spy(*args):
        lifts.append(args)
        return original(*args)

    monkeypatch.setattr(algnum, "_hensel_tree", spy)
    # a prime where the factor degrees are not all 1 or all 2 rejects
    # exactly, before any root is lifted
    for g in (
        P((1, 1, 1, 1, 1)),  # cyclic quartic
        P((-2, 0, 0, 0, 1)),  # dihedral quartic
        P((1, 1, 0, 0, 1)),  # S4 quartic
        P((-2,) + (0,) * 7 + (1,)),
    ):
        assert identify_multiquadratic(g) is None
    assert lifts == []
    # x^8 + 1 has group Z/2 x Z/4 and splits completely mod 17, so its
    # roots are lifted, but its signed root sums give only two independent
    # radicands
    assert identify_multiquadratic(P((1,) + (0,) * 7 + (1,))) is None
    assert lifts and lifts[0][2] == 17
    with pytest.raises(InputError):
        identify_multiquadratic(P((1, 1, 1, 1, 1, 1, 1)))  # degree 6


def test_identify_radicands_sharing_a_prime():
    # sqrt(143) + sqrt(1155) + (1/11)*sqrt(143)*sqrt(1155), where the product
    # of the radicals is 11*sqrt(1365): its coordinate has a denominator that
    # the trace's n * lc does not carry
    g = P((-656171, -120120, -5326, 0, 1))
    theta = identify_multiquadratic(g)
    assert theta.generators == (143, 1155)
    assert theta.coords == (F(0), F(1), F(1), F(1, 11))
    assert minpoly_of(theta).coeffs == g.coeffs


@pytest.mark.parametrize(
    "gens, coords",
    [
        ((-1, 2), (10**40, 1, 1, 0)),
        ((2, 3, 5), (2**100, 1, 1, 0, 1, 0, 0, 0)),
    ],
    ids=["1e40", "2^100"],
)
def test_identify_large_rational_part(gens, coords):
    # roots that cluster tightly around a huge rational part
    element = MultiQuadElement(gens, tuple(F(c) for c in coords))
    g = minpoly_of(element)
    theta = identify_multiquadratic(g)
    assert theta == element


def test_identify_degree8_sum():
    g = minpoly_of(MultiQuadElement((2, 3, 5), (F(0), F(1), F(1), F(0), F(1), F(0), F(0), F(0))))
    assert g.coeffs == (576, 0, -960, 0, 352, 0, -40, 0, 1)
    theta = identify_multiquadratic(g)
    assert theta.generators == (2, 3, 5)
    assert [m for m, c in enumerate(theta.coords) if c] == [1, 2, 4]


def test_identify_degree16_sum():
    coords = [F(0)] * 16
    for i in range(4):
        coords[1 << i] = F(1)
    g = minpoly_of(MultiQuadElement((3, 5, 7, 11), tuple(coords)))
    theta = identify_multiquadratic(g)
    assert theta.generators == (3, 5, 7, 11)
    assert theta.coords == tuple(coords)


def test_identify_roundtrip_random():
    rng = random.Random(131415)
    pool = [-1, 2, -2, 3, 5, -7, 13, -11, 17, 15, 21, 33, 35, 51, 143, 1155]
    for _ in range(15):
        k = rng.randint(2, 3)
        gens = tuple(rng.sample(pool, k))
        try:
            element = MultiQuadElement(
                gens,
                tuple(F(rng.randint(-6, 6), rng.choice([1, 1, 2])) for _ in range(1 << k)),
            )
        except InputError:
            continue
        # need all conjugates distinct for the product to be the minimal polynomial
        conjs = {element.conjugate(m).coords for m in range(1 << k)}
        if len(conjs) != 1 << k:
            continue
        g = minpoly_of(element)
        theta = identify_multiquadratic(g)
        assert theta is not None
        # distinct conjugates mean the element generates the whole field
        assert radical_span(theta.generators) == radical_span(gens)
        # same element up to conjugacy: its minimal polynomial must match
        assert minpoly_of(theta).coeffs == g.coeffs


def test_identify_huge_coordinates():
    element = MultiQuadElement(
        (5, 13),
        (F(-140608000), F(123456789, 2), F(-987654321, 2), F(55555555)),
    )
    g = minpoly_of(element)
    theta = identify_multiquadratic(g)
    assert theta is not None
    assert theta.generators == (5, 13)
    assert minpoly_of(theta).coeffs == g.coeffs


# The quartic j-polynomial factors of `pipeline 85 --height 100`, with their
# fields.
LEVEL_85_QUARTICS = (
    P((
        98855575357206378537914479678371559328229390625,
        33989340158612344542402114645869280733968750,
        28640893541714397855518337568729724456000,
        -6412488324731153494250518314221568000,
        324518553658426726783156020576256,
    )),
    P((
        10245040165625222249137492965652114740183172896107279313024669803951161890625,
        1863900172761620605942947176284552128595564241774640874139508432485343750,
        84992249598787600862303046538541369208485595684118479899024962042875,
        -1060661470308278401373934864354697896570124462918515791198250,
        3381391913522726342930221472392241170198527451848561,
    )),
    P((
        -91399742601830803813322386656934773129216000000,
        483054636550112292687021684688517332992000000,
        8752111455147508300981595950899265536000,
        1908606683491595666107623383040000,
        1,
    )),
)
LEVEL_85_FIELDS = ((17, -95), (85, -4295), (5, 17))


def test_identify_85b_exhausts_no_factoring_budget(monkeypatch):
    # the j-polynomial factor at (-4/3, 425/27) on X0*(85): every radicand
    # is factored well within a budget of 100,000 rho steps
    g = LEVEL_85_QUARTICS[1]
    exhausted = []
    original = algnum.squarefree_kernel

    def spy(n, budget=None):
        try:
            return original(n, budget=100_000)
        except FactorizationError:
            exhausted.append(abs(n).bit_length())
            raise

    monkeypatch.setattr(algnum, "squarefree_kernel", spy)
    theta = identify_multiquadratic(g)
    assert theta is not None and theta.generators == (85, -4295)
    assert exhausted == []


def test_level_85_quartics_identify():
    for g, gens in zip(LEVEL_85_QUARTICS, LEVEL_85_FIELDS):
        theta = identify_multiquadratic(g)
        assert theta is not None and theta.generators == gens
        assert minpoly_of(theta).coeffs == g.coeffs


# --- Klein-four quartic subfields ---------------------------------------------


def v4_quartic_subfields(q: IntPolynomial):
    """Generators (d1, d2) of the quadratic subfields of a Klein-four quartic.

    An irreducible quartic has Galois group (Z/2)^2 exactly when its resolvent
    cubic splits completely over Q; the quadratic subfields are then read off
    the rational resolvent roots through the discriminants (u-u')^2 and
    (v-v')^2 of the induced conjugate-quadratic splittings. Returns None when
    not biquadratic. Generator order: smallest |d| first, positive on ties.
    This is the quartic oracle that `identify_multiquadratic` is checked
    against.
    """
    if q.degree != 4:
        raise InputError("v4_quartic_subfields needs degree exactly 4")
    monic, _ = _monicize(list(q.coeffs))
    s_c, r_c, q_c, p_c, _one = monic
    resolvent = IntPolynomial(
        (
            -(p_c * p_c * s_c - 4 * q_c * s_c + r_c * r_c),
            p_c * r_c - 4 * s_c,
            -q_c,
            1,
        )
    )
    roots = []
    for fac, mult in factor_rational(resolvent):
        if fac.degree != 1:
            return None
        a0, a1 = fac.coeffs
        if abs(a1) != 1:
            return None
        roots.extend([-a0 * a1] * mult)
    radicands = set()
    for theta in roots:
        for delta in (p_c * p_c - 4 * (q_c - theta), theta * theta - 4 * s_c):
            if delta != 0 and not _is_square(delta):
                radicands.add(squarefree_kernel(delta)[0])
    gens = _greedy_generators(radicands, 2)
    if gens is None:
        return None
    return gens[0], gens[1]


def test_v4_anchor_pairs():
    assert v4_quartic_subfields(P((12544, 0, 156, 0, 1))) == (17, -95)
    assert v4_quartic_subfields(P((1, 0, -10, 0, 1))) == (2, 3)
    assert v4_quartic_subfields(P((1, 0, -40, 0, 16))) == (2, 3)


def test_v4_rejects_other_groups():
    assert v4_quartic_subfields(P((1, 1, 0, 0, 1))) is None  # S4
    assert v4_quartic_subfields(P((1, 1, 1, 1, 1))) is None  # C4
    assert v4_quartic_subfields(P((-2, 0, 0, 0, 1))) is None  # D4
    with pytest.raises(InputError):
        v4_quartic_subfields(P((1, 1, 1)))


def test_v4_agrees_with_identification():
    rng = random.Random(161718)
    pool = [2, 3, 5, -7, 13, -11, 17, -95, 21]
    for _ in range(12):
        gens = tuple(rng.sample(pool, 2))
        try:
            element = MultiQuadElement(
                gens, tuple(F(rng.randint(-4, 4)) for _ in range(4))
            )
        except InputError:
            continue
        if len({element.conjugate(m).coords for m in range(4)}) != 4:
            continue
        g = minpoly_of(element)
        pair = v4_quartic_subfields(g)
        assert pair is not None
        assert radical_span(pair) == radical_span(gens)
        theta = identify_multiquadratic(g)
        assert theta is not None and radical_span(theta.generators) == radical_span(gens)
