import random
from fractions import Fraction

import pytest

from qstar.errors import SeriesPrecisionError
from qstar.series import LaurentSeries, j_expansion


def random_series(rng, zero_ok=True) -> LaurentSeries:
    val = rng.randint(-3, 3)
    length = rng.randint(0 if zero_ok else 1, 9)
    nums = [rng.randint(-9, 9) for _ in range(length)]
    if not zero_ok and (not nums or all(n == 0 for n in nums)):
        nums = [rng.randint(1, 9)] + nums[1:]
    return LaurentSeries(val, nums, rng.randint(1, 12))


def assert_agree(a: LaurentSeries, b: LaurentSeries):
    """Equal coefficients on the range where both are determined."""
    prec = min(a.prec, b.prec)
    lo = min(a.val, b.val, prec)
    for k in range(lo, prec):
        assert a.coeff(k) == b.coeff(k), f"q^{k}: {a.coeff(k)} != {b.coeff(k)}"


def test_normalization_strips_leading_zeros_and_reduces():
    s = LaurentSeries(-2, [0, 0, 4, 6], 10)
    assert s.val == 0 and s.prec == 2
    assert s.nums == [2, 3] and s.den == 5
    assert s.coeff(-5) == 0


def test_zero_and_precision_bookkeeping():
    z = LaurentSeries(1, [0, 0, 0], 3)
    assert z.is_zero() and z.prec == 4 and z.val == 4
    with pytest.raises(SeriesPrecisionError):
        z.coeff(4)
    assert z.coeff(3) == 0


def test_coeff_out_of_range_raises():
    s = LaurentSeries(0, [1, 2, 3])
    with pytest.raises(SeriesPrecisionError):
        s.coeff(3)
    assert s.coeff(-1) == 0 and s.coeff(2) == 3


def test_ring_axioms_randomized():
    rng = random.Random(1123)
    for _ in range(200):
        a = random_series(rng)
        b = random_series(rng)
        c = random_series(rng)
        assert_agree(a + b, b + a)
        assert_agree((a + b) + c, a + (b + c))
        assert_agree(a * b, b * a)
        assert_agree((a * b) * c, a * (b * c))
        assert_agree(a * (b + c), a * b + a * c)
        assert_agree(a - a, LaurentSeries.zero(a.prec))


def test_mul_precision_rule():
    a = LaurentSeries(-1, [1, 2, 3], 1)  # prec 2
    b = LaurentSeries(2, [5, 7], 1)  # prec 4
    p = a * b
    assert p.prec == min(a.prec + b.val, b.prec + a.val) == 3
    assert p.coeff(1) == 5 and p.coeff(2) == 17


def test_mul_scalar_and_shift():
    a = LaurentSeries(0, [1, 2], 3)
    assert a.scale(Fraction(3, 2)).coeff(1) == 1
    assert a.shift(5).coeff(5) == Fraction(1, 3)
    assert a.shift(5).prec == a.prec + 5


def test_invert_two_sided():
    rng = random.Random(99)
    for _ in range(60):
        a = random_series(rng, zero_ok=False)
        inv = a.invert()
        assert inv.val == -a.val and inv.prec == a.prec - 2 * a.val
        left = a * inv
        right = inv * a
        one = LaurentSeries.from_fraction(1, left.prec)
        assert_agree(left, one)
        assert_agree(right, one)


def test_invert_unit_constant_stays_integral():
    a = LaurentSeries(0, [1, -24, 252], 1)
    inv = a.invert()
    assert inv.den == 1
    assert [inv.coeff(k) for k in range(3)] == [1, 24, 324]


def test_invert_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        LaurentSeries.zero(5).invert()


def test_division_round_trip():
    rng = random.Random(4242)
    for _ in range(40):
        a = random_series(rng, zero_ok=False)
        b = random_series(rng, zero_ok=False)
        q = a / b
        assert_agree(q * b, a)


def test_pow_matches_repeated_multiplication():
    rng = random.Random(50)
    for _ in range(30):
        a = random_series(rng, zero_ok=False)
        n = rng.randint(0, 6)
        expected = LaurentSeries.from_fraction(1, a.prec - a.val)
        for _ in range(n):
            expected = expected * a
        assert_agree(a**n, expected)


def test_q_derivative_leibniz():
    rng = random.Random(314)
    for _ in range(80):
        a = random_series(rng)
        b = random_series(rng)
        lhs = (a * b).q_derivative()
        rhs = a.q_derivative() * b + a * b.q_derivative()
        assert_agree(lhs, rhs)


def test_q_derivative_monomial():
    m = LaurentSeries(-3, [1] + [0] * 6)  # q^-3 + O(q^4)
    d = m.q_derivative()
    assert d.coeff(-3) == -3
    assert d.prec == 4


def test_rescale_exponent_scales_precision():
    a = LaurentSeries(-1, [1, 0, 2, 5], 3)  # prec 3
    r = a.rescale_exponent(4)
    assert r.prec == 12 and r.val == -4
    assert r.coeff(-4) == Fraction(1, 3)
    assert r.coeff(4) == Fraction(2, 3)
    assert r.coeff(-3) == 0 and r.coeff(11) == 0
    with pytest.raises(ValueError):
        a.rescale_exponent(0)


def test_truncate():
    a = LaurentSeries(0, list(range(1, 8)))
    t = a.truncate(3)
    assert t.prec == 3 and t.nums == [1, 2, 3]
    with pytest.raises(SeriesPrecisionError):
        a.truncate(10)


# --- modular j -------------------------------------------------------------
#
# Oracle: rebuild j from scratch here with sigma_5 instead of sigma_3, using
# (1 - 504 sum sigma_5 q^n)**2 = E4**3 - 1728 q prod (1-q^n)**24, so the two
# routes share no code path beyond raw convolution.


def naive_mul(a, b, n):
    out = [0] * n
    for i, x in enumerate(a[:n]):
        for j, y in enumerate(b[: n - i]):
            out[i + j] += x * y
    return out


def j_oracle(n):
    sigma5 = [0] * n
    for d in range(1, n):
        p5 = d**5
        for m in range(d, n, d):
            sigma5[m] += p5
    e6 = [1] + [-504 * sigma5[m] for m in range(1, n)]
    e6sq = naive_mul(e6, e6, n)
    eta = [0] * n
    eta[0] = 1
    for k in range(1, n):
        for e, s in ((k * (3 * k - 1) // 2, (-1) ** k), (k * (3 * k + 1) // 2, (-1) ** k)):
            if e < n:
                eta[e] = s
    eta24 = [1]
    for _ in range(24):
        eta24 = naive_mul(eta24, eta, n)
    delta = [0] + eta24[: n - 1]
    e4cubed = [e6sq[m] + 1728 * delta[m] for m in range(n)]
    # long-divide e4cubed by (delta/q) to get j shifted by q
    inv = [0] * n
    inv[0] = 1
    for k in range(1, n):
        inv[k] = -sum(eta24[j] * inv[k - j] for j in range(1, k + 1))
    return naive_mul(e4cubed, inv, n)


def test_j_expansion_against_independent_construction():
    n = 14
    j = j_expansion(n - 1)
    oracle = j_oracle(n)
    assert [j.coeff(k) for k in range(-1, n - 1)] == oracle


def test_j_expansion_known_coefficients():
    j = j_expansion(4)
    assert j.val == -1 and j.den == 1
    assert j.coeff(-1) == 1
    assert j.coeff(0) == 744
    assert j.coeff(1) == 196884
    assert j.coeff(2) == 21493760
    assert j.coeff(3) == 864299970


def test_j_expansion_cached_and_consistent(monkeypatch):
    assert j_expansion(10) is j_expansion(10)
    big, small = j_expansion(9), j_expansion(5)
    for k in range(-1, 5):
        assert big.coeff(k) == small.coeff(k)
    # once a longer series exists, a shorter request is its truncation and
    # inverts nothing; __wrapped__ runs the body past the lru_cache
    longest = j_expansion(60)
    inverted = []
    invert = LaurentSeries.invert
    monkeypatch.setattr(
        LaurentSeries, "invert", lambda self: inverted.append(self) or invert(self)
    )
    for n in (0, 1, 10, 33, 59, 60):
        assert j_expansion(n) == longest.truncate(n)
        assert j_expansion.__wrapped__(n) == longest.truncate(n)
    assert inverted == []
    assert j_expansion(10) is j_expansion(10)
