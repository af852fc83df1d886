import random
from fractions import Fraction
from itertools import product

import mpmath
import pytest

from qstar.arith import cmul, exp_complex, log, mul, pi, scaled, sqrt, unique_integer


def ball(num: int, den: int, p: int):
    """num/den as a real ball at precision p, exact when it can be."""
    m, rest = divmod(num << p, den)
    return m, int(rest != 0)


def holds(b, ref, p: int) -> bool:
    """Whether the real ball b holds the mpmath number ref, compared exactly."""
    m, r = b
    return m - r <= mpmath.ldexp(ref, p) <= m + r


def holds_complex(z, ref, p: int) -> bool:
    x, y, r = z
    return holds((x, r), ref.real, p) and holds((y, r), ref.imag, p)


def mp_exp(xn, xd, yn=0, yd=1):
    """exp(z) and exp(-z) for z = xn/xd + i yn/yd, at 400 bits."""
    with mpmath.workprec(400):
        z = mpmath.mpc(mpmath.mpf(xn) / xd, mpmath.mpf(yn) / yd)
        return mpmath.exp(z), mpmath.exp(-z)


def test_exp_complex_reference_random():
    # fixed point: e**-40 is near 2**-58, so 160 + 64 bits keep 140 good bits
    p = 224
    rng = random.Random(7171)
    for _ in range(12):
        xn, xd = rng.randint(-40, 20), rng.randint(1, 7)
        yn, yd = rng.randint(-300, 300), rng.randint(1, 7)
        ref, ref_inv = mp_exp(xn, xd, yn, yd)
        q, qinv = exp_complex(ball(xn, xd, p), ball(yn, yd, p), p)
        assert holds_complex(q, ref, p) and holds_complex(qinv, ref_inv, p)
        assert 2 * q[2] < abs(ref) * mpmath.ldexp(1, p - 140)


@pytest.mark.parametrize(
    "num,den", [(0, 1), (1, 1), (-1, 1), (7, 2), (-7, 3), (20, 1), (-20, 1), (1, 100)]
)
def test_exp_real_reference(num, den):
    ref, ref_inv = mp_exp(num, den)
    p = 96
    q, qinv = exp_complex(ball(num, den, p), (0, 0), p)
    assert holds_complex(q, ref, p) and holds_complex(qinv, ref_inv, p)
    # exp at 96 bits should keep far more than 60 good bits
    assert 2 * q[2] < (q[0] + q[2]) >> 60


def test_exp_zero_is_exact_one():
    q, qinv = exp_complex((0, 0), (0, 0), 64)
    assert q == qinv == (1 << 64, 0, 0)


def test_exp_i_pi_is_minus_one():
    p = 128
    q, qinv = exp_complex((0, 0), pi(p), p)
    assert holds_complex(q, mpmath.mpc(-1), p) and holds_complex(qinv, mpmath.mpc(-1), p)
    assert 2 * q[2] < 1 << (p - 100)


def test_exp_period_two_pi_i():
    p = 128
    x, y = ball(-3, 7, p), ball(22, 9, p)
    (pm, pr), (ym, yr) = pi(p), y
    a, _ = exp_complex(x, y, p)
    b, _ = exp_complex(x, (ym + 10 * pm, yr + 10 * pr), p)  # + 5 full turns
    assert abs(a[0] - b[0]) <= a[2] + b[2] and abs(a[1] - b[1]) <= a[2] + b[2]


def test_q_times_qinv_contains_one():
    p = 200
    q, qinv = exp_complex(ball(-3, 7, p), ball(22, 9, p), p)
    assert holds_complex(cmul(q, qinv, p), mpmath.mpc(1), p)


def test_contains_integer():
    n = 12345678901234567890123
    p, t = 300, 1 << 100  # t is 2**-200
    assert unique_integer((n << p, 0), p) == n
    assert unique_integer((n << p, t), p) == n
    assert unique_integer((-n << p, t), p) == -n


def test_unique_integer_rejects_interval_without_integer():
    # n + [2**-100, 2**-99]: rounding these ends to 53 bits would put n in
    n, p = 1000003, 300
    lo, hi = (n << p) + (1 << 200), (n << p) + (1 << 201)
    m = (lo + hi) // 2
    assert not m - (hi - m) <= n << p
    assert unique_integer((m, hi - m), p) is None


def test_unique_integer_rejects_half_integer():
    n, p, t = 987654321, 300, 1 << 100
    assert unique_integer(((2 * n + 1) << (p - 1), t), p) is None
    assert unique_integer((-(2 * n + 1) << (p - 1), t), p) is None


def test_unique_integer_rejects_wide_interval():
    # [-0.9, 1.1]
    p = 64
    assert unique_integer(((1 << p) // 10, 1 << p), p) is None


def test_products_hold_every_corner():
    # the products are linear in the points of each argument, so they are
    # extreme at corners; at p = 7 the midpoint rounding matters
    rng = random.Random(4242)
    p = 7
    for _ in range(300):
        a = [rng.randint(-5000, 5000) for _ in range(2)] + [rng.choice((0, 1, 9))]
        b = [rng.randint(-5000, 5000) for _ in range(2)] + [rng.choice((0, 1, 9))]
        n, d = rng.randint(-50, 50), rng.randint(1, 50)
        m, r = scaled((a[0], a[2]), n, d)
        for s in (-1, 1):
            assert m - r <= Fraction((a[0] + s * a[2]) * n, d) <= m + r
        m, r = mul((a[0], a[2]), (b[0], b[2]), p)
        for s, t in product((-1, 1), repeat=2):
            exact = Fraction((a[0] + s * a[2]) * (b[0] + t * b[2]), 1 << p)
            assert m - r <= exact <= m + r
        x, y, r = cmul(a, b, p)
        for s in product((-1, 1), repeat=4):
            re1, im1 = a[0] + s[0] * a[2], a[1] + s[1] * a[2]
            re2, im2 = b[0] + s[2] * b[2], b[1] + s[3] * b[2]
            re = Fraction(re1 * re2 - im1 * im2, 1 << p)
            im = Fraction(re1 * im2 + im1 * re2, 1 << p)
            assert x - r <= re <= x + r and y - r <= im <= y + r


def test_pi_encloses():
    rng = random.Random(31)
    for p in [64, 4096] + [rng.randint(64, 4096) for _ in range(8)]:
        with mpmath.workprec(p + 64):
            assert holds(pi(p), mpmath.pi, p), p
        assert pi(p)[1] <= 2


def test_sqrt_encloses():
    rng = random.Random(32)
    for _ in range(40):
        p = rng.randint(64, 4096)
        n = rng.randrange(1 << rng.randint(1, 300))
        with mpmath.workprec(p + 400):
            assert holds(sqrt(n, p), mpmath.sqrt(n), p), (n, p)


def test_log_encloses():
    rng = random.Random(33)
    for _ in range(40):
        p = rng.randint(64, 4096)
        m = rng.randrange(1, 1 << rng.randint(1, p + 300))
        r = rng.choice((0, 1, rng.randrange(m)))
        b = log((m, r), p)
        with mpmath.workprec(p + 400):
            for end in {m - r, m + r} - {0}:
                assert holds(b, mpmath.log(mpmath.ldexp(end, -p)), p), (m, r, p)
        # the radius is a few ulps past the spread of ln over the ball
        assert b[1] <= 2 + -(-(r << p) // (m - r)), (m, r, p)
    with pytest.raises(ValueError):
        log((5, 5), 64)


def test_cos_and_sin_enclose():
    # exp(iy) = cos y + i sin y
    rng = random.Random(34)
    for _ in range(24):
        p = rng.randint(64, 4096)
        yn, yd = rng.randint(-10**6, 10**6), rng.randint(1, 1000)
        q, qinv = exp_complex((0, 0), ball(yn, yd, p), p)
        with mpmath.workprec(p + 400):
            y = mpmath.mpf(yn) / yd
            assert holds((q[0], q[2]), mpmath.cos(y), p), (yn, yd, p)
            assert holds((q[1], q[2]), mpmath.sin(y), p), (yn, yd, p)
            assert holds((qinv[1], qinv[2]), -mpmath.sin(y), p), (yn, yd, p)
        assert q[2] < 1 << 8, (yn, yd, p)
