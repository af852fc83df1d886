import random

import mpmath
import pytest
from mpmath import iv, ldexp

from qstar.arith import exp_complex, iv_precision, unique_integer


def mp_exp(xn, xd, yn=0, yd=1):
    """exp(z) and exp(-z) for z = xn/xd + i yn/yd, at 400 bits."""
    with mpmath.workprec(400):
        z = mpmath.mpc(mpmath.mpf(xn) / xd, mpmath.mpf(yn) / yd)
        return mpmath.exp(z), mpmath.exp(-z)


def test_exp_complex_reference_random():
    rng = random.Random(7171)
    for _ in range(12):
        xn, xd = rng.randint(-40, 20), rng.randint(1, 7)
        yn, yd = rng.randint(-300, 300), rng.randint(1, 7)
        ref, ref_inv = mp_exp(xn, xd, yn, yd)
        with iv_precision(160):
            q, qinv = exp_complex(iv.mpf(xn) / xd, iv.mpf(yn) / yd)
            assert ref in q and ref_inv in qinv
            assert q.real.delta < abs(ref) * ldexp(1, -140)


@pytest.mark.parametrize(
    "num,den", [(0, 1), (1, 1), (-1, 1), (7, 2), (-7, 3), (20, 1), (-20, 1), (1, 100)]
)
def test_exp_real_reference(num, den):
    ref, ref_inv = mp_exp(num, den)
    with iv_precision(96):
        q, qinv = exp_complex(iv.mpf(num) / den, iv.mpf(0))
        assert ref in q and ref_inv in qinv
        # exp at 96 bits should keep far more than 60 good bits
        assert q.real.delta < q.real.b * ldexp(1, -60)


def test_exp_zero_is_exact_one():
    with iv_precision(64):
        q, qinv = exp_complex(iv.mpf(0), iv.mpf(0))
        assert q == 1 and qinv == 1


def test_exp_i_pi_is_minus_one():
    with iv_precision(128):
        q, qinv = exp_complex(iv.mpf(0), iv.pi)
        assert -1 in q and -1 in qinv
        assert q.real.delta < ldexp(1, -100)


def test_exp_period_two_pi_i():
    with iv_precision(128):
        x, y = iv.mpf(-3) / 7, iv.mpf(22) / 9
        a, _ = exp_complex(x, y)
        b, _ = exp_complex(x, y + 10 * iv.pi)  # + 5 full turns
        assert a.overlap(b)


def test_q_times_qinv_contains_one():
    with iv_precision(200):
        q, qinv = exp_complex(iv.mpf(-3) / 7, iv.mpf(22) / 9)
        assert 1 in q * qinv


def test_contains_integer():
    n = 12345678901234567890123
    with iv_precision(300):
        t = ldexp(1, -200)
        assert unique_integer(iv.mpf(n)) == n
        assert unique_integer(iv.mpf(n) + iv.mpf([-t, t])) == n
        assert unique_integer(iv.mpf(-n) + iv.mpf([-t, t])) == -n


def test_unique_integer_rejects_interval_without_integer():
    # rounding these endpoints to 53 bits, in any direction, would put n in
    n = 1000003
    with iv_precision(300):
        x = iv.mpf(n) + iv.mpf([ldexp(1, -100), ldexp(1, -99)])
        assert n not in x
        assert unique_integer(x) is None


def test_unique_integer_rejects_half_integer():
    n = 987654321
    with iv_precision(300):
        t = ldexp(1, -200)
        half = iv.mpf(0.5) + iv.mpf([-t, t])
        assert unique_integer(n + half) is None
        assert unique_integer(-n - half) is None


def test_unique_integer_rejects_wide_interval():
    with iv_precision(64):
        assert unique_integer(iv.mpf([-0.9, 1.1])) is None


def test_iv_precision_restores_on_error():
    prec = iv.prec
    with pytest.raises(ValueError):
        with iv_precision(prec + 77):
            assert iv.prec == prec + 77
            raise ValueError
    assert iv.prec == prec
