"""Certified ball arithmetic on Python integers for the class-polynomial builder.

At precision p a real ball (m, r) is the interval [m - r, m + r] * 2**-p,
and a complex ball (x, y, r) holds the complex numbers whose real part is
in the real ball (x, r) and whose imaginary part is in (y, r).  Each
operation rounds its midpoint down and adds that ulp, with every other
error, to the radius, so a result holds the value at every point of its
arguments.
"""

from functools import lru_cache
from math import isqrt


def mul(a, b, p: int):
    """a * b for real balls."""
    (m1, r1), (m2, r2) = a, b
    err = abs(m1) * r2 + abs(m2) * r1 + r1 * r2
    return m1 * m2 >> p, -(-err >> p) + 1


def cmul(a, b, p: int):
    """a * b for complex balls."""
    (x1, y1, r1), (x2, y2, r2) = a, b
    # bounds the error of either part of the product of the midpoints
    err = (abs(x1) + abs(y1)) * r2 + (abs(x2) + abs(y2)) * r1 + 2 * r1 * r2
    return (x1 * x2 - y1 * y2) >> p, (x1 * y2 + y1 * x2) >> p, -(-err >> p) + 1


def scaled(a, n: int, d: int):
    """a * n / d for a real ball a, an integer n and an integer d > 0."""
    m, r = a
    return m * n // d, -(-r * abs(n) // d) + 1


def sqrt(n: int, p: int):
    """The square root of the integer n >= 0."""
    return isqrt(n << 2 * p), 1


def _acot(k: int, w: int, alt: bool) -> int:
    """2**w atan(1/k) if alt, else 2**w atanh(1/k), within w, for k >= 3.

    Each of the at most w/3 + 1 terms is floor(2**w / ((2j + 1) k**(2j + 1))),
    so within 1, and the tail after the last nonzero term is below 9/8.
    """
    total, power, n, sign = 0, (1 << w) // k, 1, 1
    while power:
        total += sign * (power // n)
        power //= k * k
        n += 2
        if alt:
            sign = -sign
    return total


@lru_cache(maxsize=None)
def pi(p: int):
    """pi = 16 atan(1/5) - 4 atan(1/239), by Machin's formula."""
    g = p.bit_length() + 8  # 2**g > 20 (p + g), the error at p + g bits
    w = p + g
    return (16 * _acot(5, w, True) - 4 * _acot(239, w, True)) >> g, 2


def exp(x, y, p: int):
    """e**(x + iy) as a complex ball, for real balls x and y.

    The Taylor series runs on the ball t = (x + iy) / 2**s, where |t| is at
    most 2**-isqrt(p) <= 1/2, and its sum is squared s times, at s + 20
    guard bits.  Past a term whose ball bounds |t**n / n!|, |t| <= 1/2
    keeps the rest of the series below a third of that bound.
    """
    (mx, rx), (my, ry) = x, y
    if not (mx or my or rx or ry):
        return 1 << p, 0, 0
    r = max(rx, ry)
    s = max(0, (abs(mx) + abs(my) + 2 * r).bit_length() - p + isqrt(p))
    g = s + 20
    w = p + g
    t = mx << g - s, my << g - s, r << g - s
    X, Y, R = term = 1 << w, 0, 0
    n = 0
    while abs(term[0]) + abs(term[1]) > term[2]:
        n += 1
        tx, ty, tr = cmul(term, t, w)
        term = tx // n, ty // n, -(-tr // n) + 1
        X, Y, R = X + term[0], Y + term[1], R + term[2]
    z = X, Y, R + abs(term[0]) + abs(term[1]) + 2 * term[2]
    for _ in range(s):
        z = cmul(z, z, w)
    return z[0] >> g, z[1] >> g, -(-z[2] >> g) + 1


def exp_complex(x, y, p: int):
    """q = exp(x + iy) and q**-1 for real balls x and y."""
    return exp(x, y, p), exp((-x[0], x[1]), (-y[0], y[1]), p)


def log(x, p: int):
    """ln t for every t in the real ball x, whose points must be positive.

    With t = 2**(k - p) u and 1 <= u < 2, ln t = (k - p) ln 2 + 2 atanh(v)
    for v = (u - 1)/(u + 1) in [0, 1/3); the atanh series runs on balls.
    """
    m, r = x
    if m <= r:
        raise ValueError("log needs a ball of positive numbers")
    k = m.bit_length() - 1
    g = p.bit_length() + abs(k - p).bit_length() + 8
    w = p + g
    one = 1 << w
    u = (m << w) >> k  # within 1, and dv/du <= 1/2 on [1, 2]
    v = ((u - one) << w) // (u + one), 2
    v2 = mul(v, v, w)
    (A, Ar), power, n = v, v, 1
    while power[0] > power[1]:
        power = mul(power, v2, w)
        n += 2
        A, Ar = A + power[0] // n, Ar + -(-power[1] // n) + 1
    # v**2 <= 1/9 keeps the dropped tail below an eighth of |power|
    Ar += power[0] + power[1]
    ln2 = 2 * _acot(3, w, False)  # within 2 w
    M = 2 * A + (k - p) * ln2
    R = 2 * Ar + abs(k - p) * 2 * w
    # |ln t - ln m| <= r / (m - r) over the ball
    return M >> g, -(-R >> g) + 1 + -(-(r << p) // (m - r))


def unique_integer(x, p: int):
    """The only integer in the real ball x, or None if there is not one."""
    m, r = x
    lo, hi = -((r - m) >> p), (m + r) >> p
    return lo if lo == hi else None
