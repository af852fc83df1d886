"""Binary quadratic forms, class polynomials, CM detection.

Implements classical reduction theory for negative discriminants (including
non-fundamental ones), the exponent-two test on reduced forms, certified
evaluation of the class polynomial H_D as a product of real factors in
integer ball arithmetic, and the inverse lookup from a candidate minimal
polynomial of a j-invariant back to its CM discriminant.
"""

from __future__ import annotations

import math
from functools import lru_cache
from math import gcd, isqrt

from .algnum import IntPolynomial
from .arith import cmul, exp, exp_complex, log, mul, pi, scaled, sqrt, unique_integer
from .errors import InputError, PrecisionCapError, PrecisionError, Value
from .series import j_expansion

__all__ = [
    "QuadForm",
    "ClassPolynomial",
    "reduced_forms",
    "class_number",
    "one_class_per_genus",
    "class_polynomial",
    "identify_cm",
]

_PRECISION_CAP = 1 << 22

# bits past the scale at which a build computes its balls, to absorb the
# rounding that the Horner sums and the product of the factors amplify
_GUARD_BITS = 16


# ---------------------------------------------------------------------------
# reduced forms


class QuadForm(Value):
    """A reduced primitive positive-definite binary quadratic form."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a: int, b: int, c: int):
        super().__init__(a, b, c)
        if self.a <= 0:
            raise InputError("form must be positive definite (a > 0)")
        if self.discriminant >= 0:
            raise InputError("form discriminant must be negative")
        if gcd(gcd(self.a, self.b), self.c) != 1:
            raise InputError("form must be primitive")
        if not (abs(self.b) <= self.a <= self.c):
            raise InputError("form is not reduced")
        if self.b < 0 and (abs(self.b) == self.a or self.a == self.c):
            raise InputError("boundary form must take b >= 0")

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c


@lru_cache(maxsize=None)
def _reduced_forms(D: int) -> tuple:
    """The reduced forms of D, sorted by (a, b, c) as the loops produce them."""
    if D >= 0:
        raise InputError("discriminant must be negative")
    if D % 4 not in (0, 1):
        raise InputError("discriminant must be 0 or 1 mod 4")
    out = []
    amax = isqrt(-D // 3)
    for a in range(1, amax + 1):
        for b in range(-a, a + 1):
            if (b - D) % 2:
                continue
            num = b * b - D
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if b < 0 and (b == -a or a == c):
                continue  # boundary forms are normalized to b >= 0
            if gcd(gcd(a, b), c) != 1:
                continue
            out.append(QuadForm(a, b, c))
    return tuple(out)


def reduced_forms(D: int) -> list:
    """All reduced primitive forms of discriminant D; the count is h(D)."""
    return list(_reduced_forms(D))


def class_number(D: int) -> int:
    return len(_reduced_forms(D))


def _ambiguous(f: QuadForm) -> bool:
    """Whether the reduced form f is equivalent to its inverse (a, -b, c)."""
    return f.b == 0 or f.b == f.a or f.a == f.c


def one_class_per_genus(D: int) -> bool:
    """True iff the form class group of D has exponent <= 2.

    The ambiguous-form test: exponent <= 2 means every class is its own
    inverse, and a reduced form (a, b, c) is equivalent to its inverse
    (a, -b, c) exactly when b = 0, b = a or a = c.  The class group has
    exponent <= 2 exactly when each genus holds one class (Cox, Thm 3.15).
    """
    return all(_ambiguous(f) for f in _reduced_forms(D))


# ---------------------------------------------------------------------------
# class polynomials


class ClassPolynomial(Value):
    __slots__ = ("discriminant", "poly", "certified")


def _qbits(D: int, a: int) -> int:
    """A qbits with |q| = e^{-pi sqrt|D| / a} < 2**-qbits, for forms (a, b, c) of D.

    Im tau >= sqrt(3)/2 on reduced forms, so qbits >= 6 always holds.
    """
    return max(6, int(math.pi * math.sqrt(-D) / (a * math.log(2))) - 2)


def _truncation_length(scale: int, qbits: int) -> int:
    """The least T >= 3 whose dropped j-series tail is provably below 2**-scale.

    Uses |q| <= 2**-qbits with qbits >= 6 and the coefficient bound
    c_n <= e^{4 pi sqrt n} <= 2**(19 isqrt(n) + 19) <= 2**(19 sqrt n + 19).
    Let m = T + 1 >= 4.  The tangent of sqrt at m gives
    sqrt n <= sqrt m + (n - m)/(2 sqrt m) for n >= m, so the n-th term is at
    most 2**(19 sqrt m + 19 - qbits m) * r**(n - m) with
    r = 2**(19/(2 sqrt m) - qbits) <= 2**(4.75 - 6) < 1/2.  The whole tail is
    then at most twice that first bound, 2**(19 s + 20 - qbits m) with
    s = ceil(sqrt m), and T is the least one that puts this below 2**-scale.
    """
    # the bound needs qbits m > scale + 20, so no smaller m can meet it
    m = max(4, -(-(scale + 20) // qbits))
    while 19 * (isqrt(m - 1) + 1) + 20 - qbits * m > -scale:
        m += 1
    return m - 1


def _j_at_form(
    form: QuadForm, D: int, scale: int, p: int, coeffs: list, terms: int, qbits: int
):
    """A complex ball at precision p containing j((-b + i sqrt|D|)/(2a)),
    from coeffs[:terms + 1]."""
    a, b = form.a, form.b
    # 2 pi i tau = -pi sqrt|D|/a + i * (-pi b / a)
    x = scaled(mul(pi(p), sqrt(-D, p), p), -1, a)
    if b == 0 or b == a:
        # q = e^x, or q = e^{x - i pi} = -e^x: the sum runs on real values
        sign = 1 if b == 0 else -1
        (qx, _, qr), (ix, _, ir) = exp(x, (0, 0), p), exp((-x[0], x[1]), (0, 0), p)
        q, qinv = (sign * qx, 0, qr), (sign * ix, 0, ir)
    else:
        q, qinv = exp_complex(x, scaled(pi(p), -b, a), p)
    # certified |q| < 2**-qbits, the bound the truncation length assumed
    if p < qbits or abs(q[0]) + abs(q[1]) + 2 * q[2] >= 1 << (p - qbits):
        raise PrecisionError("q magnitude bound failed; scale too small")
    total = (coeffs[terms] << p, 0, 0)
    for n in range(terms - 1, -1, -1):
        re, im, r = cmul(total, q, p)
        total = (re + (coeffs[n] << p), im, r)
    # the dropped series tail is below 2**-scale by construction
    return (
        total[0] + qinv[0],
        total[1] + qinv[1],
        total[2] + qinv[2] + (1 << (p - scale)),
    )


def _times_monic(poly: list, low: list, p: int) -> list:
    """poly * (x**len(low) + low[0] + low[1] x + ...) for lists of real
    balls, constant term first."""
    out = [(0, 0)] * len(low) + poly
    for i, f in enumerate(low):
        for k, c in enumerate(poly):
            m, r = mul(f, c, p)
            out[i + k] = (out[i + k][0] + m, out[i + k][1] + r)
    return out


def _default_scale(D: int, forms: tuple) -> int:
    """Bits to start from: log2 |H_D(0)| is about pi sqrt|D| sum(1/a) / ln 2."""
    inv_a = sum(1 / f.a for f in forms)
    return 128 + math.ceil(1.2 * math.pi * math.sqrt(-D) * inv_a / math.log(2))


@lru_cache(maxsize=256)
def class_polynomial(D: int) -> ClassPolynomial:
    """The monic integer polynomial whose roots are the j-invariants of D.

    Every coefficient is computed as a ball and certified when the ball
    holds exactly one integer; on failure the scale doubles, up to a hard
    cap of 2**22 bits.  Results are cached, so the CLI's echo of a CM match
    reuses the lookup's build.
    """
    forms = _reduced_forms(D)
    scale = _default_scale(D, forms)
    while True:
        try:
            return _class_polynomial_at(D, forms, scale)
        except PrecisionError:
            scale *= 2
            if scale > _PRECISION_CAP:
                raise PrecisionCapError(
                    f"class polynomial for D={D} uncertified at the "
                    f"{_PRECISION_CAP}-bit precision cap"
                )


def _class_polynomial_at(D: int, forms: tuple, scale: int) -> ClassPolynomial:
    # (a, -b, c) has tau' = -conj(tau) and so j' = conj(j): each pair with
    # b > 0 contributes x**2 - 2 Re(j) x + |j|**2, and the product is real
    forms = [f for f in forms if f.b >= 0]
    qbits = [_qbits(D, f.a) for f in forms]
    terms = [_truncation_length(scale, qb) for qb in qbits]
    coeffs = j_expansion(max(terms) + 1).nums[1:]  # c_0 .. c_max(terms)
    p = scale + _GUARD_BITS
    poly = [(1 << p, 0)]  # constant term first
    for form, qb, T in zip(forms, qbits, terms):
        x, y, r = _j_at_form(form, D, scale, p, coeffs, T, qb)
        # q is real, or a = c puts tau on the unit circle, where j is real too
        if _ambiguous(form):
            low = [(-x, r)]
        else:
            re2, im2 = mul((x, r), (x, r), p), mul((y, r), (y, r), p)
            low = [(re2[0] + im2[0], re2[1] + im2[1]), (-2 * x, 2 * r)]
        poly = _times_monic(poly, low, p)
    out = [unique_integer(coeff, p) for coeff in poly]
    if None in out:
        raise PrecisionError("coefficient failed integer certification")
    assert out[-1] == 1
    return ClassPolynomial(D, IntPolynomial(tuple(out)), True)


# ---------------------------------------------------------------------------
# CM identification


# |j(tau) - 1/q| <= 2079 for tau in the fundamental domain (Bilu, Masser and
# Zannier, Math. Proc. Cambridge Philos. Soc. 2013, Lemma 1)
_J_TAIL_BOUND = 2079

# the largest window end identify_cm accepts.  Every D with 0 < h(D) <= 16
# and |D| <= 300,000 has |D| <= 35,275, and the window of every such H_D
# ends within 2 of its |D|, so the cap refuses none of them.
_WINDOW_CAP = 100_000


def identify_cm(g: IntPolynomial):
    """The CM discriminant whose class polynomial equals g, or None.

    Let g = H_D have degree h and trace T = -g_{h-1}, the sum of its roots,
    and let X = e^{pi sqrt|D|} and s = sqrt X.  The principal form has
    1/q = +-X, so its root lies within 2079 of +-X.  Every other reduced
    form has a >= 2, so |1/q| = e^{pi sqrt|D| / a} <= s and its root has
    |j| <= s + 2079.  Hence ||T| - X| <= 2079 h + (h - 1) s, which confines
    s, and so |D| = (2 ln s / pi)**2, to the window of _cm_window.  An empty
    window (lo > hi) holds no |D| of any H_D equal to g, so it gives None at
    once; a nonempty one reaching past _WINDOW_CAP raises PrecisionError.
    The candidates are the n in the window with n = 0, 3 mod 4 and
    h(-n) = h, by ascending n, and the first whose H_{-n} equals g is the
    answer: distinct discriminants have disjoint sets of j-invariants, so at
    most one H_D equals g.  A None therefore rests on exact steps only.
    """
    if not 1 <= g.degree <= 16:
        raise InputError("CM lookup supports degree 1 through 16")
    if not g.is_monic():
        raise InputError("CM lookup needs a monic polynomial")
    lo, hi = _cm_window(g)
    if lo > hi:
        return None
    if hi > _WINDOW_CAP:
        raise PrecisionError(
            f"CM lookup window |D| <= {hi} exceeds the budget of {_WINDOW_CAP}"
        )
    for n in range(max(lo, 3), hi + 1):
        if n % 4 in (0, 3) and class_number(-n) == g.degree:
            if class_polynomial(-n).poly == g:
                return -n
    return None


def _cm_window(g: IntPolynomial) -> tuple:
    """(lo, hi) with lo <= |D| <= hi for every D whose class polynomial is g.

    From ||T| - s**2| <= 2079 h + (h - 1) s (see identify_cm): s is at most
    the positive root of s**2 - (h - 1) s = |T| + 2079 h and, when
    |T| - 2079 h >= h, at least the root of s**2 + (h - 1) s = |T| - 2079 h,
    which is then >= 1.  Both roots and ln s are balls at 64 bits, and
    |D| = (2 ln s / pi)**2 is bounded from their ends in exact integers.
    """
    h = g.degree
    trace = abs(g.coeffs[h - 1])
    slack = _J_TAIL_BOUND * h

    p = 64

    def root(k, c):  # the positive root of s**2 + k s = c; r >= 1 covers the halving
        m, r = sqrt(k * k + 4 * c, p)
        return (m - (k << p)) >> 1, r

    s_hi = root(1 - h, trace + slack)
    s_lo = root(h - 1, trace - slack) if trace - slack >= h else (1 << p, 0)
    (m_lo, r_lo), (m_hi, r_hi) = log(s_lo, p), log(s_hi, p)
    pi_m, pi_r = pi(p)
    # 2 ln s >= 0 lies in [lo, hi] * 2**-p and pi in (pi_m -+ pi_r) * 2**-p
    lo, hi = 2 * max(0, m_lo - r_lo), 2 * (m_hi + r_hi)
    return -(-lo * lo // (pi_m + pi_r) ** 2), hi * hi // (pi_m - pi_r) ** 2
