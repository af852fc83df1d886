"""Binary quadratic forms, class polynomials, CM detection.

Implements classical reduction theory for negative discriminants (including
non-fundamental ones), the exponent-two test on reduced forms, certified
evaluation of the class polynomial H_D in interval arithmetic, and the
inverse lookup from a candidate minimal polynomial of a j-invariant back to
its CM discriminant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt

from mpmath import iv, ldexp

from .arith import exp_complex, iv_precision, unique_integer
from .errors import InputError, PrecisionCapError, PrecisionError
from .algnum import IntPolynomial
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


# ---------------------------------------------------------------------------
# reduced forms


@dataclass(frozen=True)
class QuadForm:
    """A reduced primitive positive-definite binary quadratic form."""

    a: int
    b: int
    c: int

    def __post_init__(self):
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


def one_class_per_genus(D: int) -> bool:
    """True iff the form class group of D has exponent <= 2.

    The ambiguous-form test: exponent <= 2 means every class is its own
    inverse, and a reduced form (a, b, c) is equivalent to its inverse
    (a, -b, c) exactly when b = 0, b = a or a = c.  The class group has
    exponent <= 2 exactly when each genus holds one class (Cox, Thm 3.15).
    """
    return all(f.b == 0 or f.b == f.a or f.a == f.c for f in _reduced_forms(D))


# ---------------------------------------------------------------------------
# class polynomials


@dataclass(frozen=True)
class ClassPolynomial:
    discriminant: int
    poly: IntPolynomial
    certified: bool


def _truncation_length(scale: int, qbits: int) -> int:
    """Terms of the j-series needed so the dropped tail is below 2**-scale.

    Uses |q| <= 2**-qbits and the coefficient bound c_n <= e^{4 pi sqrt n}
    <= 2**(19 isqrt(n) + 19); the dropped tail is then geometric with ratio
    <= 2**-4, so requiring the first dropped term below 2**-(scale+3) leaves
    the whole tail under 2**-scale.
    """
    T = max(32, (scale + 80) // qbits)
    while 19 * isqrt(T + 1) + 19 + 4 - qbits * (T + 1) > -(scale + 3):
        T += max(1, T // 8)
    return T


def _j_at_form(form: QuadForm, D: int, scale: int, coeffs: list, qbits_min: int):
    """An interval containing j((-b + i sqrt|D|)/(2a)), from the truncated series."""
    a, b = form.a, form.b
    # 2 pi i tau = -pi sqrt|D|/a + i * (-pi b / a)
    x = -iv.pi * iv.sqrt(-D) / a
    y = -iv.pi * b / a
    # certified |q| = e^x < 2**-qbits, the bound the truncation length assumed
    if not iv.exp(x).b < ldexp(1, -qbits_min):
        raise PrecisionError("q magnitude bound failed; scale too small")
    q, qinv = exp_complex(x, y)
    total = iv.mpc(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        total = total * q + c
    # the dropped series tail is below 2**-scale by construction
    tail = ldexp(1, -scale)
    tail = iv.mpf([-tail, tail])
    return total + qinv + iv.mpc(tail, tail)


def _default_scale(D: int, forms: tuple) -> int:
    """Bits to start from: log2 |H_D(0)| is about pi sqrt|D| sum(1/a) / ln 2."""
    inv_a = sum(1 / f.a for f in forms)
    return 128 + math.ceil(1.2 * math.pi * math.sqrt(-D) * inv_a / math.log(2))


def class_polynomial(D: int, scale_bits: int = None) -> ClassPolynomial:
    """The monic integer polynomial whose roots are the j-invariants of D.

    Every coefficient is computed as an interval and certified when the
    interval holds exactly one integer; on failure the working precision
    doubles, up to a hard cap of 2**22 bits.
    """
    forms = _reduced_forms(D)
    scale = scale_bits if scale_bits else _default_scale(D, forms)
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
    # the worst |q| over the forms governs how many series terms are needed;
    # Im tau >= sqrt(3)/2 gives the floor qbits >= pi*sqrt(3)/ln2 - 1 > 6
    amax = max(f.a for f in forms)
    qbits_min = max(6, int(math.pi * math.sqrt(-D) / (amax * math.log(2))) - 2)
    terms = _truncation_length(scale, qbits_min)
    # terms + 1 rounded up to a multiple of 256, so nearby D share the cache
    series = j_expansion((terms + 256) // 256 * 256)
    coeffs = [int(series.coeff(n)) for n in range(0, terms + 1)]
    with iv_precision(scale):
        poly = [iv.mpc(1)]  # constant term first
        for form in forms:
            jval = _j_at_form(form, D, scale, coeffs, qbits_min)
            # multiply by (x - j)
            poly = [iv.mpc(0)] + poly
            for i in range(len(poly) - 1):
                poly[i] -= poly[i + 1] * jval
        out = []
        for coeff in poly:
            n = unique_integer(coeff.real)
            if n is None or unique_integer(coeff.imag) != 0:
                raise PrecisionError("coefficient failed integer certification")
            out.append(n)
    assert out[-1] == 1
    return ClassPolynomial(D, IntPolynomial(tuple(out)), True)


@lru_cache(maxsize=256)
def _class_polynomial_default(D: int) -> ClassPolynomial:
    return class_polynomial(D)


# ---------------------------------------------------------------------------
# CM identification


def identify_cm(g: IntPolynomial):
    """The CM discriminant whose class polynomial equals g, or None.

    Scans candidate discriminants with matching class number inside a window
    sized from the largest-root estimate log|j| ~ pi sqrt|D| (widened by a
    factor of four), cheapest filters first; one-class-per-genus candidates
    come first, then the rest, each by ascending |D|. The first exact match
    is the answer: distinct discriminants have disjoint sets of j-invariants,
    so at most one H_D equals g.
    """
    if not 1 <= g.degree <= 16:
        raise InputError("CM lookup supports degree 1 through 16")
    if not g.is_monic():
        raise InputError("CM lookup needs a monic polynomial")
    deg = g.degree
    # Fujiwara upper bound on the largest root of a monic polynomial
    log_root = math.log(2) + max(
        math.log(abs(c)) / (deg - i) if c else 0.0
        for i, c in enumerate(g.coeffs[:-1])
    )
    window = int(4 * (max(log_root, 0.0) / math.pi) ** 2) + 64
    log_c0 = math.log(abs(g.coeffs[0])) if g.coeffs[0] else None
    candidates = []
    for absd in range(3, window + 1):
        if -absd % 4 not in (0, 1):
            continue
        forms = _reduced_forms(-absd)
        if len(forms) != deg:
            continue
        if not _constant_size_plausible(log_c0, -absd, forms):
            continue
        candidates.append(-absd)
    candidates.sort(key=lambda D: (not one_class_per_genus(D), -D))
    for D in candidates:
        if _class_polynomial_default(D).poly == g:
            return D
    return None


def _constant_size_plausible(log_c0, D: int, forms: tuple) -> bool:
    """Cheap float screen: |H_D(0)| is about exp(pi sqrt|D| sum 1/a)."""
    if log_c0 is None:
        # constant term 0 means j = 0 is a root: only D = -3 qualifies
        return D == -3
    upper = sum(
        max(math.pi * math.sqrt(-D) / f.a, 6.7) + 2.0 for f in forms
    )
    lower = math.pi * math.sqrt(-D) - 40.0
    return lower <= log_c0 <= upper
