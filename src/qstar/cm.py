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

from .arith import ceil_upper, exp_complex, iv_precision, unique_integer
from .errors import InputError, PrecisionCapError, PrecisionError
from .algnum import (
    IntPolynomial,
    _iter_primes,
    _mod_poly,
    _pm_gcd,
    _pm_pow,
    _squarefree_mod_p,
    _zderiv,
    _zgcd_poly,
    _zsub,
)
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


def _j_at_form(
    form: QuadForm, D: int, scale: int, coeffs: list, terms: int, qbits: int
):
    """An interval containing j((-b + i sqrt|D|)/(2a)), from coeffs[:terms + 1]."""
    a, b = form.a, form.b
    # 2 pi i tau = -pi sqrt|D|/a + i * (-pi b / a)
    x = -iv.pi * iv.sqrt(-D) / a
    y = -iv.pi * b / a
    # certified |q| = e^x < 2**-qbits, the bound the truncation length assumed
    if not iv.exp(x).b < ldexp(1, -qbits):
        raise PrecisionError("q magnitude bound failed; scale too small")
    q, qinv = exp_complex(x, y)
    total = iv.mpc(coeffs[terms])
    for n in range(terms - 1, -1, -1):
        total = total * q + coeffs[n]
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
    # each form's own |q| = e^{-pi sqrt|D| / a} < 2**-qbits sets how many
    # series terms its root needs; Im tau >= sqrt(3)/2 gives qbits >= 6
    qbits = [
        max(6, int(math.pi * math.sqrt(-D) / (f.a * math.log(2))) - 2) for f in forms
    ]
    terms = [_truncation_length(scale, qb) for qb in qbits]
    longest = max(terms)
    # longest + 1 rounded up to a multiple of 256, so nearby D share the cache
    series = j_expansion((longest + 256) // 256 * 256)
    with iv_precision(scale):
        coeffs = [iv.mpf(int(series.coeff(n))) for n in range(longest + 1)]
        poly = [iv.mpc(1)]  # constant term first
        for form, qb, T in zip(forms, qbits, terms):
            jval = _j_at_form(form, D, scale, coeffs, T, qb)
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


# |j(tau) - 1/q| <= 2079 for tau in the fundamental domain (Bilu, Masser and
# Zannier, Math. Proc. Cambridge Philos. Soc. 2013, Lemma 1)
_J_TAIL_BOUND = 2079

# candidates are screened at this many odd primes p with g squarefree mod p
_SCREEN_PRIMES = 24

# the largest CM window identify_cm scans.  Every D with 0 < h(D) <= 16 and
# |D| <= 300,000 has |D| <= 35,275, and the window of such an H_D is below
# 36,000, so the cap refuses none of them.
_WINDOW_CAP = 100_000


def identify_cm(g: IntPolynomial):
    """The CM discriminant whose class polynomial equals g, or None.

    Every D with H_D = g lies in the proven window |D| <= _cm_window(g); a
    window above _WINDOW_CAP raises PrecisionError.  The class numbers of
    the whole window come from one pass over reduced forms, and the
    candidates are the D with h(D) = deg g, by ascending |D|.  Each must
    pass the exact split-prime screen of _screen_rejects before H_D is
    built, and the first exact match is the answer: distinct discriminants
    have disjoint sets of j-invariants, so at most one H_D equals g.  A None
    therefore rests on exact steps only.
    """
    if not 1 <= g.degree <= 16:
        raise InputError("CM lookup supports degree 1 through 16")
    if not g.is_monic():
        raise InputError("CM lookup needs a monic polynomial")
    if len(_zgcd_poly(g.coeffs, _zderiv(g.coeffs))) > 1:
        # the j-invariants of distinct classes are distinct, so every H_D is
        # squarefree (and a g that is not would leave the screen no prime)
        return None
    window = _cm_window(g)
    if window > _WINDOW_CAP:
        raise PrecisionError(
            f"CM lookup window |D| <= {window} exceeds the budget of {_WINDOW_CAP}"
        )
    candidates = [-n for n, h in enumerate(_class_numbers(window)) if h == g.degree]
    screen = _split_primes(g) if candidates else ()
    for D in candidates:
        if _screen_rejects(screen, D):
            continue
        if _class_polynomial_default(D).poly == g:
            return D
    return None


def _cm_window(g: IntPolynomial) -> int:
    """A W with |D| <= W for every D whose class polynomial is g.

    The principal form of D has tau = (-b + i sqrt|D|)/2, |1/q| = e^{pi sqrt|D|}
    and so |j(tau)| >= e^{pi sqrt|D|} - 2079.  If g = H_D, that root is at
    most the Fujiwara bound R = 2 max_k |c_{n-k}|**(1/k) on the roots of g,
    taken here with integer k-th roots rounded up; hence
    |D| <= (ln(R + 2079)/pi)**2.
    """
    n = g.degree
    R = 2 * max(_iroot_ceil(abs(c), n - i) for i, c in enumerate(g.coeffs[:-1]))
    with iv_precision(64):
        t = iv.log(iv.mpf(R + _J_TAIL_BOUND)) / iv.pi
        return ceil_upper(t * t)


def _iroot_ceil(n: int, k: int) -> int:
    """The least r >= 0 with r**k >= n, for n >= 0."""
    if n < 2:
        return n
    r = 1 << -(-n.bit_length() // k)  # r**k >= n
    while True:  # Newton's step from above converges to floor(n**(1/k))
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            break
        r = s
    return r if r**k == n else r + 1


def _class_numbers(W: int) -> list:
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


def _split_primes(g: IntPolynomial) -> list:
    """[(p, g splits into linear factors mod p)] for the screen's primes.

    These are the first _SCREEN_PRIMES odd primes p with g squarefree mod p;
    g splits into linear factors exactly when gcd(g, x**p - x) has degree
    deg g.  A linear g splits mod every p, and every form of class number
    one is principal, so the screen has nothing to reject at degree one.
    """
    if g.degree == 1:
        return []
    out = []
    for p in _iter_primes():
        if p == 2 or not _squarefree_mod_p(g.coeffs, p):
            continue
        f = _mod_poly(g.coeffs, p)
        xp = _pm_pow([0, 1], p, f, p)
        roots = _pm_gcd(f, _mod_poly(_zsub(xp, [0, 1]), p), p)
        out.append((p, len(roots) - 1 == g.degree))
        if len(out) == _SCREEN_PRIMES:
            break
    return out


def _screen_rejects(screen: list, D: int) -> bool:
    """Whether the split primes prove that H_D differs from g.

    Let p be odd with (D/p) = 1, so p splits in K = Q(sqrt D) and does not
    divide the conductor, and let H_D = g be squarefree mod p.  Then H_D
    splits into linear factors mod p exactly when p splits completely in
    Q(j), hence in the ring class field K(j), that is, when the primes of
    the order above p are principal (Cox, Primes of the Form x^2 + ny^2,
    section 9).  A mismatch at any such p proves H_D != g.
    """
    return any(
        pow(D, (p - 1) // 2, p) == 1 and _prime_form_is_principal(D, p) != splits
        for p, splits in screen
    )


def _prime_form_is_principal(D: int, p: int) -> bool:
    """Whether the form (p, b, (b**2 - D)/4p) of a split odd prime reduces to a = 1."""
    b = next(b for b in range(p) if (b * b - D) % p == 0)
    if (b - D) % 2:
        b += p  # b**2 = D mod 4p
    a = p
    while True:
        b %= 2 * a
        if b > a:
            b -= 2 * a
        c = (b * b - D) // (4 * a)
        if c >= a:
            return a == 1
        a, b = c, -b
