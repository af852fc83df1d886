"""Genus-2 sextic models y**2 = f(x) and their function-field generators.

A curve is y**2 = x**6 + a5*x**5 + ... + a0 with rational a_i and squarefree
right-hand side.  Being monic of even degree it carries two rational points
over the singular point at infinity, told apart by the sign of y/x**3: the
branch with limit +1 (``INF_PLUS``) and its image under the hyperelliptic
involution (``INF_MINUS``).

The generators f3, f4, f5 have poles only at INF_PLUS, of orders 3, 4, 5,
vanish at INF_MINUS, and every function regular outside INF_PLUS is a
constant plus a combination of f5*f3^k, f4*f3^k, f3^(k+1) (see jpipeline).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional

from .algnum import _zderiv, _zeval, _zgcd_poly, perfect_square_root
from .errors import InputError, Value
from .series import LaurentSeries


class SexticCurve(Value):
    """y**2 = x**6 + a5 x**5 + a4 x**4 + a3 x**3 + a2 x**2 + a1 x + a0."""

    __slots__ = ("a0", "a1", "a2", "a3", "a4", "a5")

    def __init__(self, a0, a1, a2, a3, a4, a5):
        super().__init__(*map(Fraction, (a0, a1, a2, a3, a4, a5)))
        f = self.f_coeffs()
        den = lcm(*(c.denominator for c in f))
        f = [int(c * den) for c in f]
        if len(_zgcd_poly(f, _zderiv(f))) > 1:
            raise InputError("sextic has a repeated root; the curve is singular")

    @classmethod
    def from_coeffs(cls, coeffs) -> "SexticCurve":
        """coeffs = (a0, ..., a5), constant term first."""
        return cls(*coeffs)

    def f_coeffs(self):
        """[a0, ..., a5, 1], constant term first."""
        return [self.a0, self.a1, self.a2, self.a3, self.a4, self.a5, Fraction(1)]

    def f_at(self, x) -> Fraction:
        return _zeval(self.f_coeffs(), Fraction(x))

    def point(self, x, y) -> "CurvePoint":
        """Validated affine point."""
        x, y = Fraction(x), Fraction(y)
        if y * y != self.f_at(x):
            raise InputError(f"({x}, {y}) does not lie on the curve")
        return CurvePoint(kind="affine", x=x, y=y)

    def __str__(self):
        names = ["", "x", "x^2", "x^3", "x^4", "x^5"]
        terms = ["x^6"]
        for i in range(5, -1, -1):
            c = getattr(self, f"a{i}")
            if c:
                s = "+ " if c > 0 else "- "
                mag = abs(c)
                if mag == 1 and i > 0:
                    terms.append(s + names[i])
                else:
                    terms.append(s + (f"{mag}{names[i]}" if i else f"{mag}"))
        return "y^2 = " + " ".join(terms)


class CurvePoint(Value):
    __slots__ = ("kind", "x", "y")

    def __init__(
        self,
        kind: str,  # "affine" | "infinity_plus" | "infinity_minus"
        x: Optional[Fraction] = None,
        y: Optional[Fraction] = None,
    ):
        if kind not in ("affine", "infinity_plus", "infinity_minus"):
            raise InputError(f"unknown point kind {kind!r}")
        if kind == "affine" and (x is None or y is None):
            raise InputError("affine point needs both coordinates")
        super().__init__(kind, x, y)

    def __str__(self):
        if self.kind == "infinity_plus":
            return "inf+"
        if self.kind == "infinity_minus":
            return "inf-"
        return f"({self.x}, {self.y})"


INF_PLUS = CurvePoint(kind="infinity_plus")
INF_MINUS = CurvePoint(kind="infinity_minus")


class FGenerators(Value):
    """f3 = P(x) + y/2, f4 = x*f3 + k4, f5 = x*f4 + k5."""

    __slots__ = ("p", "k4", "k5")  # p: the cubic P's coefficients, constant first


def rr_generators(curve: SexticCurve) -> FGenerators:
    """The pole-order 3, 4, 5 generators at INF_PLUS, by their closed forms."""
    a0, a1, a2, a3, a4, a5 = (
        curve.a0,
        curve.a1,
        curve.a2,
        curve.a3,
        curve.a4,
        curve.a5,
    )
    p = (
        Fraction(8 * a3 - 4 * a4 * a5 + a5**3, 32),
        Fraction(4 * a4 - a5**2, 16),
        Fraction(a5, 4),
        Fraction(1, 2),
    )
    k4 = Fraction(64 * a2 - 16 * a4**2 - 32 * a3 * a5 + 24 * a4 * a5**2 - 5 * a5**4, 256)
    k5 = Fraction(
        128 * a1
        - 64 * a3 * a4
        - 64 * a2 * a5
        + 48 * a4**2 * a5
        + 48 * a3 * a5**2
        - 40 * a4 * a5**3
        + 7 * a5**5,
        512,
    )
    return FGenerators(p=p, k4=k4, k5=k5)


def evaluate_f(gens: FGenerators, p: CurvePoint):
    """(f3, f4, f5) at a point; the generators vanish at INF_MINUS."""
    if p.kind == "infinity_plus":
        raise InputError("f3, f4, f5 have their pole at inf+")
    if p.kind == "infinity_minus":
        return (Fraction(0), Fraction(0), Fraction(0))
    f3 = _zeval(gens.p, p.x) + p.y / 2
    f4 = p.x * f3 + gens.k4
    return (f3, f4, p.x * f4 + gens.k5)


def evaluate_f_series(gens: FGenerators, x: LaurentSeries, y: LaurentSeries):
    """(f3, f4, f5) on Laurent series coordinates (x, y)."""

    def plus(s, c):
        return s + LaurentSeries.from_fraction(c, s.prec)

    p0, p1, p2, p3 = gens.p
    f3 = plus(x.scale(p3), p2)
    for c in (p1, p0):
        f3 = plus(f3 * x, c)
    f3 = f3 + y.scale(Fraction(1, 2))
    f4 = plus(x * f3, gens.k4)
    return (f3, f4, plus(x * f4, gens.k5))


# Odd primes of the sieve. Each one halves the survivors, roughly, and the
# AND chain for a v stops as soon as no u is left, so primes past the point
# where that usually happens cost almost nothing.
_SIEVE_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _sieve_tiles(coeffs, p: int, height: int) -> list:
    """One bitset over u = -height..height per residue w = v mod p.

    Bit u + height of tile w is clear only when no coprime (u, v) with
    v = w mod p can make f(u, v) a square: f(u, v) is then a non-square mod
    p. For w != 0, f(u, v) = v**6 * f(u/v, 1) mod p and v**6 is a nonzero
    square, so one row of f(r, 1) mod p, r = 0..p-1, permuted by 1/w, gives
    the pattern. For w = 0 only a6 * u**6 is left, and u = 0 mod p would
    share the factor p with v.
    """
    squares = {r * r % p for r in range(p)}
    good = []  # the r with f(r, 1) a square or 0 mod p
    for r in range(p):
        t = 0
        for c in reversed(coeffs):
            t = (t * r + c) % p
        if t in squares:
            good.append(r)
    width = 2 * height + 1
    # a 1 every p bits, covering the width; multiplying a p-bit pattern by it
    # repeats the pattern
    repeat = ((1 << (p * -(-width // p))) - 1) // ((1 << p) - 1)
    mask = (1 << width) - 1
    # bit j of a pattern stands for every u = j - height mod p
    if coeffs[6] % p in squares:
        pattern = ((1 << p) - 1) ^ (1 << height % p)
    else:
        pattern = 0
    tiles = [pattern * repeat & mask]
    for w in range(1, p):
        # u = r * w mod p is allowed exactly when r is good
        pattern = sum(1 << (r * w + height) % p for r in good)
        tiles.append(pattern * repeat & mask)
    return tiles


def search_sextic(coeffs, height: int) -> list:
    """Solutions of s**2 = sum(coeffs[i] * u**i * v**(6-i)) in coprime u, v.

    coeffs is (a0, ..., a6); scans v in 1..height, |u| <= height, returns
    (u, v, s) triples with s >= 0, ordered by (v, u).

    A bitset sieve in the style of M. Stoll's ratpoints runs before the
    exact square test. For each v, the candidate u form one bitset: the AND
    of one tile per sieve prime p, chosen by v mod p (see _sieve_tiles). A
    u survives only if f(u, v) is a square or 0 mod every sieve prime, and
    every survivor still goes through the exact checks: gcd(u, v) == 1,
    f(u, v) >= 0 and an exact integer square root. The sieve cannot drop a
    point: if f(u, v) = s**2, then f(u, v) mod p is s**2 mod p, a square or
    0, for every p.
    """
    a0, a1, a2, a3, a4, a5, a6 = coeffs
    sieve = [(p, _sieve_tiles(coeffs, p, height)) for p in _SIEVE_PRIMES]
    everything = (1 << (2 * height + 1)) - 1
    out = []
    for v in range(1, height + 1):
        cand = everything
        for p, tiles in sieve:
            cand &= tiles[v % p]
            if not cand:
                break
        if not cand:
            continue
        v2 = v * v
        v3 = v2 * v
        v4 = v3 * v
        v5 = v4 * v
        v6 = v5 * v
        c0 = a0 * v6
        c1 = a1 * v5
        c2 = a2 * v4
        c3 = a3 * v3
        c4 = a4 * v2
        c5 = a5 * v
        while cand:
            low = cand & -cand
            cand ^= low
            u = low.bit_length() - 1 - height
            if gcd(u, v) != 1:
                continue
            t = ((((((a6 * u + c5) * u + c4) * u + c3) * u + c2) * u + c1) * u) + c0
            if t < 0:
                continue
            s = perfect_square_root(t)
            if s is not None:
                out.append((u, v, s))
    return out


def search_points(curve: SexticCurve, height_bound: int) -> list:
    """All rational points with x = u/v in lowest terms, max(|u|, v) <= bound.

    Returns both points at infinity first, then affine points ordered by
    (v, u), each nonzero-y solution contributing the +y then the -y point.
    """
    if height_bound < 1:
        raise InputError("height bound must be >= 1")
    coeffs = curve.f_coeffs()
    den_lcm = lcm(*(c.denominator for c in coeffs))
    scale = den_lcm * den_lcm
    int_coeffs = tuple(int(c * scale) for c in coeffs)
    out = [INF_PLUS, INF_MINUS]
    for u, v, s in search_sextic(int_coeffs, height_bound):
        x = Fraction(u, v)
        y = Fraction(s, den_lcm * v**3)
        out.append(CurvePoint(kind="affine", x=x, y=y))
        if s:
            out.append(CurvePoint(kind="affine", x=x, y=-y))
    return out
