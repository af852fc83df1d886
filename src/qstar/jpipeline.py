"""Symmetric functions of {j(dz) : d | N} in the f3, f4, f5 basis.

The elementary symmetric functions J_1 ... J_m of the modular j-invariants
at the divisor scalings of z are holomorphic away from one cusp, so each is
a linear combination of the basis {f5 f3^k, f4 f3^k, f3^(k+1)} plus a
constant.  The basis element of pole order n >= 3 is f(3+g) f3^k with
g = n % 3 and k = n // 3 - 1; this module is the one place that knows it.
Each basis element has a distinct pole order, so the combination is
triangular; it is read off by a Horner scheme in base f3 that takes s
digits a block against tables shared by every J_i of a level, and is
certified by the vanishing of the residual tail.  Evaluating the
combinations at a rational point of the sextic model and assembling
z^m + sum (-1)^i J_i z^(m-i) gives the monic polynomial whose roots are the
j-invariants attached to that point.  point_report factors that
polynomial over Q, identifies the field and the CM discriminant of each
factor, and checks its own claims exactly before returning them.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from typing import Optional

from .algnum import (
    IntPolynomial,
    factor_rational,
    identify_multiquadratic,
    poly_str,
    prime_factors,
    quadratic_surd_roots,
)
from .cm import identify_cm
from .errors import (
    InconsistentDatasetError,
    InputError,
    InsufficientPrecisionError,
    QstarError,
    Value,
)
from .hyperelliptic import CurvePoint, evaluate_f, evaluate_f_series, rr_generators
from .modular import ModularDataset, coordinate_series, derive_equation
from .series import LaurentSeries, convolve, j_expansion

__all__ = [
    "FExpression",
    "LevelContext",
    "divisors",
    "express_in_basis",
    "j_expression",
    "evaluate_expression",
    "j_polynomial_at_point",
    "FactorReport",
    "PointReport",
    "point_report",
    "required_precision",
    "check_precision",
    "expression_to_json",
]

PRECISION_MARGIN = 12  # dataset coefficients needed beyond the deepest pole


class FExpression(Value):
    """constant + f3*P0(f3) + f4*P1(f3) + f5*P2(f3).

    polys[g][k] is the coefficient of f(3+g) * f3^k, the basis element of
    pole order 3 + g + 3k; each P_g is a tuple of Fractions, constant first.
    """

    __slots__ = ("constant", "polys")


def divisors(n: int) -> tuple:
    """The divisors of n >= 1, ascending."""
    out = [1]
    for p, e in prime_factors(n).items():
        out += [d * p**k for d in out for k in range(1, e + 1)]
    return tuple(sorted(out))


def required_precision(level: int) -> int:
    """Dataset precision needed to run the pipeline at this square-free level."""
    return sum(divisors(level)) + PRECISION_MARGIN


def check_precision(dataset: ModularDataset) -> None:
    """Refuse a dataset shorter than required_precision of its level."""
    need = required_precision(dataset.level)
    if dataset.precision < need:
        raise InsufficientPrecisionError(
            f"level {dataset.level} needs dataset precision >= {need}, "
            f"got {dataset.precision}"
        )


class LevelContext(Value):
    """Immutable bundle of everything the pipeline needs for one level.

    Built only by from_data, which derives the sextic model from the
    dataset, expands its generators f3, f4, f5 as q-series and writes
    J_1 .. J_m in their basis; expressions[i - 1] is J_i.
    """

    __slots__ = ("dataset", "divisors", "curve", "generators", "f_series", "expressions")

    @property
    def level(self) -> int:
        return self.dataset.level

    @property
    def m(self) -> int:
        return len(self.divisors)

    @property
    def sigma(self) -> int:
        return sum(self.divisors)

    @classmethod
    def from_data(cls, dataset: ModularDataset) -> "LevelContext":
        """Check the precision, derive the model, expand f3, f4, f5 and
        reduce every J_i into their basis against one set of tables."""
        check_precision(dataset)
        curve = derive_equation(dataset)
        gens = rr_generators(curve)
        x, y = coordinate_series(dataset)  # cached by derive_equation's call
        fs = evaluate_f_series(gens, x, y)
        for i, s in enumerate(fs, start=3):
            assert s.val == -i and s.coeff(-i) == 1, f"f{i} normalization broke"
        divs = divisors(dataset.level)
        esym = _elementary_symmetric(divs, dataset.precision)
        sigma = sum(divs)
        assert esym[-1].val == -sigma, "product pole order must be sigma"
        tables = {"s": max(1, isqrt(sigma // 3))}
        expressions = tuple(express_in_basis(F, fs, _cache=tables) for F in esym)
        return cls(dataset, divs, curve, gens, fs, expressions)


# ---------------------------------------------------------------------------
# symmetric functions of the rescaled j-expansions


def _elementary_symmetric(divs: tuple, target: int) -> tuple:
    """e_1 .. e_m of {j(dz) : d in divs}, each to precision O(q^target)."""
    scaled = []
    for d in divs:
        base = -(-target // d)
        scaled.append(j_expansion(base).rescale_exponent(d).truncate(target))
    esym = [LaurentSeries.from_fraction(1, target)]
    for t in scaled:
        esym.append(t * esym[-1])
        for i in range(len(esym) - 2, 0, -1):
            esym[i] = esym[i] + t * esym[i - 1]
    return tuple(esym[1:])


# ---------------------------------------------------------------------------
# reduction into the basis by a Horner scheme in base f3


def _element_precision(g: int, k: int, fs: tuple) -> int:
    """Precision of f(3+g) * f3^k as k products by f3 of f(3+g) leave it."""
    if k == 0:
        return fs[g].prec
    return min(fs[g].prec, fs[0].prec - g) - 3 * k


def _too_short(prec: int) -> InsufficientPrecisionError:
    return InsufficientPrecisionError(
        "fewer than 8 positive-exponent coefficients remain to certify "
        f"the reduction (precision O(q^{prec}))"
    )


def _tables(fs: tuple, cache: dict) -> tuple:
    """(babies, f3^s, [u^s, u^2s, ...]) for u = 1/f3 and s = cache["s"].

    babies[x + 2] = u^j (1, f4 u, f5 u)[g] has valuation x = 3j - g, for
    j < s. f3, f4, f5 count as exact Laurent polynomials, and every table
    keeps as many coefficients as the longest of them: no block reads more.
    """
    if "babies" not in cache:
        s = cache["s"]
        width = max(len(f.nums) for f in fs)
        f3, f4, f5 = (
            LaurentSeries(f.val, f.nums + [0] * (width - len(f.nums)), f.den)
            for f in fs
        )
        u = f3.invert()
        pows = [LaurentSeries(0, [1] + [0] * (width - 1)), u]
        while len(pows) <= s:
            pows.append(pows[-1] * u)
        w4, w5 = f4 * u, f5 * u
        babies = []
        for j in range(s):
            if j:
                w4, w5 = w4 * u, w5 * u
            babies += (w5, w4, pows[j])
        cache.update(babies=babies, f3s=f3**s, upow=[pows[s]])
    return cache["babies"], cache["f3s"], cache["upow"]


def express_in_basis(
    F: LaurentSeries, f_series: tuple, *, _cache: Optional[dict] = None
) -> FExpression:
    """Write F as constant + combination of {f5 f3^k, f4 f3^k, f3^(k+1)}.

    For F of pole order n, u = 1/f3 and T = s*b >= n // 3, G = F u^T is the
    sum of u^(T-t) (a_t + b_t f4 u + c_t f5 u), with a_t, b_t, c_t the
    coefficients of f3^t, f4 f3^(t-1), f5 f3^(t-1). Each of b blocks reads
    s digits off the q^-2 ... q^(3s-3) coefficients of G, top pole order
    first, subtracts them times u^j (1, f4 u, f5 u) and multiplies the rest
    by f3^s (baby-step giant-step Horner; Paterson and Stockmeyer, 1973).
    What is left is a constant plus a tail that must vanish to the
    precision: the least over F and the elements of nonzero coefficient,
    each as k products by f3 build it. G is one list of integer numerators
    over a running common denominator, updated in place. _cache holds the
    tables shared by reductions against one basis, and in "s" the digits
    per block (isqrt(n // 3) when fresh).
    """
    polys = ([], [], [])
    val, nums, den, prec = F.val, F.nums, F.den, F.prec
    n = -val
    if nums and n >= 3:
        cache = _cache if _cache is not None else {}
        s = cache.setdefault("s", isqrt(n // 3))
        babies, f3s, upow = _tables(f_series, cache)
        b = -(-(n // 3) // s)
        while len(upow) < b:
            upow.append(upow[-1] * upow[0])
        # the precision once the top element is subtracted; G is needed
        # below q^(prec + 3T) to leave the residual right below q^prec
        prec = min(prec, _element_precision(n % 3, n // 3 - 1, f_series))
        out_len = prec + n
        nums = [0] * (3 * s * b - n + 2) + convolve(
            nums[:out_len], upow[b - 1].nums, out_len
        )  # nums[i] is the q^(i - 2) coefficient of G
        den *= upow[b - 1].den
        for T in range(s * b, 0, -s):
            for x in range(-2, 3 * s - 2):
                order = 3 * T - x
                if -order >= prec:
                    raise _too_short(prec)
                if not nums[x + 2]:
                    continue
                g, k = order % 3, order // 3 - 1
                c = Fraction(nums[x + 2], den)
                poly = polys[g]
                poly.extend([Fraction(0)] * (k + 1 - len(poly)))
                poly[k] = c
                prec = min(prec, _element_precision(g, k, f_series))
                m = babies[x + 2]
                new_den = lcm(den, c.denominator * m.den)
                if new_den != den:
                    nums = [v * (new_den // den) for v in nums]
                    den = new_den
                factor = c.numerator * (den // (c.denominator * m.den))
                nums[x + 2 :] = [v - factor * t for v, t in zip(nums[x + 2 :], m.nums)]
            nums = convolve(nums[3 * s :], f3s.nums, prec + 3 * (T - s) + 2)
            den *= f3s.den
        val = -2
    lead = 0
    while lead < len(nums) and not nums[lead]:
        lead += 1
    if lead < len(nums) and val + lead < 0:
        raise InputError(
            f"pole order {-(val + lead)} reached; input is not a function with "
            "poles only above x = infinity"
        )
    if prec < 9:
        raise _too_short(prec)
    for k in range(max(1, val), prec):
        if nums[k - val]:
            c = Fraction(nums[k - val], den)
            raise InconsistentDatasetError(
                f"residual tail has nonzero q^{k} coefficient {c}"
            )
    constant = Fraction(nums[-val], den) if val <= 0 else Fraction(0)
    return FExpression(constant, tuple(map(tuple, polys)))


def j_expression(ctx: LevelContext, i: int) -> FExpression:
    """J_i in the f3, f4, f5 basis, as from_data reduced it."""
    if not 1 <= i <= ctx.m:
        raise InputError(f"index {i} outside 1..{ctx.m}")
    return ctx.expressions[i - 1]


# ---------------------------------------------------------------------------
# evaluation


def _horner(coeffs: list, p: int, q: int) -> Fraction:
    """sum(coeffs[k] * (p/q)**k) by integer Horner over one denominator."""
    den = lcm(*(c.denominator for c in coeffs))
    acc = 0
    qpow = 1
    for c in reversed(coeffs):
        acc = acc * p + c.numerator * (den // c.denominator) * qpow
        qpow *= q
    return Fraction(acc, den * q ** (len(coeffs) - 1))


def evaluate_expression(e: FExpression, fvals) -> Fraction:
    """Substitute point values (f3, f4, f5); at inf' only the constant survives.

    Each P_g is evaluated by integer Horner at f3 = p/q.
    """
    f3v = Fraction(fvals[0])
    total = e.constant
    for v, poly in zip(fvals, e.polys):
        if poly:
            total += Fraction(v) * _horner(poly, f3v.numerator, f3v.denominator)
    return total


def j_polynomial_at_point(ctx: LevelContext, p: CurvePoint) -> tuple:
    """Monic degree-m polynomial (coefficients constant-first) whose roots
    are the j-invariants attached to the point."""
    if p.kind == "infinity_plus":
        raise InputError("the cusp does not carry j-invariants")
    fvals = evaluate_f(ctx.generators, p)
    coeffs = [Fraction(0)] * ctx.m + [Fraction(1)]
    for i in range(1, ctx.m + 1):
        value = evaluate_expression(j_expression(ctx, i), fvals)
        coeffs[ctx.m - i] = value if i % 2 == 0 else -value
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# point reports


class FactorReport(Value):
    """One irreducible factor of a j-polynomial, with its field and CM."""

    # roots: exact presentations (Fraction | MultiQuadElement), () when the
    # field is opaque; cm: the CM discriminant, or None
    __slots__ = ("poly", "multiplicity", "roots", "cm")

    @property
    def field_kind(self) -> str:
        """Opaque without exact roots, otherwise told apart by the degree."""
        if not self.roots:
            return "opaque"
        return {1: "rational", 2: "quadratic"}.get(self.poly.degree, "multiquadratic")

    @property
    def generators(self) -> tuple:
        """Squarefree radicands of a quadratic or multiquadratic field, else ()."""
        if self.roots and self.poly.degree > 1:
            return self.roots[0].generators
        return ()


class PointReport(Value):
    """Everything the pipeline derives at one rational point."""

    # j_coefficients: monic, constant term first
    __slots__ = ("level", "point", "j_coefficients", "factors")


def _exact_roots(f: IntPolynomial) -> tuple:
    """Exact roots: the rational one, both surds, or a primitive element, else ()."""
    if f.degree == 1:
        c0, c1 = f.coeffs
        return (Fraction(-c0, c1),)
    if f.degree == 2:
        return quadratic_surd_roots(f)
    if f.degree in (4, 8, 16):
        elem = identify_multiquadratic(f)
        if elem is not None:
            return (elem,)
    return ()


def _check_roots(f: IntPolynomial, roots: tuple) -> None:
    """Every claimed root, rational or field element, must satisfy its factor."""
    for r in roots:
        if f(r):
            raise QstarError(f"claimed root {r} does not satisfy {poly_str(f)}")


def _check_product(factors: tuple, monic_coeffs: tuple) -> None:
    """The factorization must multiply back to the monic j-polynomial."""
    prod = IntPolynomial((1,))
    for fr in factors:
        for _ in range(fr.multiplicity):
            prod = prod * fr.poly
    if tuple(Fraction(c, prod.leading) for c in prod.coeffs) != tuple(monic_coeffs):
        raise QstarError("factors do not multiply back to the j-polynomial")


def point_report(ctx: LevelContext, p: CurvePoint) -> PointReport:
    """Derive, factor, and identify the j-polynomial at one point."""
    coeffs = j_polynomial_at_point(ctx, p)
    den = lcm(*(c.denominator for c in coeffs))
    ipoly = IntPolynomial([int(c * den) for c in coeffs])
    factors = []
    for f, mult in factor_rational(ipoly):
        roots = _exact_roots(f)
        _check_roots(f, roots)
        # CM j-invariants are algebraic integers: only monic factors qualify
        cm = identify_cm(f) if f.is_monic() else None
        factors.append(FactorReport(f, mult, roots, cm))
    factors = tuple(factors)
    _check_product(factors, coeffs)
    return PointReport(ctx.level, p, coeffs, factors)


# ---------------------------------------------------------------------------
# expression serialization


def expression_to_json(e: FExpression) -> dict:
    """The nonzero terms by descending pole order 3 + g + 3k."""
    terms = sorted(
        (
            (3 + g + 3 * k, g, k, c)
            for g, poly in enumerate(e.polys)
            for k, c in enumerate(poly)
            if c
        ),
        reverse=True,
    )
    return {
        "constant": str(e.constant),
        "terms": [
            {"k": str(k), "gen": f"f{3 + g}", "coeff": str(c)} for _, g, k, c in terms
        ],
    }
