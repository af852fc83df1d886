"""Symmetric functions of {j(dz) : d | N} in the f3, f4, f5 basis.

The elementary symmetric functions J_1 ... J_m of the modular j-invariants
at the divisor scalings of z are holomorphic away from one cusp, so each is
a linear combination of the basis {f5 f3^k, f4 f3^k, f3^(k+1)} plus a
constant.  The basis element of pole order n >= 3 is f(3+g) f3^k with
g = n % 3 and k = n // 3 - 1; this module is the one place that knows it.
The combination is found by greedy pole-order reduction (each basis element
has a distinct pole order, making the system triangular) and certified by
the vanishing of the residual tail.  Evaluating the
combinations at a rational point of the sextic model and assembling
z^m + sum (-1)^i J_i z^(m-i) gives the monic polynomial whose roots are the
j-invariants attached to that point.  point_report factors that
polynomial over Q, identifies the field and the CM discriminant of each
factor, and checks its own claims exactly before returning them.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
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
from .hyperelliptic import (
    CurvePoint,
    FGenerators,
    SexticCurve,
    evaluate_f,
    evaluate_f_series,
    rr_generators,
)
from .modular import ModularDataset, coordinate_series, derive_equation
from .series import LaurentSeries, j_expansion

__all__ = [
    "FExpression",
    "LevelContext",
    "divisors",
    "symmetric_j_series",
    "express_in_basis",
    "j_expression",
    "evaluate_expression",
    "j_polynomial_at_point",
    "FactorReport",
    "PointReport",
    "point_report",
    "required_precision",
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


class LevelContext(Value):
    """Immutable bundle of everything the pipeline needs for one level.

    Built only by from_data, which derives the sextic model from the dataset
    and expands its generators f3, f4, f5 as q-series.
    """

    __slots__ = ("dataset", "divisors", "curve", "generators", "f_series", "_cache")

    def __init__(
        self,
        dataset: ModularDataset,
        divisors: tuple,
        curve: SexticCurve,
        generators: FGenerators,
        f_series: tuple,  # (f3, f4, f5) LaurentSeries
    ):
        super().__init__(dataset, divisors, curve, generators, f_series, {})

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
        """Check the precision, derive the model, and expand f3, f4, f5."""
        need = required_precision(dataset.level)
        if dataset.precision < need:
            raise InsufficientPrecisionError(
                f"level {dataset.level} needs dataset precision >= {need}, "
                f"got {dataset.precision}"
            )
        curve = derive_equation(dataset)
        gens = rr_generators(curve)
        x, y = coordinate_series(dataset)  # cached by derive_equation's call
        fs = evaluate_f_series(gens, x, y)
        for i, s in enumerate(fs, start=3):
            assert s.val == -i and s.coeff(-i) == 1, f"f{i} normalization broke"
        return cls(
            dataset=dataset,
            divisors=divisors(dataset.level),
            curve=curve,
            generators=gens,
            f_series=fs,
        )


# ---------------------------------------------------------------------------
# symmetric functions of the rescaled j-expansions


def _elementary_symmetric(ctx: LevelContext) -> tuple:
    target = ctx.dataset.precision
    scaled = []
    for d in ctx.divisors:
        base = -(-target // d)
        scaled.append(j_expansion(base).rescale_exponent(d).truncate(target))
    esym = [LaurentSeries.from_fraction(1, target)]
    for t in scaled:
        esym.append(t * esym[-1])
        for i in range(len(esym) - 2, 0, -1):
            esym[i] = esym[i] + t * esym[i - 1]
    return tuple(esym[1:])


def symmetric_j_series(ctx: LevelContext, i: int) -> LaurentSeries:
    """The i-th elementary symmetric function of {j(dz) : d | N} as a series."""
    if not 1 <= i <= ctx.m:
        raise InputError(f"index {i} outside 1..{ctx.m}")
    if "esym" not in ctx._cache:
        esym = _elementary_symmetric(ctx)
        assert esym[-1].val == -ctx.sigma, "product pole order must be sigma"
        ctx._cache["esym"] = esym
    return ctx._cache["esym"][i - 1]


# ---------------------------------------------------------------------------
# greedy reduction into the basis


def _basis_series(g: int, k: int, fs: tuple, basis: tuple) -> LaurentSeries:
    """f(3+g) * f3^k; basis[g] lists those of lower k, each f3 times the last."""
    row = basis[g]
    if not row:
        row.append(fs[g])
    while len(row) <= k:
        row.append(row[-1] * fs[0])
    return row[k]


def express_in_basis(
    F: LaurentSeries, f_series: tuple, *, _cache: Optional[tuple] = None
) -> FExpression:
    """Write F as constant + combination of {f5 f3^k, f4 f3^k, f3^(k+1)}.

    Greedy: each basis element has a distinct pole order, so repeatedly
    subtracting (leading coefficient) * (element of that order) terminates
    at a constant; the remaining tail must vanish to the available precision.
    The residual is one list of integer numerators over a running common
    denominator, updated in place; only the coefficients read out become
    fractions. Its precision is the least over F and the subtracted elements.
    _cache holds the per-generator basis lists, ([], [], []) when fresh.
    """
    basis = _cache if _cache is not None else ([], [], [])
    polys = ([], [], [])
    # residual = sum(nums[i] / den * q**(val + i)) + O(q**prec)
    val, nums, den, prec = F.val, list(F.nums), F.den, F.prec
    lead = 0
    while True:
        while lead < len(nums) and not nums[lead]:
            lead += 1
        if lead == len(nums) or val + lead >= 0:
            break
        order = -(val + lead)
        if order in (1, 2):
            raise InputError(
                f"pole order {order} reached; input is not a function with "
                "poles only above x = infinity"
            )
        g, k = order % 3, order // 3 - 1
        c = Fraction(nums[lead], den)
        poly = polys[g]
        poly.extend([Fraction(0)] * (k + 1 - len(poly)))
        poly[k] = c
        m = _basis_series(g, k, f_series, basis)
        new_den = lcm(den, c.denominator * m.den)
        if new_den != den:
            nums = [n * (new_den // den) for n in nums]
            den = new_den
        factor = c.numerator * (den // (c.denominator * m.den))
        prec = min(prec, m.prec)
        del nums[prec - val :]
        nums[lead:] = [n - factor * t for n, t in zip(nums[lead:], m.nums)]
    if prec < 9:
        raise InsufficientPrecisionError(
            "fewer than 8 positive-exponent coefficients remain to certify "
            f"the reduction (precision O(q^{prec}))"
        )
    for k in range(max(1, val), prec):
        if nums[k - val]:
            c = Fraction(nums[k - val], den)
            raise InconsistentDatasetError(
                f"residual tail has nonzero q^{k} coefficient {c}"
            )
    constant = Fraction(nums[-val], den) if val <= 0 else Fraction(0)
    return FExpression(constant, tuple(map(tuple, polys)))


def j_expression(ctx: LevelContext, i: int) -> FExpression:
    """J_i in the f3, f4, f5 basis, cached on the context."""
    key = ("expr", i)
    if key not in ctx._cache:
        basis = ctx._cache.setdefault("basis", ([], [], []))
        expr = express_in_basis(symmetric_j_series(ctx, i), ctx.f_series, _cache=basis)
        ctx._cache[key] = expr
    return ctx._cache[key]


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
            {"k": k, "gen": f"f{3 + g}", "coeff": str(c)} for _, g, k, c in terms
        ],
    }
