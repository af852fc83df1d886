"""Symmetric functions of {j(dz) : d | N} in the f-monomial basis.

The elementary symmetric functions J_1 ... J_m of the modular j-invariants
at the divisor scalings of z are holomorphic away from one cusp, so each is
a linear combination of the monomials {f5 f3^k, f4 f3^k, f3^(k+1)} plus a
constant.  The combination is found by greedy pole-order reduction (each
basis monomial has a distinct pole order, making the system triangular) and
certified by the vanishing of the residual tail.  Evaluating the
combinations at a rational point of the sextic model and assembling
z^m + sum (-1)^i J_i z^(m-i) gives the monic polynomial whose roots are the
j-invariants attached to that point.  point_report factors that
polynomial over Q, identifies the field and the CM discriminant of each
factor, and checks its own claims exactly before returning them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Optional

from .algnum import (
    IntPolynomial,
    factor_rational,
    identify_multiquadratic,
    poly_str,
    quadratic_surd_roots,
)
from .cm import identify_cm
from .errors import (
    InconsistentDatasetError,
    InputError,
    InsufficientPrecisionError,
    QstarError,
)
from .hyperelliptic import (
    CurvePoint,
    FGenerators,
    Monomial,
    SexticCurve,
    evaluate_f,
    monomial_for_order,
    rr_generators,
)
from .modular import ModularDataset, coordinate_series, derive_equation
from .series import LaurentSeries, j_expansion

__all__ = [
    "FExpression",
    "LevelContext",
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


@dataclass(frozen=True)
class FExpression:
    """constant + sum of coeff * (gen * f3^k) over basis monomials."""

    constant: Fraction
    terms: tuple  # ((Monomial, Fraction), ...) by descending pole order

    def __post_init__(self):
        object.__setattr__(self, "constant", Fraction(self.constant))
        seen = set()
        for mono, coeff in self.terms:
            if not isinstance(mono, Monomial):
                raise InputError("terms must be keyed by basis monomials")
            if coeff == 0:
                raise InputError("zero coefficients may not be stored")
            if mono in seen:
                raise InputError(f"duplicate monomial {mono}")
            seen.add(mono)
        ordered = tuple(
            sorted(self.terms, key=lambda t: -t[0].pole_order)
        )
        object.__setattr__(self, "terms", ordered)

    def coefficient(self, mono: Monomial) -> Fraction:
        for m, c in self.terms:
            if m == mono:
                return c
        return Fraction(0)

    def __str__(self):
        parts = []
        for mono, c in self.terms:
            parts.append(f"{c}*{mono}" if c != 1 else str(mono))
        parts.append(str(self.constant))
        return " + ".join(parts).replace("+ -", "- ")


def _divisors_squarefree(n: int) -> tuple:
    """The divisors of a square-free n, ascending."""
    out = [1]
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            out.extend(d * p for d in list(out))
        p += 1
    if m > 1:
        out.extend(d * m for d in list(out))
    return tuple(sorted(out))


def required_precision(level: int) -> int:
    """Dataset precision needed to run the pipeline at this square-free level."""
    return sum(_divisors_squarefree(level)) + PRECISION_MARGIN


@dataclass(frozen=True)
class LevelContext:
    """Immutable bundle of everything the pipeline needs for one level.

    Built only by from_data, which derives the sextic model from the dataset
    and expands its generators f3, f4, f5 as q-series.
    """

    dataset: ModularDataset
    divisors: tuple
    curve: SexticCurve
    generators: FGenerators
    f_series: tuple  # (f3, f4, f5) LaurentSeries
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

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
        fs = []
        for i, g in enumerate((gens.f3, gens.f4, gens.f5), start=3):
            s = g.evaluate_series(x, y)
            assert s.val == -i and s.coeff(-i) == 1, f"f{i} normalization broke"
            fs.append(s)
        return cls(
            dataset=dataset,
            divisors=_divisors_squarefree(dataset.level),
            curve=curve,
            generators=gens,
            f_series=tuple(fs),
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
# greedy reduction into the monomial basis


def _monomial_series(mono: Monomial, fs: tuple, cache: dict) -> LaurentSeries:
    if mono in cache:
        return cache[mono]
    if mono.k == 0:
        s = fs[{"f3": 0, "f4": 1, "f5": 2}[mono.gen]]
    else:
        s = _monomial_series(Monomial(mono.gen, mono.k - 1), fs, cache) * fs[0]
    cache[mono] = s
    return s


def express_in_basis(
    F: LaurentSeries, f_series: tuple, *, _cache: Optional[dict] = None
) -> FExpression:
    """Write F as constant + combination of {f5 f3^k, f4 f3^k, f3^(k+1)}.

    Greedy: each basis monomial has a distinct pole order, so repeatedly
    subtracting (leading coefficient) * (monomial of that order) terminates
    at a constant; the remaining tail must vanish to the available precision.
    """
    cache = _cache if _cache is not None else {}
    terms = []
    cur = F
    while not cur.is_zero() and cur.val < 0:
        order = -cur.val
        if order in (1, 2):
            raise InputError(
                f"pole order {order} reached; input is not a function with "
                "poles only above x = infinity"
            )
        mono = monomial_for_order(order)
        c = cur.coeff(cur.val)
        terms.append((mono, c))
        cur = cur - _monomial_series(mono, f_series, cache).scale(c)
    if cur.prec < 9:
        raise InsufficientPrecisionError(
            "fewer than 8 positive-exponent coefficients remain to certify "
            f"the reduction (precision O(q^{cur.prec}))"
        )
    constant = cur.coeff(0)
    for k in range(1, cur.prec):
        if cur.coeff(k):
            raise InconsistentDatasetError(
                f"residual tail has nonzero q^{k} coefficient {cur.coeff(k)}"
            )
    return FExpression(constant=constant, terms=tuple(terms))


def j_expression(ctx: LevelContext, i: int) -> FExpression:
    """J_i in the monomial basis, cached on the context."""
    key = ("expr", i)
    if key not in ctx._cache:
        fs_cache = ctx._cache.setdefault("monomials", {})
        expr = express_in_basis(
            symmetric_j_series(ctx, i), ctx.f_series, _cache=fs_cache
        )
        ctx._cache[key] = expr
    return ctx._cache[key]


# ---------------------------------------------------------------------------
# evaluation


def evaluate_expression(e: FExpression, fvals) -> Fraction:
    """Substitute point values (f3, f4, f5); at inf' only the constant survives."""
    f3v, f4v, f5v = (Fraction(v) for v in fvals)
    gen_val = {"f3": f3v, "f4": f4v, "f5": f5v}
    total = e.constant
    for mono, c in e.terms:
        total += c * gen_val[mono.gen] * f3v**mono.k
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


@dataclass(frozen=True)
class FactorReport:
    """One irreducible factor of a j-polynomial, with its field."""

    poly: IntPolynomial
    multiplicity: int
    field_kind: str  # "rational" | "quadratic" | "multiquadratic" | "opaque"
    generators: tuple  # squarefree radicands when the field is identified
    roots: tuple  # exact presentations (Fraction | MultiQuadElement)


@dataclass(frozen=True)
class PointReport:
    """Everything the pipeline derives at one rational point."""

    level: int
    point: CurvePoint
    j_coefficients: tuple  # monic, constant term first
    factors: tuple
    cm_entries: tuple  # Optional[int] discriminant per factor
    timing: float


def _field_and_roots(f: IntPolynomial):
    """Identify the field cut out by an irreducible factor, with exact roots."""
    if f.degree == 1:
        c0, c1 = f.coeffs
        return "rational", (), (Fraction(-c0, c1),)
    if f.degree == 2:
        root, conj = quadratic_surd_roots(f)
        return "quadratic", root.generators, (root, conj)
    if f.degree in (4, 8, 16):
        elem = identify_multiquadratic(f)
        if elem is not None:
            return "multiquadratic", tuple(elem.generators), (elem,)
    return "opaque", (), ()


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
    t0 = time.perf_counter()
    coeffs = j_polynomial_at_point(ctx, p)
    den = lcm(*(c.denominator for c in coeffs))
    ipoly = IntPolynomial([int(c * den) for c in coeffs])
    factors = []
    cm_entries = []
    for f, mult in factor_rational(ipoly):
        kind, gens, roots = _field_and_roots(f)
        _check_roots(f, roots)
        factors.append(FactorReport(f, mult, kind, gens, roots))
        # CM j-invariants are algebraic integers: only monic factors qualify
        cm_entries.append(identify_cm(f) if f.is_monic() else None)
    factors = tuple(factors)
    _check_product(factors, coeffs)
    return PointReport(
        level=ctx.level,
        point=p,
        j_coefficients=coeffs,
        factors=factors,
        cm_entries=tuple(cm_entries),
        timing=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# expression serialization


def expression_to_json(e: FExpression) -> dict:
    return {
        "constant": str(e.constant),
        "terms": [
            {"k": mono.k, "gen": mono.gen, "coeff": str(c)} for mono, c in e.terms
        ],
    }
