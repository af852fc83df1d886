"""Command-line frontend tying the package together.

Subcommands: derive-equation, express-j, pipeline, search-points,
identify-cm, validate-all.  Every command prints one canonical JSON
document on stdout (search-points defaults to plain text; pass --json)
with insertion-ordered keys and every number rendered as an exact
decimal/fraction string, so reruns are bit-identical byte for byte.
``--out FILE`` additionally writes an envelope ``{"format", "data",
"meta"}`` whose meta section carries wall-clock timings; timings never
appear in the data section.

Exit codes: 0 success; 2 validation mismatch, or a report that failed its
own exact checks; 3 malformed input; 4 precision or size budget exceeded.

Polynomial coefficients are typed on the command line leading term
first (the way they are written on paper: ``--minpoly 1 -54000`` is
x - 54000); JSON output lists coefficients ascending, constant term
first, matching the bundled data files.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .algnum import (
    IntPolynomial,
    MultiQuadElement,
    field_label,
    poly_str,
    squarefree_kernel,
)
from .cm import class_polynomial, identify_cm
from .errors import (
    DatasetError,
    FactorizationError,
    InconsistentDatasetError,
    InputError,
    InsufficientPrecisionError,
    NonIntegralCoefficientError,
    PrecisionError,
    QstarError,
    SeriesPrecisionError,
)
from .fixtures import load_table
from .hyperelliptic import INF_MINUS, CurvePoint, SexticCurve, search_points
from .jpipeline import (
    LevelContext,
    PointReport,
    divisors,
    j_expression,
    expression_to_json,
    point_report,
)
from .modular import (
    ModularDataset,
    bundled_dataset_levels,
    dataset_fields,
    derive_equation,
    load_dataset,
    validate_dataset,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_MISMATCH = 2
EXIT_INPUT = 3
EXIT_PRECISION = 4

# levels whose divisor sum exceeds this must be requested explicitly with
# --allow-large; on 2 cores, pipeline --height 100 took 0.8 s (level 165,
# divisor sum 288) and 2.3-2.4 s (level 357, 576); 390 (1008) is unmeasured
SIGMA_BUDGET = 150

DEFAULT_HEIGHT = 100


# ---------------------------------------------------------------------------
# parsing and rendering helpers


def _point_json(p: CurvePoint) -> dict:
    if p.kind == "affine":
        return {"kind": "affine", "x": str(p.x), "y": str(p.y)}
    return {"kind": "inf+" if p.kind == "infinity_plus" else "inf-"}


def _parse_point(text: str, curve: SexticCurve) -> CurvePoint:
    t = text.strip()
    if t == "inf-":
        return INF_MINUS
    if t == "inf+":
        raise InputError("the cusp inf+ carries no j-invariants")
    parts = t.split(",")
    if len(parts) != 2:
        raise InputError(f"point must be 'x,y' or 'inf-', got {text!r}")
    try:
        x, y = Fraction(parts[0].strip()), Fraction(parts[1].strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad point coordinates {text!r}: {exc}") from exc
    return curve.point(x, y)  # validates membership


def _parse_coeff_args(tokens, what: str) -> list:
    """Leading-to-constant command-line coefficients as exact rationals."""
    out = []
    for tok in tokens:
        try:
            out.append(Fraction(tok))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad {what} coefficient {tok!r}: {exc}") from exc
    return out


# ---------------------------------------------------------------------------
# rendering point reports


def _root_json(r) -> dict:
    if isinstance(r, Fraction):
        return {"kind": "rational", "value": str(r)}
    if isinstance(r, MultiQuadElement) and r.k == 1:
        (d,), (a, b) = r.generators, r.coords
        return {
            "kind": "surd",
            "a": str(a),
            "b": str(b),
            "d": str(d),
            "display": f"{a} {'-' if b < 0 else '+'} {abs(b)}*sqrt({d})",
        }
    if isinstance(r, MultiQuadElement):
        return {
            "kind": "multiquadratic",
            "generators": [str(g) for g in r.generators],
            "coordinates": [str(c) for c in r.coords],
        }
    raise QstarError(f"unknown root presentation {r!r}")


def _field_json(kind: str, gens: tuple, f: IntPolynomial) -> dict:
    if kind == "rational":
        return {"kind": "rational", "display": field_label(())}
    if kind in ("quadratic", "multiquadratic"):
        return {
            "kind": kind,
            "generators": [str(g) for g in gens],
            "display": field_label(gens),
        }
    return {"kind": "opaque", "minimal_polynomial": [str(c) for c in f.coeffs]}


def _report_data(r: PointReport) -> dict:
    return {
        "level": str(r.level),
        "point": _point_json(r.point),
        "j_polynomial": {
            "variable": "z",
            "coefficients": [str(c) for c in r.j_coefficients],
        },
        "factors": [
            {
                "degree": str(f.poly.degree),
                "multiplicity": str(f.multiplicity),
                "coefficients": [str(c) for c in f.poly.coeffs],
                "display": poly_str(f.poly, "z"),
                "field": _field_json(f.field_kind, f.generators, f.poly),
                "roots": [_root_json(root) for root in f.roots],
            }
            for f in r.factors
        ],
        "cm_entries": [str(f.cm) if f.cm is not None else None for f in r.factors],
    }


# ---------------------------------------------------------------------------
# shared command plumbing


def _emit(data: dict, meta: Optional[dict] = None, out: Optional[str] = None) -> None:
    sys.stdout.write(json.dumps(data, indent=2) + "\n")
    if out:
        envelope = {"format": 1, "data": data, "meta": meta or {}}
        Path(out).write_text(json.dumps(envelope, indent=2) + "\n")


def _load_dataset_arg(arg: str, allow_large: Optional[bool] = None) -> ModularDataset:
    """A bundled level number, or a path to a dataset JSON file.

    The commands under the divisor-sum budget pass allow_large."""
    path = Path(arg)
    if path.exists():
        try:
            obj = json.loads(path.read_text())
        except ValueError as exc:  # also over-long integers and non-UTF-8 bytes
            raise DatasetError(f"{path}: not valid JSON: {exc}") from exc
        fields = dataset_fields(obj)
        if allow_large is not None:
            _refuse_before_factoring(*fields[:2], allow_large)
        return ModularDataset(*fields)
    if arg.isdigit():
        return load_dataset(int(arg))
    raise DatasetError(f"no such dataset file or bundled level: {arg}")


def _refuse_before_factoring(level: int, precision: int, allow_large: bool) -> None:
    """Refuse a level that only Pollard rho could split, if the budget would.

    sigma(N) >= N + 1, so without --allow-large N >= SIGMA_BUDGET fails the
    divisor-sum refusal, and a precision below N + 13 fails
    required_precision (sigma + 12), whatever the factors of N.
    """
    if level < SIGMA_BUDGET or (allow_large and precision >= level + 13):
        return
    try:
        squarefree_kernel(level, budget=0)
    except FactorizationError:  # only Pollard rho could split the level
        if not allow_large:
            raise PrecisionError(
                f"level {level} has divisor sum > {level} >= {SIGMA_BUDGET}; "
                "this is a long-running job, pass --allow-large to proceed"
            ) from None
        raise InsufficientPrecisionError(
            f"level {level} needs dataset precision > {level + 12}, got {precision}"
        ) from None


def _require_pipeline_budget(data: ModularDataset, allow_large: bool) -> None:
    """Refuse a large level before any series work unless --allow-large."""
    sigma = sum(divisors(data.level))
    if sigma > SIGMA_BUDGET and not allow_large:
        raise PrecisionError(
            f"level {data.level} has divisor sum {sigma} > {SIGMA_BUDGET}; "
            "this is a long-running job, pass --allow-large to proceed"
        )


def _curve_json(curve: SexticCurve) -> dict:
    return {
        "coefficients": [str(c) for c in curve.f_coeffs()],
        "display": str(curve),
    }


# ---------------------------------------------------------------------------
# subcommands


def cmd_derive_equation(args) -> int:
    data_set = _load_dataset_arg(args.dataset)
    t0 = time.perf_counter()
    curve = derive_equation(data_set)
    data = {"level": str(data_set.level), "curve": _curve_json(curve)}
    status = EXIT_OK
    if args.check_table:
        table = load_table()
        if data_set.level not in table:
            raise InputError(f"no bundled reference model for level {data_set.level}")
        report = validate_dataset(data_set, table[data_set.level].curve)
        data["table_check"] = {
            "matches": report.matches,
            "extra_verified": str(report.extra_verified),
            "low_margin": report.low_margin,
        }
        if not report.matches:
            status = EXIT_MISMATCH
    meta = {"command": "derive-equation", "elapsed_seconds": f"{time.perf_counter() - t0:.6f}"}
    _emit(data, meta, args.out)
    return status


def cmd_express_j(args) -> int:
    data_set = _load_dataset_arg(args.dataset, args.allow_large)
    _require_pipeline_budget(data_set, args.allow_large)
    t0 = time.perf_counter()
    ctx = LevelContext.from_data(data_set)
    if args.index is not None:
        if not 1 <= args.index <= ctx.m:
            raise InputError(f"index must be between 1 and {ctx.m} for level {ctx.level}")
        indices = [args.index]
    else:
        indices = list(range(1, ctx.m + 1))
    expressions = []
    for i in indices:
        entry = {"i": str(i)}
        entry.update(expression_to_json(j_expression(ctx, i)))
        expressions.append(entry)
    data = {
        "level": str(ctx.level),
        "m": str(ctx.m),
        "sigma": str(ctx.sigma),
        "curve": _curve_json(ctx.curve),
        "expressions": expressions,
    }
    meta = {"command": "express-j", "elapsed_seconds": f"{time.perf_counter() - t0:.6f}"}
    _emit(data, meta, args.out)
    return EXIT_OK


def cmd_pipeline(args) -> int:
    data_set = _load_dataset_arg(args.dataset, args.allow_large)
    _require_pipeline_budget(data_set, args.allow_large)
    t0 = time.perf_counter()
    ctx = LevelContext.from_data(data_set)
    if args.point is not None:
        points = [_parse_point(args.point, ctx.curve)]
        source = "given"
    else:
        points = [
            p for p in search_points(ctx.curve, args.height)
            if p.kind != "infinity_plus"
        ]
        source = "search"
    reports, seconds = [], []
    for p in points:
        t = time.perf_counter()
        reports.append(point_report(ctx, p))
        seconds.append(f"{time.perf_counter() - t:.6f}")
    data = {
        "level": str(ctx.level),
        "curve": _curve_json(ctx.curve),
        "point_source": source,
        "reports": [_report_data(r) for r in reports],
    }
    if source == "search":
        data["height"] = str(args.height)
    meta = {
        "command": "pipeline",
        "elapsed_seconds": f"{time.perf_counter() - t0:.6f}",
        "per_report_seconds": seconds,
    }
    _emit(data, meta, args.out)
    return EXIT_OK


def cmd_search_points(args) -> int:
    if (args.level is None) == (args.equation is None):
        raise InputError("give exactly one of --level or --equation")
    if args.level is not None:
        table = load_table()
        if args.level not in table:
            raise InputError(f"unknown level {args.level}")
        fixture = table[args.level]
        curve, complete = fixture.curve, fixture.points_complete
        head = {"level": str(args.level)}
    else:
        coeffs = _parse_coeff_args(args.equation, "equation")
        if len(coeffs) != 7:
            raise InputError("equation needs 7 coefficients (leading term first)")
        if coeffs[0] != 1:
            raise InputError("equation must be monic (leading coefficient 1)")
        curve = SexticCurve.from_coeffs(list(reversed(coeffs[1:])))
        complete = False
        head = {"equation": _curve_json(curve)}
    points = search_points(curve, args.height)
    affine = sum(1 for p in points if p.kind == "affine")
    data = dict(head)
    data.update(
        {
            "height": str(args.height),
            "count": str(len(points)),
            "points": [_point_json(p) for p in points],
            "complete": complete,
        }
    )
    if complete:
        data["annotation"] = "provably complete per bundled reference table"
    if args.json:
        _emit(data)
    else:
        for p in points:
            print(p)
        summary = f"{len(points)} points ({affine} affine, {len(points) - affine} at infinity)"
        if complete:
            summary += "; " + data["annotation"]
        print(summary)
    return EXIT_OK


def cmd_identify_cm(args) -> int:
    coeffs = _parse_coeff_args(args.minpoly, "minpoly")
    if any(c.denominator != 1 for c in coeffs):
        raise InputError("minimal polynomial must have integer coefficients")
    g = IntPolynomial([int(c) for c in reversed(coeffs)])
    if not g.is_monic():
        raise InputError("minimal polynomial must be monic")
    discriminant = identify_cm(g)
    data = {"input": poly_str(g)}
    if discriminant is None:
        data["match"] = None
        data["message"] = "no CM match"
    else:
        echo = class_polynomial(discriminant)  # cached by identify_cm's build
        data["match"] = {
            "D": str(discriminant),
            "class_polynomial": poly_str(echo.poly),
            "certified": echo.certified,
        }
    _emit(data)
    return EXIT_OK


def cmd_validate_all(args) -> int:
    levels = bundled_dataset_levels()
    table = load_table()
    reports = [validate_dataset(load_dataset(n), table[n].curve) for n in levels]
    per_level = {}
    all_match = True
    for level, report in zip(levels, reports):
        per_level[str(level)] = {
            "matches": report.matches,
            "derived": [str(c) for c in report.derived] if report.derived else None,
            "extra_verified": str(report.extra_verified),
            "low_margin": report.low_margin,
            "error": report.error,
        }
        all_match = all_match and report.matches
    data = {"levels": per_level, "all_match": all_match}
    _emit(data)
    return EXIT_OK if all_match else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# parser / entry point


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors use the input-error exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qstar",
        description="Genus-2 quotient models, j-invariant pipelines, and CM lookup.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "derive-equation",
        help="derive the sextic model from a q-expansion dataset",
        parents=[],
    )
    p.add_argument("dataset", help="dataset file path, or a bundled level number")
    p.add_argument(
        "--check-table",
        action="store_true",
        help="compare against the bundled reference model (exit 2 on mismatch)",
    )
    p.add_argument("--out", help="also write {data, meta} envelope to this file")
    p.set_defaults(func=cmd_derive_equation)

    p = sub.add_parser(
        "express-j", help="dump the symmetric j-function basis expressions"
    )
    p.add_argument("dataset", help="dataset file path, or a bundled level number")
    p.add_argument("--index", type=int, help="dump J_i only (1-based)")
    p.add_argument(
        "--allow-large", action="store_true", help="permit levels with divisor sum > 150"
    )
    p.add_argument("--out", help="also write {data, meta} envelope to this file")
    p.set_defaults(func=cmd_express_j)

    p = sub.add_parser(
        "pipeline",
        help="derive the model, find points, factor and identify the j-polynomials",
    )
    p.add_argument("dataset", help="dataset file path, or a bundled level number")
    p.add_argument(
        "--height",
        type=int,
        default=DEFAULT_HEIGHT,
        help=f"numerator/denominator bound for the point search (default {DEFAULT_HEIGHT})",
    )
    p.add_argument("--point", help="report a single point: 'x,y' or 'inf-'")
    p.add_argument(
        "--allow-large", action="store_true", help="permit levels with divisor sum > 150"
    )
    p.add_argument("--out", help="also write {data, meta} envelope to this file")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("search-points", help="height-bounded rational point search")
    p.add_argument("--level", type=int, help="use the bundled model for this level")
    p.add_argument(
        "--equation",
        nargs=7,
        metavar="C",
        help="monic sextic coefficients, leading term first",
    )
    p.add_argument("--height", type=int, default=DEFAULT_HEIGHT)
    p.add_argument("--json", action="store_true", help="JSON instead of text lines")
    p.set_defaults(func=cmd_search_points)

    p = sub.add_parser(
        "identify-cm", help="match a monic integer polynomial against class polynomials"
    )
    p.add_argument(
        "--minpoly",
        nargs="+",
        required=True,
        metavar="C",
        help="coefficients, leading term first (degree 1 through 16)",
    )
    p.set_defaults(func=cmd_identify_cm)

    p = sub.add_parser(
        "validate-all", help="check every bundled dataset against the reference models"
    )
    p.set_defaults(func=cmd_validate_all)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InconsistentDatasetError, NonIntegralCoefficientError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (InsufficientPrecisionError, SeriesPrecisionError, PrecisionError,
            FactorizationError) as exc:
        print(f"precision error: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except (InputError, DatasetError, OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except QstarError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
