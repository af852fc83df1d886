#!/usr/bin/env python3
"""Verify src/qstar/data/cm_tables.json against the class polynomials.

The file records, for every genus-two level, the known CM data at each
rational point: the discriminant list, the exact j-invariants (rational,
quadratic surd, or a field presentation for higher degree), and the cell
text as printed in the source tables.  Cells whose printed content is
internally inconsistent carry an ``anomaly`` note; the stored values are
the corrected ones.  The file is the only copy of the table and is edited
by hand.  This tool reads it through ``qstar.fixtures.load_cm_table`` and
re-verifies every CM cell against the class polynomial; it writes nothing.

To add a row or an anomaly note, edit cm_tables.json directly.  Keep its
layout: ``json.dumps(doc, indent=1)`` plus a final newline, levels in
ascending order, and row keys in the order point, cm, D, j, display, then
``anomaly`` if present, then ``as_printed`` if present.  A surd cell
stores the conjugate with positive surd part.  Then run, from the
repository root:

    python3 tools/check_cm_tables.py

It prints each problem and exits 1, or prints a summary and exits 0.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache
from math import prod
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qstar.algnum import (
    MultiQuadElement,
    identify_multiquadratic,
    prime_factors,
    squarefree_kernel,
)
from qstar.cm import class_number, class_polynomial, one_class_per_genus
from qstar.fixtures import load_cm_table


def _span(gens) -> frozenset:
    """F2-span of squarefree kernels, excluding 1."""
    span = {1}
    for g in gens:
        k = squarefree_kernel(g)[0]
        span |= {squarefree_kernel(k * s)[0] for s in span}
    return frozenset(span - {1})


def _is_fundamental(d: int) -> bool:
    if d % 4 == 1:
        return squarefree_kernel(d)[1] == 1
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and squarefree_kernel(m)[1] == 1
    return False


def _genus_real_span(d: int) -> frozenset:
    """Positive square classes of the genus field of a fundamental d < 0.

    d factors uniquely into prime discriminants; the field generated by a
    root of the class polynomial (real, since every genus has one class)
    is the real subfield of the genus field, i.e. the positive part of the
    span of those prime discriminants.
    """
    discs = [p if p % 4 == 1 else -p for p in prime_factors(-d) if p > 2]
    rem = d // prod(discs)
    if rem != 1:
        if rem not in (-4, 8, -8):
            raise ValueError(f"{d} is not a prime-discriminant product")
        discs.append(rem)
    return frozenset(x for x in _span(discs) if x > 1)


@lru_cache(maxsize=None)
def _check_cell(d: int, j):
    """Verify one (discriminant, value) cell; returns None or a problem.

    ``j`` is a parsed value: a Fraction, a MultiQuadElement over one
    quadratic field, or the tuple of generators of the field j generates.
    """
    if not one_class_per_genus(d):
        return f"D={d} has a genus with several classes"
    h = class_number(d)
    poly = class_polynomial(d).poly
    if isinstance(j, Fraction):
        if h != 1 or poly(j) != 0:
            return f"{j} is not the D={d} invariant"
    elif isinstance(j, MultiQuadElement):
        if h != 2 or poly(j):
            return f"surd is not a root of H({d})"
    else:
        gens = j
        if h != 2 ** len(gens):
            return f"h({d})={h} != 2^{len(gens)}"
        if _is_fundamental(d) and _span(gens) != _genus_real_span(d):
            return f"gens {gens} do not match the genus field of {d}"
        mq = identify_multiquadratic(poly)
        if mq is None or _span(mq.generators) != _span(gens):
            return f"field of H({d}) is not Q(sqrt {gens})"
    return None


def verify() -> list[str]:
    problems = []
    for level, rows in sorted(load_cm_table().items()):
        for r in rows:
            where = f"{level} {r.point}"
            ds, js = r.discriminants, r.j_values
            for j in js:
                if isinstance(j, MultiQuadElement) and j.coords[1] <= 0:
                    problems.append(f"{where}: stored surd part {j.coords[1]} is not positive")
            if r.cm and (not ds or len(ds) != len(js)):
                problems.append(f"{where}: D/j length mismatch")
                continue
            if not r.cm and ds:
                problems.append(f"{where}: non-CM row carries D")
                continue
            if r.as_printed:
                continue
            for d, j in zip(ds, js):
                p = _check_cell(d, j)
                if p:
                    problems.append(f"{where}: {p}")
    return problems


def main() -> int:
    problems = verify()
    for p in problems:
        print("MISMATCH:", p)
    if problems:
        return 1
    table = load_cm_table()
    n_rows = sum(len(v) for v in table.values())
    n_flag = sum(1 for v in table.values() for r in v if r.anomaly)
    print(f"cm_tables.json: {len(table)} levels, {n_rows} rows, {n_flag} flagged, all verified")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
