#!/usr/bin/env python3
"""Regenerate the bundled q-expansion datasets from the fixture curves.

For each target level the weight-2 eigenvalue data is reconstructed from
point counts of the fixture sextic over F_p (trace t_p) plus, for the
leftover square-root parts, exact matching of the series relation
y^2 = f(x): each candidate value changes a known early residual
coefficient affinely, so it can be solved for and then confirmed.  The
eigenvalues are exact elements of Q(sqrt(d)) (`MultiQuadElement`), and
every residual is built with the library's own echelon form, coordinates
and relation (`qstar.modular`).  The final basis pair goes through
`echelonize` and `validate_dataset` before being written, at precision
sigma(N) + 16, to src/qstar/data/datasets/.

Levels whose two eigenvalue sequences are both rational (d = 1, e.g. 106)
are refused: they need an old form of lower level (ROADMAP.md item 3).

Usage: python3 tools/make_datasets.py [--levels 67,73,...] [--out DIR]
(--levels defaults to the bundled levels)
"""

import argparse
import json
import math
import sys
import time
from fractions import Fraction
from itertools import product, takewhile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from qstar.algnum import (  # noqa: E402
    MultiQuadElement,
    _iter_primes,
    _squarefree_mod_p,
    prime_factors,
    squarefree_kernel,
)
from qstar.errors import InputError, QstarError  # noqa: E402
from qstar.fixtures import fixture_curve  # noqa: E402
from qstar.jpipeline import divisors  # noqa: E402
from qstar.modular import (  # noqa: E402
    bundled_dataset_levels,
    coordinates,
    dataset_to_json,
    echelon_series,
    echelonize,
    relation_residual,
    validate_dataset,
)
from qstar.series import LaurentSeries  # noqa: E402


def dataset_precision(level):
    """sigma(N) + 16: enough coefficients for the j pipeline at level N."""
    return sum(divisors(level)) + 16


def eigenvalue(d, t, e=0):
    """(t + e sqrt(d)) / 2 as an element of Q(sqrt(d))."""
    return MultiQuadElement((d,), (Fraction(t, 2), Fraction(e, 2)))


def hecke_coefficients(nmax, prime_table, level):
    """a_n for 1 <= n < nmax, multiplicative with the usual p-power
    recursion at good p and a_{p^k} = a_p^k at p | level."""
    a = [None] * nmax
    a[1] = prime_table[2] ** 0
    for n in range(2, nmax):
        p, k = next(iter(prime_factors(n).items()))  # the smallest prime
        q = p**k
        m = n // q
        if m > 1:
            a[n] = a[m] * a[q]
        elif k == 1:
            a[n] = prime_table[p]
        elif level % p == 0:
            a[n] = a[p] * a[n // p]
        else:
            a[n] = a[p] * a[n // p] - a[n // (p * p)] * p
    return a


def series_pair(a):
    """Trace and normalized-difference series of the conjugate pair."""
    tr = [2 * x.coords[0] for x in a[1:]]
    df = [2 * x.coords[1] for x in a[1:]]
    for c in tr + df:
        assert c.denominator == 1, f"non-integral eigenvalue data: {c}"
    if not any(df):
        raise RuntimeError("conjugate difference vanishes identically")
    return (
        LaurentSeries(1, [int(c) for c in tr]),
        LaurentSeries(1, [int(c) for c in df]),
    )


# ---------------------------------------------------------------------------
# point counting mod p


def trace_mod_p(fc, p):
    """t_p with #C(F_p) = p + 1 - t_p; fc = (c0, ..., c5, 1), odd good p."""
    half = (p - 1) // 2
    count = 2  # the two rational points above x = infinity
    for x in range(p):
        v = 0
        for c in reversed(fc):
            v = (v * x + c) % p
        if v == 0:
            count += 1
        elif pow(v, half, p) == 1:
            count += 2
    return p + 1 - count


def norm_pair_mod_p2(fc, p):
    """(t_p, s_p): trace and product of the conjugate eigenvalues, from
    counting over F_p and F_{p^2} = F_p(sqrt(r))."""
    t = trace_mod_p(fc, p)
    half = (p - 1) // 2
    r = next(n for n in range(2, p) if pow(n, half, p) == p - 1)  # non-residue
    count = 2
    for u in range(p):
        for v in range(p):
            w0, w1 = 0, 0  # f(u + v sqrt(r)) by Horner
            for c in reversed(fc):
                w0, w1 = (w0 * u + w1 * v * r + c) % p, (w0 * v + w1 * u) % p
            # a nonzero w is a square in F_{p^2} exactly when its norm is one in F_p
            norm = (w0 * w0 - r * w1 * w1) % p
            if norm == 0:
                count += 1
            elif pow(norm, half, p) == 1:
                count += 2
    sum_alpha_sq = p * p + 1 - count
    s = (t * t - 4 * p - sum_alpha_sq) // 2
    assert (t * t - 4 * p - sum_alpha_sq) % 2 == 0
    return t, s


# ---------------------------------------------------------------------------
# residual tests against the fixture curve


def build_residual(a, fc):
    tr, df = series_pair(a)
    x, y = coordinates(*echelon_series(tr, df))
    return relation_residual(x, y, fc)


def residual_prefix(res, hi):
    """Coefficients of q^val .. q^hi (clipped to what is known)."""
    return [res.coeff(k) for k in range(res.val, min(hi, res.prec - 1) + 1)]


# ---------------------------------------------------------------------------
# per-level driver


def within_hasse(p, t, e, d):
    """|t| + |e| sqrt(d) <= 4 sqrt(p), decided in integers: with
    R = 16p - t^2 - e^2 d it holds exactly when R >= 0 and 4 t^2 e^2 d <= R^2."""
    r = 16 * p - t * t - e * e * d
    return r >= 0 and 4 * t * t * e * e * d <= r * r


def hasse_candidates(p, d):
    """All (t + e sqrt(d))/2 that are algebraic integers of Q(sqrt(d)) with
    both conjugates of absolute value <= 2 sqrt(p)."""
    tmax, emax = math.isqrt(16 * p), math.isqrt(16 * p // d)
    out = []
    for t in range(-tmax, tmax + 1):
        for e in range(-emax, emax + 1):
            if d % 4 == 1:
                if (t - e) % 2:
                    continue
            elif t % 2 or e % 2:
                continue
            if within_hasse(p, t, e, d):
                out.append(eigenvalue(d, t, e))
    return out


def detect_field(fc, level):
    """Squarefree d with the eigenvalues in Q(sqrt(d)), from the first odd
    good prime (p not dividing the level or disc(f)) whose conjugate pair is
    distinct.  Returns (d, {p: (t, s)})."""
    pinned = {}
    for p in _iter_primes():
        if p > 2 and level % p and _squarefree_mod_p(fc, p):
            t, s = norm_pair_mod_p2(fc, p)
            pinned[p] = (t, s)
            dd = t * t - 4 * s
            assert dd >= 0, "eigenvalues must be totally real"
            if dd > 0:
                return abs(squarefree_kernel(dd)[0]), pinned


def counted_candidates(p, t, s, d):
    """The conjugate choices (t +- e sqrt(d))/2 determined by trace t and
    product s."""
    dd = t * t - 4 * s
    if dd == 0:
        return [eigenvalue(d, t)]
    e = math.isqrt(dd // d)
    assert e * e * d == dd, f"p={p}: {dd} is not d*(square), d={d}"
    return [eigenvalue(d, t, e), eigenvalue(d, t, -e)]


def make_dataset(level, precision, verbose=True):
    curve = fixture_curve(level)
    fc = [int(c) for c in curve.f_coeffs()]
    work = precision + 9  # resolves every prime < work via the q^(p-8) slot

    def log(msg):
        if verbose:
            print(f"  [{level}] {msg}", flush=True)

    d, pinned = detect_field(fc, level)
    if d == 1:
        raise NotImplementedError(
            f"level {level}: both eigenvalue sequences are rational (d = 1); "
            "this needs an old form of lower level, see ROADMAP.md item 3"
        )
    log(f"eigenvalue field Q(sqrt({d}))")
    minus_one = eigenvalue(d, -2)  # a_p at p | level

    # --- joint stage: primes 2,3,5,7 at precision 11 -----------------------
    small_sets = {}
    for p in (2, 3, 5, 7):
        if level % p == 0:
            small_sets[p] = [minus_one]
        elif p == 2:
            # conjugation fixes the span, so a_2's surd part can be taken >= 0
            small_sets[p] = [c for c in hasse_candidates(2, d) if c.coords[1] >= 0]
        else:
            if not _squarefree_mod_p(fc, p):
                raise NotImplementedError(f"odd prime {p} | disc but not level")
            t, s = pinned.get(p) or norm_pair_mod_p2(fc, p)
            small_sets[p] = counted_candidates(p, t, s, d)

    winners = []
    for combo in product(*(small_sets[p] for p in (2, 3, 5, 7))):
        table = dict(zip((2, 3, 5, 7), combo))
        try:
            res = build_residual(hecke_coefficients(11, table, level), fc)
        except (AssertionError, InputError):
            continue
        if not any(residual_prefix(res, 2)):
            winners.append(table)
    if not winners:
        raise RuntimeError(f"level {level}: no small-prime assignment works")
    # conjugation (flipping every surd part) fixes the span; drop mirror duplicates
    canonical = []
    for w in winners:
        flip = {p: q.conjugate(1) for p, q in w.items()}
        if flip not in canonical:
            canonical.append(w)
    if len(canonical) != 1:
        raise RuntimeError(f"level {level}: ambiguous small primes: {canonical}")
    prime_table = canonical[0]
    log("small primes: " + ", ".join(f"a_{p} = {q}" for p, q in prime_table.items()))

    # --- greedy stage: p >= 11 ascending, surd part from an affine probe ---
    for p in takewhile(lambda p: p < work, _iter_primes()):
        if p in prime_table:
            continue
        if level % p == 0:
            prime_table[p] = minus_one
            continue
        if not _squarefree_mod_p(fc, p):
            raise NotImplementedError(f"odd prime {p} | disc but not level")
        t = trace_mod_p(fc, p)
        prime_table[p] = eigenvalue(d, t)
        # below q^(p+2), a_p enters only as the coefficient a[p] itself
        a = hecke_coefficients(p + 2, prime_table, level)
        probes = []
        for e in (0, 2):
            a[p] = eigenvalue(d, t, e)
            res = build_residual(a, fc)
            assert not any(
                residual_prefix(res, p - 9)
            ), f"p={p}: residual broken before the probe slot"
            probes.append(res.coeff(p - 8))
        slope = probes[1] - probes[0]
        assert slope != 0, f"p={p}: probe slot insensitive to the surd part"
        e = Fraction(-2 * probes[0], slope)
        assert e.denominator == 1, f"p={p}: surd part {e / 2} is not half-integral"
        e = int(e)
        if d % 4 == 1:
            assert (t - e) % 2 == 0, f"p={p}: parity of t={t}, e={e}"
        else:
            assert t % 2 == 0 and e % 2 == 0, f"p={p}: parity"
        assert within_hasse(p, t, e, d), f"p={p}: ({t} + {e} sqrt({d}))/2 breaks Hasse"
        prime_table[p] = a[p] = eigenvalue(d, t, e)
        res = build_residual(a, fc)
        assert not any(residual_prefix(res, p - 7)), f"p={p}: confirm failed"
    log(f"resolved {len(prime_table)} primes")

    # --- final build through the library path ------------------------------
    a = hecke_coefficients(work, prime_table, level)
    tr, df = series_pair(a)
    data = echelonize(tr, df, level=level).truncate(precision)
    report = validate_dataset(data, curve)
    assert report.matches, f"level {level}: validation failed: {report}"
    log(
        f"validated: coefficients match, {report.extra_verified} extra "
        "residual terms checked"
    )
    return data


def dataset_text(data):
    """The dataset file's contents, as bundled."""
    return json.dumps(dataset_to_json(data), indent=1) + "\n"


def level_list(text):
    """--levels: comma-separated integers."""
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--levels", type=level_list, default=bundled_dataset_levels())
    ap.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent / "src/qstar/data/datasets"),
    )
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        for level in args.levels:
            t0 = time.time()
            data = make_dataset(level, dataset_precision(level))
            path = out / f"ds{level:03d}.json"
            path.write_text(dataset_text(data))
            print(f"wrote {path} (precision {data.precision}, {time.time() - t0:.1f}s)")
    except (RuntimeError, QstarError) as exc:
        # a refused level (NotImplementedError is a RuntimeError), a failed
        # reconstruction, or a level without a bundled curve
        print(f"make_datasets: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
