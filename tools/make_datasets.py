#!/usr/bin/env python3
"""Regenerate the bundled q-expansion datasets from the fixture curves.

For each target level the weight-2 eigenvalue data is reconstructed from
point counts of the fixture sextic over F_p (trace t_p) plus, for the
leftover square-root parts, exact matching of the series relation
y^2 = f(x): each candidate value changes a known early residual
coefficient affinely, so it can be solved for and then confirmed.  Every
residual is built with the library's own echelon form, coordinates and
relation (`qstar.modular`), and the final basis pair goes through
`echelonize` and `validate_dataset` before being written to
src/qstar/data/datasets/.

Usage: python3 tools/make_datasets.py [--levels 67,73,85,107] [--out DIR]
"""

import argparse
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from qstar.algnum import (  # noqa: E402
    _squarefree_mod_p,
    is_probable_prime,
    squarefree_kernel,
)
from qstar.errors import InputError  # noqa: E402
from qstar.fixtures import fixture_curve  # noqa: E402
from qstar.modular import (  # noqa: E402
    coordinates,
    dataset_to_json,
    echelon_series,
    echelonize,
    relation_residual,
    validate_dataset,
)
from qstar.series import LaurentSeries  # noqa: E402

# level -> published precision (sigma(N) + 16, enough for the j pipeline)
TARGETS = {67: 84, 73: 90, 85: 124, 107: 124}


# ---------------------------------------------------------------------------
# arithmetic in Q(sqrt(d)) for eigenvalues a = A + B*w, w^2 = d


class Quad:
    __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        self.a = Fraction(a)
        self.b = Fraction(b)

    def mul(self, other, d):
        return Quad(
            self.a * other.a + self.b * other.b * d,
            self.a * other.b + self.b * other.a,
        )

    def sub_scaled(self, other, n):
        return Quad(self.a - n * other.a, self.b - n * other.b)

    def __repr__(self):
        return f"Quad({self.a}, {self.b})"

    def __eq__(self, other):
        return self.a == other.a and self.b == other.b


def hecke_coefficients(nmax, prime_table, level, d):
    """a_n = A_n + B_n w for 1 <= n < nmax, multiplicative with the usual
    p-power recursion at good p and a_{p^k} = a_p^k at p | level."""
    a = [None] * nmax
    a[1] = Quad(1)
    spf = list(range(nmax))  # smallest prime factor
    for i in range(2, int(math.isqrt(nmax)) + 1):
        if spf[i] == i:
            for j in range(i * i, nmax, i):
                if spf[j] == j:
                    spf[j] = i
    for n in range(2, nmax):
        p = spf[n]
        q, k = 1, 0
        m = n
        while m % p == 0:
            m //= p
            q *= p
            k += 1
        if m > 1:
            a[n] = a[m].mul(a[q], d)
        elif k == 1:
            a[n] = prime_table[p]
        elif level % p == 0:
            a[n] = a[p].mul(a[n // p], d)
        else:
            a[n] = a[p].mul(a[n // p], d).sub_scaled(a[n // (p * p)], p)
    return a


def series_pair(a, prec):
    """Trace and normalized-difference series of the conjugate pair."""
    tr = [2 * x.a for x in a[1:prec]]
    df = [2 * x.b for x in a[1:prec]]
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
    counting over F_p and F_{p^2}."""
    t = trace_mod_p(fc, p)
    r = next(
        n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1
    )  # non-residue
    half2 = (p * p - 1) // 2

    def mul(z1, z2):
        (u1, v1), (u2, v2) = z1, z2
        return ((u1 * u2 + v1 * v2 * r) % p, (u1 * v2 + u2 * v1) % p)

    def chi(z):
        # z^((p^2-1)/2) in F_{p^2}, which is 0 or +-1
        acc, base, e = (1, 0), z, half2
        while e:
            if e & 1:
                acc = mul(acc, base)
            base = mul(base, base)
            e >>= 1
        if acc == (1, 0):
            return 1
        if acc == (p - 1, 0):
            return -1
        assert acc == (0, 0)
        return 0

    count = 2
    for u in range(p):
        for v in range(p):
            z = (u, v)
            w = (0, 0)
            for c in reversed(fc):
                w = mul(w, z)
                w = ((w[0] + c) % p, w[1])
            count += 1 + chi(w)
    sum_alpha_sq = p * p + 1 - count
    s = (t * t - 4 * p - sum_alpha_sq) // 2
    assert (t * t - 4 * p - sum_alpha_sq) % 2 == 0
    return t, s


# ---------------------------------------------------------------------------
# residual tests against the fixture curve


def build_residual(prime_table, level, d, fc, prec):
    a = hecke_coefficients(prec, prime_table, level, d)
    tr, df = series_pair(a, prec)
    x, y = coordinates(*echelon_series(tr, df))
    return relation_residual(x, y, fc)


def residual_prefix(res, hi):
    """Coefficients of q^val .. q^hi (clipped to what is known)."""
    return [res.coeff(k) for k in range(res.val, min(hi, res.prec - 1) + 1)]


# ---------------------------------------------------------------------------
# per-level driver


def hasse_candidates(p, d, positive_b=False):
    """All A + Bw with conjugates (t +- e sqrt(d))/2 integral and of absolute
    value <= 2 sqrt(p)."""
    lim = 2 * math.sqrt(p)
    out = []
    tmax = int(2 * lim) + 1
    for t in range(-tmax, tmax + 1):
        emax = int((2 * lim - abs(t)) / math.sqrt(d)) + 2
        start = 1 if positive_b else -emax
        for e in range(start, emax + 1):
            if d % 4 == 1:
                if (t - e) % 2:
                    continue
            elif t % 2 or e % 2:
                continue
            hi = (abs(t) + abs(e) * math.sqrt(d)) / 2
            if hi <= lim + 1e-9:
                out.append(Quad(Fraction(t, 2), Fraction(e, 2)))
    return out


def primes_from(start, stop=None):
    """The primes p with start <= p < stop (no upper end when stop is None)."""
    p = start
    while stop is None or p < stop:
        if is_probable_prime(p):
            yield p
        p += 1


def detect_field(fc, level):
    """Squarefree d with the eigenvalues in Q(sqrt(d)), from the first odd
    good prime (p not dividing the level or disc(f)) whose conjugate pair is
    distinct.  Returns (d, {p: (t, s)})."""
    pinned = {}
    for p in primes_from(3):
        if level % p and _squarefree_mod_p(fc, p):
            t, s = norm_pair_mod_p2(fc, p)
            pinned[p] = (t, s)
            dd = t * t - 4 * s
            assert dd >= 0, "eigenvalues must be totally real"
            if dd > 0:
                return abs(squarefree_kernel(dd)[0]), pinned


def counted_candidates(p, t, s, d):
    """The conjugate choices A +- Bw determined by trace t and product s."""
    dd = t * t - 4 * s
    if dd == 0:
        return [Quad(Fraction(t, 2))]
    e = math.isqrt(dd // d)
    assert e * e * d == dd, f"p={p}: {dd} is not d*(square), d={d}"
    b = Fraction(e, 2)
    return [Quad(Fraction(t, 2), b), Quad(Fraction(t, 2), -b)]


def make_dataset(level, precision, verbose=True):
    curve = fixture_curve(level)
    fc = [int(c) for c in curve.f_coeffs()]
    work = precision + 9  # resolves every prime < work via the q^(p-8) slot

    def log(msg):
        if verbose:
            print(f"  [{level}] {msg}", flush=True)

    d, pinned = detect_field(fc, level)
    log(f"eigenvalue field Q(sqrt({d}))")

    # --- joint stage: primes 2,3,5,7 at precision 11 -----------------------
    small_sets = {}
    for p in (2, 3, 5, 7):
        if level % p == 0:
            small_sets[p] = [Quad(-1)]
        elif p == 2:
            small_sets[p] = hasse_candidates(2, d, positive_b=True) + [
                c for c in hasse_candidates(2, d) if c.b == 0
            ]
        else:
            if not _squarefree_mod_p(fc, p):
                raise NotImplementedError(f"odd prime {p} | disc but not level")
            t, s = pinned.get(p) or norm_pair_mod_p2(fc, p)
            small_sets[p] = counted_candidates(p, t, s, d)

    winners = []
    from itertools import product

    for combo in product(*(small_sets[p] for p in (2, 3, 5, 7))):
        table = dict(zip((2, 3, 5, 7), combo))
        try:
            res = build_residual(table, level, d, fc, 11)
        except (AssertionError, InputError):
            continue
        if not any(residual_prefix(res, 2)):
            winners.append(table)
    if not winners:
        raise RuntimeError(f"level {level}: no small-prime assignment works")
    # conjugation (flipping every B) fixes the span; drop mirror duplicates
    canonical = []
    for w in winners:
        flip = {p: Quad(q.a, -q.b) for p, q in w.items()}
        if not any(all(v == other[p] for p, v in flip.items()) for other in canonical):
            canonical.append(w)
    if len(canonical) != 1:
        raise RuntimeError(f"level {level}: ambiguous small primes: {canonical}")
    prime_table = canonical[0]
    log(f"small primes: {prime_table}")

    # --- greedy stage: p >= 11 ascending, B_p from an affine probe ---------
    for p in primes_from(11, work):
        if level % p == 0:
            prime_table[p] = Quad(-1)
            continue
        if not _squarefree_mod_p(fc, p):
            raise NotImplementedError(f"odd prime {p} | disc but not level")
        t = trace_mod_p(fc, p)
        half_t = Fraction(t, 2)
        probes = []
        for b in (Fraction(0), Fraction(1)):
            prime_table[p] = Quad(half_t, b)
            res = build_residual(prime_table, level, d, fc, p + 2)
            assert not any(
                residual_prefix(res, p - 9)
            ), f"p={p}: residual broken before the probe slot"
            probes.append(res.coeff(p - 8))
        slope = probes[1] - probes[0]
        assert slope != 0, f"p={p}: probe slot insensitive to B"
        b = -probes[0] / slope
        e2 = 2 * b
        assert e2.denominator == 1, f"p={p}: solved B={b} is not half-integral"
        if d % 4 == 1:
            assert (t - int(e2)) % 2 == 0, f"p={p}: parity of t={t}, e={e2}"
        else:
            assert t % 2 == 0 and int(e2) % 2 == 0, f"p={p}: parity"
        assert abs(t) + abs(2 * b) * math.sqrt(d) <= 4 * math.sqrt(p) + 1e-9
        prime_table[p] = Quad(half_t, b)
        res = build_residual(prime_table, level, d, fc, p + 2)
        assert not any(residual_prefix(res, p - 7)), f"p={p}: confirm failed"
    log(f"resolved {len(prime_table)} primes")

    # --- final build through the library path ------------------------------
    a = hecke_coefficients(work, prime_table, level, d)
    tr, df = series_pair(a, work)
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


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--levels", default=",".join(map(str, sorted(TARGETS))))
    ap.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent / "src/qstar/data/datasets"),
    )
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for level in (int(s) for s in args.levels.split(",")):
        t0 = time.time()
        data = make_dataset(level, TARGETS[level])
        path = out / f"ds{level:03d}.json"
        path.write_text(dataset_text(data))
        print(f"wrote {path} (precision {data.precision}, {time.time() - t0:.1f}s)")


if __name__ == "__main__":
    main()
