"""Exact polynomial factorization over Q and number-field identification.

Splits integer polynomials (degree <= 16 in this application) into irreducible
factors, presents quadratic roots as exact surds a + b*sqrt(d), and recognizes
when the splitting field of a factor is multiquadratic Q(sqrt(d1),...,sqrt(dk)),
returning an exact element of that field whose conjugates are the roots. A
surd is the k = 1 case of the same element type, MultiQuadElement.

Identification finds the roots as p-adic integers with the factoring's own
Cantor-Zassenhaus split and Hensel lift, and reads every radicand and
coordinate from them exactly; the returned element is still certified by
exact expansion inside the multiquadratic algebra. A None comes from a prime
that proves the field is not multiquadratic, from a failed certificate, or
from a radicand whose factoring exhausts its budget; no precision is tuned.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import cache, lru_cache
from math import gcd, isqrt, prod
from typing import Optional

from .errors import FactorizationError, InputError, Value

__all__ = [
    "IntPolynomial",
    "MultiQuadElement",
    "factor_rational",
    "quadratic_surd_roots",
    "identify_multiquadratic",
    "squarefree_kernel",
    "prime_factors",
    "is_probable_prime",
    "field_label",
    "poly_str",
]


# ---------------------------------------------------------------------------
# integer utilities: primality, factoring, squarefree kernels


def _small_primes(bound):
    sieve = bytearray([1]) * (bound + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, isqrt(bound) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, bound + 1, i)))
    return tuple(itertools.compress(range(bound + 1), sieve))


# trial division and the choice of a modular prime stop at this bound
_PRIME_BOUND = 100_000

# Pollard-rho steps that one factoring call may spend before it gives up
RHO_BUDGET = 6_000_000


@cache
def _prime_table() -> tuple:
    """The primes <= _PRIME_BOUND, ascending, sieved once on first need."""
    return _small_primes(_PRIME_BOUND)


@cache
def _block_product(i: int) -> int:
    """The product of the block of 128 table primes that starts at index i."""
    return prod(_prime_table()[i : i + 128])


# Miller-Rabin bases 2..41 decide primality exactly below psi_13
# (Sorenson and Webster, Math. Comp. 2017); 2..37 alone fail at psi_12
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin; deterministic below 3.3e24, 64 seeded rounds above."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def witness(a):
        x = pow(a, d, n)
        if x in (1, n - 1):
            return False
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                return False
        return True

    if n < 3317044064679887385961981:
        bases = _MR_BASES
    else:
        rng = random.Random(n & ((1 << 64) - 1))
        bases = tuple(rng.randrange(2, n - 1) for _ in range(64))
    return not any(witness(a) for a in bases)


def _brent_rho(n: int, budget: list) -> int:
    """A nontrivial factor of odd composite n; budget-limited iteration."""
    rng = random.Random(n % (1 << 62) ^ 0x9E3779B9)
    while True:
        y, c, m = rng.randrange(1, n), rng.randrange(1, n), 128
        g, r, q = 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                steps = min(m, r - k)
                budget[0] -= steps
                if budget[0] <= 0:
                    raise FactorizationError(
                        f"integer factoring budget exhausted on a "
                        f"{n.bit_length()}-bit cofactor"
                    )
                for _ in range(steps):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
                budget[0] -= 1
                if budget[0] <= 0:
                    raise FactorizationError("integer factoring budget exhausted")
        if g != n:
            return g


# squares mod 64, 63, 65 and 11: most non-squares fail one of these lookups,
# which are cheaper than the isqrt that settles the rest
_SQ_MASK_64 = [False] * 64
for _i in range(32):
    _SQ_MASK_64[(_i * _i) % 64] = True
_SQ_MASK_63 = [False] * 63
_SQ_MASK_65 = [False] * 65
_SQ_MASK_11 = [False] * 11
for _i in range(64):
    _SQ_MASK_63[(_i * _i) % 63] = True
    _SQ_MASK_65[(_i * _i) % 65] = True
    _SQ_MASK_11[(_i * _i) % 11] = True


def perfect_square_root(n: int):
    """isqrt(n) if n is a perfect square, else None (n >= 0)."""
    if not _SQ_MASK_64[n & 63]:
        return None
    if not _SQ_MASK_63[n % 63] or not _SQ_MASK_65[n % 65] or not _SQ_MASK_11[n % 11]:
        return None
    r = isqrt(n)
    return r if r * r == n else None


def _is_square(n: int) -> bool:
    return n >= 0 and perfect_square_root(n) is not None


def _factor_into_primes(n: int, budget: list, out: dict, mult: int = 1):
    """Add mult times the prime factorization of n >= 1 into out (p -> exp)."""
    if n == 1:
        return
    if is_probable_prime(n):
        out[n] = out.get(n, 0) + mult
        return
    r = perfect_square_root(n)
    if r is not None:
        _factor_into_primes(r, budget, out, 2 * mult)
        return
    d = _brent_rho(n, budget)
    _factor_into_primes(d, budget, out, mult)
    _factor_into_primes(n // d, budget, out, mult)


def _trial_divide(n: int) -> tuple:
    """({p: e} over the table primes dividing n >= 1, the cofactor left).

    Ascending, it stops at the first prime p with p*p > n. The primes go in
    blocks of 128, and a block is searched only when its product has a
    common factor with n. Below 121 = 11**2, 2, 3, 5 and 7 settle n and
    nothing is sieved.
    """
    out = {}
    tiny = n < 121
    primes = (2, 3, 5, 7) if tiny else _prime_table()
    for i in range(0, len(primes), 128):
        block = primes[i : i + 128]
        if block[0] ** 2 > n:
            break
        g = gcd(n, 210 if tiny else _block_product(i))
        if g == 1:
            continue
        for p in block:
            if p * p > n:
                return out, n
            if g % p == 0:
                k = 0
                while n % p == 0:
                    n //= p
                    k += 1
                out[p] = k
    return out, n


def prime_factors(n: int, budget: int = RHO_BUDGET) -> dict:
    """The prime factorization {p: e} of n >= 1, primes ascending.

    Small primes are stripped by trial division and the cofactor is split
    with Pollard's rho under an iteration budget. Budget exhaustion raises
    FactorizationError rather than returning a partial factorization.
    """
    if n < 1:
        raise InputError(f"prime factors of {n} are undefined")
    out, n = _trial_divide(n)
    if n > 1:
        _factor_into_primes(n, [budget], out)
    return dict(sorted(out.items()))


def squarefree_kernel(n: int, budget: int = RHO_BUDGET) -> tuple:
    """Write n = d * e**2 with d squarefree; d carries the sign of n.

    As prime_factors, except that a perfect-square cofactor left by trial
    division needs no further factoring. Budget exhaustion raises
    FactorizationError rather than returning an uncertified kernel.
    """
    if n == 0:
        raise InputError("squarefree kernel of 0 is undefined")
    fac, d = _trial_divide(abs(n))
    e = 1
    if d > 1 and not is_probable_prime(d):
        r = perfect_square_root(d)
        if r is None:
            _factor_into_primes(d, [budget], fac)
        else:
            e = r
        d = 1
    for p, k in fac.items():
        if k % 2:
            d *= p
        e *= p ** (k // 2)
    return (-d if n < 0 else d), e


# ---------------------------------------------------------------------------
# dense polynomial helpers (coefficient lists, constant term first); the
# _z* helpers work unchanged on Fraction coefficients, which hyperelliptic uses


def _trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _zadd(a, b):
    n = max(len(a), len(b))
    out = [0] * n
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] += x
    return _trim(out)


def _zsub(a, b):
    return _zadd(a, [-x for x in b])


def _zmul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def _zscale(a, c):
    return _trim([x * c for x in a]) if c else []


def _zderiv(a):
    return _trim([i * a[i] for i in range(1, len(a))])


def _zeval(a, x):
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _content(a) -> int:
    g = 0
    for x in a:
        g = gcd(g, x)
        if g == 1:
            return 1
    return g or 1


def _primitive(a):
    """(content carrying the leading sign, primitive positive-lead part)."""
    if not a:
        return 0, []
    g = _content(a)
    if a[-1] < 0:
        g = -g
    return g, [x // g for x in a]


def _qdiv_exact(a, b):
    """Exact quotient a / b of integer polynomials; raises if not exact."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    q = [0] * (len(a) - len(b) + 1)  # empty when deg a < deg b
    while len(rem) >= len(b):
        sh = len(rem) - len(b)
        c, r = divmod(rem[-1], b[-1])
        if r:
            raise InputError("polynomial quotient not integral")
        q[sh] = c
        for i, x in enumerate(b):
            rem[sh + i] -= c * x
        _trim(rem)
    if rem:
        raise InputError("polynomial division was not exact")
    return _trim(q)


def _pseudo_rem(a, b):
    """lc(b)^(deg a - deg b + 1) * a reduced mod b, over Z."""
    a = list(a)
    d = len(a) - len(b)
    lead = b[-1]
    for _ in range(d + 1):
        if len(a) < len(b):
            a = _zscale(a, lead)
            continue
        sh = len(a) - len(b)
        top = a[-1]
        a = _zscale(a, lead)
        for i, x in enumerate(b):
            a[sh + i] -= top * x
        del a[-1]
        _trim(a)
    return a


def _zgcd_poly(a, b):
    """Primitive gcd of integer polynomials (primitive PRS)."""
    _, a = _primitive(list(a))
    _, b = _primitive(list(b))
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _pseudo_rem(a, b)
        _, r = _primitive(r)
        a, b = b, r
    return a


# ---------------------------------------------------------------------------
# IntPolynomial


class IntPolynomial(Value):
    """Dense integer polynomial; coefficients constant-term first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple):
        c = _trim([int(x) for x in coeffs])
        if not c:
            raise InputError("the zero polynomial is not allowed here")
        super().__init__(tuple(c))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return self.leading == 1

    def __call__(self, x):
        return _zeval(self.coeffs, x)

    def primitive(self) -> tuple:
        c, p = _primitive(list(self.coeffs))
        return c, IntPolynomial(tuple(p))

    def __mul__(self, other):
        if isinstance(other, IntPolynomial):
            return IntPolynomial(tuple(_zmul(list(self.coeffs), list(other.coeffs))))
        return NotImplemented

    def __str__(self):
        return poly_str(self)


def poly_str(p: IntPolynomial, var: str = "x") -> str:
    parts = []
    for i in range(p.degree, -1, -1):
        c = p.coeffs[i]
        if c == 0:
            continue
        if i == 0:
            term = str(abs(c))
        else:
            xs = var if i == 1 else f"{var}^{i}"
            term = xs if abs(c) == 1 else f"{abs(c)}*{xs}"
        if not parts:
            parts.append(("-" if c < 0 else "") + term)
        else:
            parts.append(("- " if c < 0 else "+ ") + term)
    return " ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# polynomial arithmetic mod m: the Z helpers followed by one reduction
# (lists of ints in [0, m); m is a prime p, or p**e during Hensel lifting)


def _mod_poly(a, m):
    return _trim([x % m for x in a])


def _centered(a, m):
    half = m // 2
    return _trim([x - m if x > half else x for x in (y % m for y in a)])


def _divmod_mod(a, b, m):
    """(quotient, remainder) of a by b mod m; lc(b) must be a unit mod m."""
    a = _mod_poly(a, m)
    inv = pow(b[-1], -1, m)
    q = [0] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        c = a[-1] * inv % m
        sh = len(a) - len(b)
        if c:
            q[sh] = c
            for i, x in enumerate(b):
                a[sh + i] = (a[sh + i] - c * x) % m
        del a[-1]
        _trim(a)
    return q, a


def _pm_gcd(a, b, p):
    a, b = a[:], b[:]
    while b:
        a, b = b, _divmod_mod(a, b, p)[1]
    if a:
        inv = pow(a[-1], -1, p)
        a = [x * inv % p for x in a]
    return a


def _pm_pow(base, e, mod, p):
    result = [1]
    base = _divmod_mod(base, mod, p)[1]
    while e:
        if e & 1:
            result = _divmod_mod(_zmul(result, base), mod, p)[1]
        e >>= 1
        if e:
            base = _divmod_mod(_zmul(base, base), mod, p)[1]
    return result


def _pm_xgcd(a, b, p):
    """(g monic, s, t) with s*a + t*b = g in F_p[x]."""
    r0, r1 = a[:], b[:]
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _divmod_mod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _mod_poly(_zsub(s0, _zmul(q, s1)), p)
        t0, t1 = t1, _mod_poly(_zsub(t0, _zmul(q, t1)), p)
    inv = pow(r0[-1], -1, p)
    return (
        [x * inv % p for x in r0],
        [x * inv % p for x in s0],
        [x * inv % p for x in t0],
    )


def _equal_degree_split(f, d, p, rng):
    """Cantor-Zassenhaus: monic squarefree f mod p, all factors of degree d."""
    n = len(f) - 1
    if n == d:
        return [f]
    e = (p**d - 1) // 2
    while True:
        a = [rng.randrange(p) for _ in range(n)]
        _trim(a)
        if len(a) < 2:
            continue
        g = _pm_gcd(f, a, p)
        if 0 < len(g) - 1 < n:
            w = g
        else:
            b = _pm_pow(a, e, f, p)
            if not b:
                continue
            b = b[:]
            b[0] = (b[0] - 1) % p
            _trim(b)
            if not b:
                continue
            w = _pm_gcd(f, b, p)
            if not (0 < len(w) - 1 < n):
                continue
        q, r = _divmod_mod(f, w, p)
        assert not r
        return _equal_degree_split(w, d, p, rng) + _equal_degree_split(q, d, p, rng)


def _distinct_degree(f, p):
    """Yield (d, product of the degree-d factors) for monic squarefree f mod p.

    d runs 1, 2, ... up to the largest factor degree, and a degree with no
    factor gives [1].  The product for d is gcd(v, x**(p**d) - x), where v
    is f without the factors of lower degree; once deg v < 2d, v itself is
    irreducible.  Lazy, so a caller may stop after the degrees it needs.
    """
    h = [0, 1]  # x**(p**d) mod v
    v = f
    d = 0
    while len(v) > 1:
        d += 1
        if len(v) - 1 < 2 * d:
            g = v if len(v) - 1 == d else [1]
        else:
            h = _pm_pow(h, p, v, p)
            g = _pm_gcd(v, _mod_poly(_zsub(h, [0, 1]), p), p)
        yield d, g
        if len(g) > 1:
            v = _divmod_mod(v, g, p)[0]
            h = _divmod_mod(h, v, p)[1]


def _factor_mod_p(f, p, rng):
    """Monic squarefree f mod p -> list of monic irreducible factors."""
    return [
        u
        for d, g in _distinct_degree(f, p)
        if len(g) > 1
        for u in _equal_degree_split(g, d, p, rng)
    ]


# ---------------------------------------------------------------------------
# Hensel lifting to a power of p, on the same mod-m helpers


def _hensel_step(f, g, h, s, t, m):
    """One quadratic lift step: f = g*h and s*g + t*h = 1 from mod m to mod m^2."""
    m2 = m * m
    e = _mod_poly(_zsub(f, _zmul(g, h)), m2)
    dg = _divmod_mod(_zmul(t, e), g, m2)[1]
    dh, rem = _divmod_mod(_zsub(e, _zmul(h, dg)), g, m2)
    assert not rem, "inexact Hensel quotient"
    g2 = _mod_poly(_zadd(g, dg), m2)
    h2 = _mod_poly(_zadd(h, dh), m2)
    b = _mod_poly(_zsub(_zadd(_zmul(s, g2), _zmul(t, h2)), [1]), m2)
    q, sb_mod = _divmod_mod(_zmul(s, b), h2, m2)
    s2 = _mod_poly(_zsub(s, sb_mod), m2)
    t2 = _mod_poly(_zsub(t, _zadd(_zmul(t, b), _zmul(q, g2))), m2)
    return g2, h2, s2, t2


def _final_modulus(p, target):
    m = p
    while m < target:
        m *= m
    return m


def _hensel_pair(f, g, h, p, target):
    """Lift f = g*h from mod p to the final modulus >= target."""
    _, s, t = _pm_xgcd(g, h, p)
    m = p
    while m < target:
        g, h, s, t = _hensel_step(f, g, h, s, t, m)
        m *= m
    return g, h, m


def _hensel_tree(f, locals_, p, target):
    """Lift the full mod-p factor list of monic f to the final modulus."""
    if len(locals_) == 1:
        return [_mod_poly(f, _final_modulus(p, target))]
    half = len(locals_) // 2
    left, right = locals_[:half], locals_[half:]
    g0 = [1]
    for u in left:
        g0 = _mod_poly(_zmul(g0, u), p)
    h0 = [1]
    for u in right:
        h0 = _mod_poly(_zmul(h0, u), p)
    g, h, _ = _hensel_pair(f, g0, h0, p, target)
    return _hensel_tree(g, left, p, target) + _hensel_tree(h, right, p, target)


# ---------------------------------------------------------------------------
# Zassenhaus factorization over Z


def _mignotte_bound(f) -> int:
    n = len(f) - 1
    norm2 = isqrt(sum(c * c for c in f)) + 1
    return (1 << n) * norm2


def _squarefree_mod_p(f, p) -> bool:
    """Whether f mod p is coprime to its derivative.

    For f whose leading coefficient p does not divide, this holds exactly
    when p does not divide disc(f).
    """
    fp = _mod_poly(f, p)
    return len(_pm_gcd(fp, _mod_poly(_zderiv(fp), p), p)) == 1


def _good_primes(f):
    """The primes 16 < p <= _PRIME_BOUND with monic f squarefree mod p."""
    return (p for p in _prime_table() if p > 16 and _squarefree_mod_p(f, p))


def _monicize(f):
    """(monic F with F(y) = lc^(n-1) * f(y/lc), lc)."""
    lead = f[-1]
    n = len(f) - 1
    out = [c * lead ** (n - 1 - i) for i, c in enumerate(f[:-1])]
    out.append(1)
    return out, lead


def _demonicize(g, lead):
    """Undo y = lc*x on a monic factor; primitive positive-lead part."""
    out = [c * lead**i for i, c in enumerate(g)]
    _, prim = _primitive(out)
    return prim


def _factor_squarefree_monic(f) -> list:
    """Monic squarefree integer polynomial -> list of monic irreducible factors."""
    if len(f) - 1 <= 1:
        return [f]
    p = next(_good_primes(f), None)
    if p is None:  # pragma: no cover
        raise FactorizationError("no usable prime below the sieve bound")
    rng = random.Random(p * 0x9E3779B9 ^ len(f))
    locals_ = sorted(_factor_mod_p(_mod_poly(f, p), p, rng))
    if len(locals_) == 1:
        return [f]
    bound = 2 * _mignotte_bound(f) + 1
    m = _final_modulus(p, bound)
    lifted = _hensel_tree(_mod_poly(f, m), locals_, p, bound)
    max_coeff = _mignotte_bound(f)
    out = []
    remaining = list(range(len(lifted)))
    current = f
    size = 1
    while 2 * size <= len(remaining):
        found = False
        for combo in itertools.combinations(remaining, size):
            cand = [1]
            for i in combo:
                cand = _mod_poly(_zmul(cand, lifted[i]), m)
            cand = _centered(cand, m)
            if not cand or cand[0] == 0 or current[0] % cand[0]:
                continue
            if any(abs(c) > max_coeff for c in cand):
                continue
            try:
                quo = _qdiv_exact(current, cand)
            except InputError:
                continue
            out.append(cand)
            current = quo
            remaining = [i for i in remaining if i not in combo]
            found = True
            break
        if not found:
            size += 1
    if len(current) > 1:
        out.append(current)
    return out


def _yun_squarefree(f) -> list:
    """[(primitive squarefree factor, multiplicity)] for primitive f."""
    fp = _zderiv(f)
    g = _zgcd_poly(f, fp)
    if len(g) <= 1:
        return [(f, 1)]
    out = []
    w = _qdiv_exact(f, g)
    y = _qdiv_exact(fp, g)
    i = 1
    while len(w) > 1:
        z = _zsub(y, _zderiv(w))
        h = _zgcd_poly(w, z) if z else w[:]
        if len(h) > 1:
            out.append((h, i))
        w = _qdiv_exact(w, h)
        if not z:
            break
        y = _qdiv_exact(z, h)
        i += 1
    return out


def factor_rational(p: IntPolynomial) -> list:
    """Irreducible factorization over Q: [(factor, multiplicity)], sorted.

    Factors are primitive with positive leading coefficient; their product
    with multiplicities equals p up to rational content. Deterministic order:
    by (degree, coefficient tuple).
    """
    if p.degree < 1:
        raise InputError("factorization needs degree >= 1")
    _, prim = p.primitive()
    work = list(prim.coeffs)
    result: dict = {}
    v = 0
    while work[0] == 0:  # strip powers of x up front
        work = work[1:]
        v += 1
    if v:
        result[(0, 1)] = v
    if len(work) > 1:
        for sq, mult in _yun_squarefree(work):
            if len(sq) == 2:
                _, lin = _primitive(sq)
                key = tuple(lin)
                result[key] = result.get(key, 0) + mult
                continue
            monic, lead = _monicize(sq)
            for g in _factor_squarefree_monic(monic):
                key = tuple(_demonicize(g, lead))
                result[key] = result.get(key, 0) + mult
    items = [(IntPolynomial(k), mult) for k, mult in result.items()]
    items.sort(key=lambda t: (t[0].degree, t[0].coeffs))
    check = [1]
    for fac, mult in items:
        for _ in range(mult):
            check = _zmul(check, list(fac.coeffs))
    _, check = _primitive(check)
    assert check == list(prim.coeffs), "factor product mismatch"
    return items


# ---------------------------------------------------------------------------
# quadratic surds


def quadratic_surd_roots(q: IntPolynomial) -> tuple:
    """Roots of an irreducible integer quadratic, conjugate elements of Q(sqrt(d)).

    Returns the pair (-B +- e*sqrt(d))/(2A), positive sqrt(d) coordinate
    first. A perfect-square discriminant (reducible input) is an error.
    """
    if q.degree != 2:
        raise InputError("quadratic_surd_roots needs degree exactly 2")
    c, b, a = q.coeffs
    delta = b * b - 4 * a * c
    if _is_square(delta):
        raise InputError("discriminant is a perfect square; split the factor instead")
    d, e = squarefree_kernel(delta)
    first = MultiQuadElement((d,), (Fraction(-b, 2 * a), abs(Fraction(e, 2 * a))))
    return first, first.conjugate(1)


# ---------------------------------------------------------------------------
# the multiquadratic algebra


def _independent(gens) -> bool:
    """No nonempty subset of gens has a perfect-square product."""
    for mask in range(1, 1 << len(gens)):
        prod = 1
        for i, g in enumerate(gens):
            if mask >> i & 1:
                prod *= g
        if _is_square(prod):
            return False
    return True


@lru_cache(maxsize=1024)
def _checked_generators(gens: tuple) -> tuple:
    """gens, once checked squarefree, not 0 or 1, and independent.

    Cached, since every arithmetic result re-presents its operands' field.
    """
    for g in gens:
        if g in (0, 1):
            raise InputError("radicand 0 or 1 in generator list")
        if squarefree_kernel(g)[1] != 1:
            raise InputError(f"generator {g} is not squarefree")
    if not _independent(gens):
        raise InputError("generators are multiplicatively dependent")
    return gens


class MultiQuadElement(Value):
    """An exact element of Q(sqrt(d1), ..., sqrt(dk)).

    coords[S] is the coordinate of prod_{i in S} sqrt(d_i) for the bitmask S.
    Generators are squarefree, multiplicatively independent integers (no
    nonempty subset product is a square), so coordinates are unique and the
    2^k conjugates are exactly the independent sign flips of the generators.

    +, - and * take an element of the same field or a rational (int or
    Fraction) on either side, / takes a rational divisor and ** a
    non-negative int; an element is true when any coordinate is nonzero, so
    f(theta) is false exactly when theta is a root of f.
    """

    __slots__ = ("generators", "coords")

    def __init__(self, generators: tuple, coords: tuple):
        gens = _checked_generators(tuple(int(g) for g in generators))
        coords = tuple(Fraction(c) for c in coords)
        if len(coords) != 1 << len(gens):
            raise InputError("coordinate count must be 2^k")
        super().__init__(gens, coords)

    @property
    def k(self) -> int:
        return len(self.generators)

    def _coords_of(self, other):
        """Coordinates of other in this field; None unless an element or rational."""
        if isinstance(other, MultiQuadElement):
            if self.generators != other.generators:
                raise InputError("elements use different field presentations")
            return other.coords
        if isinstance(other, (int, Fraction)):
            return (Fraction(other),) + (Fraction(0),) * ((1 << self.k) - 1)
        return None

    def __add__(self, other):
        coords = self._coords_of(other)
        if coords is None:
            return NotImplemented
        return MultiQuadElement(
            self.generators, tuple(x + y for x, y in zip(self.coords, coords))
        )

    __radd__ = __add__

    def __neg__(self):
        return MultiQuadElement(self.generators, tuple(-x for x in self.coords))

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return MultiQuadElement(
                self.generators, tuple(x * other for x in self.coords)
            )
        coords = self._coords_of(other)
        if coords is None:
            return NotImplemented
        out = [Fraction(0)] * (1 << self.k)
        for s, cs in enumerate(self.coords):
            if not cs:
                continue
            for t, ct in enumerate(coords):
                if not ct:
                    continue
                common = s & t
                factor = 1
                for i in range(self.k):
                    if common >> i & 1:
                        factor *= self.generators[i]
                out[s ^ t] += cs * ct * factor
        return MultiQuadElement(self.generators, tuple(out))

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division by a nonzero rational."""
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return MultiQuadElement(self.generators, tuple(x / other for x in self.coords))

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise InputError("elements take only non-negative integer powers")
        out = MultiQuadElement(self.generators, self._coords_of(1))
        for _ in range(n):
            out = out * self
        return out

    def __bool__(self):
        return any(self.coords)

    def conjugate(self, mask: int) -> "MultiQuadElement":
        """Apply sqrt(d_i) -> -sqrt(d_i) for each generator i in the bitmask."""
        return MultiQuadElement(
            self.generators,
            tuple(
                -c if bin(s & mask).count("1") % 2 else c
                for s, c in enumerate(self.coords)
            ),
        )

    def __str__(self):
        parts = []
        for s, c in enumerate(self.coords):
            if c == 0:
                continue
            if s == 0:
                parts.append(str(c))
                continue
            rad = 1
            for i in range(self.k):
                if s >> i & 1:
                    rad *= self.generators[i]
            if abs(c) == 1:
                parts.append(("-" if c < 0 else "") + f"sqrt({rad})")
            else:
                parts.append(f"{c}*sqrt({rad})")
        if not parts:
            return "0"
        text = parts[0]
        for t in parts[1:]:
            text += (" - " + t[1:]) if t.startswith("-") else (" + " + t)
        return text


def field_label(generators) -> str:
    """Render Q(sqrt(d1),...,sqrt(dk)); an empty generator list means Q."""
    if not generators:
        return "Q"
    return "Q(" + ",".join(f"sqrt({g})" for g in generators) + ")"


# ---------------------------------------------------------------------------
# multiquadratic identification


def _padic_roots(f, target):
    """(roots, m): the roots of monic f as integers mod m = p**(2**j) >= target.

    p > 16 is the first prime with f squarefree mod p over which f splits into
    linear factors. By Dedekind's theorem the degrees of the factors of f mod
    p are the cycle lengths of a Frobenius element of the Galois group, and
    in a field with group (Z/2)**k every element is the identity or an
    involution that fixes no root. So a prime before that one where f has a
    factor of degree other than 2 proves f is not multiquadratic, and gives
    None. The linear factors are lifted as in the factoring (von zur Gathen
    and Gerhard, Modern Computer Algebra, ch. 14-15).
    """
    for p in _good_primes(f):
        fp = _mod_poly(f, p)
        degrees = _distinct_degree(fp, p)
        if next(degrees)[1] == fp:  # every factor is linear
            break
        if next(degrees)[1] != fp:  # not every factor is quadratic
            return None
    else:  # pragma: no cover
        return None
    m = _final_modulus(p, target)
    linear = _equal_degree_split(fp, 1, p, random.Random(p * 0x9E3779B9 ^ len(f)))
    lifted = _hensel_tree(_mod_poly(f, m), linear, p, target)
    return [-u[0] % m for u in lifted], m


def _signed_residue(x, m):
    """x mod m in the range (-m/2, m/2]."""
    x %= m
    return x - m if x > m // 2 else x


def _harvest_radicands(roots, m, bound):
    """Balanced sign splits of the roots whose signed sum squares to an integer.

    Returns {squarefree radicand d: (signs tuple, t)}, where d * t**2 is the
    square. Root 0 is pinned to the plus half, which kills the global sign
    flip. The roots are algebraic integers, so an integer square is read
    exactly from its residue mod m when it is at most bound < m/2 in
    absolute value. A square that is not an integer passes only by landing
    within bound of a multiple of m, and can then only spoil the certificate.

    Several signings can square into the same rational line (any signing
    orthogonal to the other radical components does), but only the true group
    character has full correlation with the roots, so for each radicand the
    signing with the largest |v^2| is kept.
    """
    n = len(roots)
    total = sum(roots)
    found = {}
    for plus in itertools.combinations(range(1, n), n // 2 - 1):
        v = 2 * (roots[0] + sum(roots[i] for i in plus)) - total
        q = _signed_residue(v * v, m)
        if not 0 < abs(q) <= bound:
            continue
        try:
            d, t = squarefree_kernel(q)
        except FactorizationError:
            continue
        if d == 1:
            continue
        if d not in found or abs(q) > found[d][0]:
            pos = (0,) + plus
            found[d] = (abs(q), tuple(1 if i in pos else -1 for i in range(n)), t)
    return {d: (signs, t) for d, (_, signs, t) in found.items()}


def _greedy_generators(radicands, k):
    """Greedy F2-independent pick: smallest |d| first, positive on ties."""
    chosen = []
    for d in sorted(radicands, key=lambda d: (abs(d), d < 0)):
        if _independent(chosen + [d]):
            chosen.append(d)
            if len(chosen) == k:
                return chosen
    return None


def _certified(theta: MultiQuadElement, g: IntPolynomial) -> bool:
    """Exact check: prod over conjugates of (x - theta^sigma) equals g / lc."""
    poly = [1]
    for sigma in range(1 << theta.k):
        conj = theta.conjugate(sigma)
        new = [0] * (len(poly) + 1)
        for i, c in enumerate(poly):
            new[i + 1] = new[i + 1] + c
            new[i] = new[i] - c * conj
        poly = new
    if len(poly) != g.degree + 1:
        return False
    return not any(c - Fraction(gc, g.leading) for c, gc in zip(poly, g.coeffs))


def _canonical_flips(theta: MultiQuadElement) -> MultiQuadElement:
    """Deterministic representative among the generator sign flips."""
    best = theta
    for mask in range(1, 1 << theta.k):
        cand = theta.conjugate(mask)
        if cand.coords > best.coords:
            best = cand
    return best


def identify_multiquadratic(g: IntPolynomial) -> Optional[MultiQuadElement]:
    """Exact multiquadratic presentation of a root of g, if one exists.

    g must be irreducible of degree 2, 4, 8, or 16 (any leading coefficient).
    On success the returned element's 2^k sign-flip conjugates are exactly
    the roots of g, certified by expanding the conjugate product in the exact
    algebra. Returns None when no certified presentation is found: when a
    prime proves the splitting field is not multiquadratic, when the signed
    root sums give fewer than k independent radicands or no certificate (a
    group that is not (Z/2)**k, or a chance below 2**-50 of a spurious
    radicand), or when factoring a radicand exhausts its budget.

    Above degree 2 the roots rho_i = lc * r_i of the monicized g are
    computed mod m = p**(2**j). For one conjugate of the root, with
    coordinates c_S, the signed sum v_S over the character of
    prod_{i in S} sqrt(d_i) is n * lc * c_S times that product, and each
    generator's sum is v_i = t_i * sqrt(d_i). So v_S * prod_{i in S} v_i is
    the integer n * lc * c_S * prod_{i in S} t_i * d_i, read exactly from its
    residue mod m, and no square root is ever divided by.
    """
    deg = g.degree
    if deg not in (2, 4, 8, 16):
        raise InputError("degree must be 2, 4, 8, or 16")
    if deg == 2:
        try:
            theta, _ = quadratic_surd_roots(g)
        except (InputError, FactorizationError):
            return None
        return theta if _certified(theta, g) else None
    k = deg.bit_length() - 1
    f, lead = _monicize(list(g.coeffs))
    # Fujiwara: every root is at most 2 max_i |f_{n-i}|**(1/i) <= 2 << R_bits
    R_bits = max(-(-abs(c).bit_length() // i) for i, c in enumerate(f[-2::-1], 1))
    nR = deg * (2 << R_bits)  # bounds every signed root sum
    found = _padic_roots(f, (1 << 64) * nR ** (k + 1))
    if found is None:
        return None
    roots, m = found
    harvest = _harvest_radicands(roots, m, nR * nR)
    gens = _greedy_generators(list(harvest), k)
    if gens is None:
        return None
    # the per-generator signings label each root with a coset vector in F2^k
    gen_signs = [harvest[d][0] for d in gens]
    labels = [
        sum((1 - gen_signs[i][j]) // 2 << i for i in range(k)) for j in range(deg)
    ]
    if len(set(labels)) != deg:
        return None
    sums = [
        sum(-r if bin(mask & lab).count("1") % 2 else r for r, lab in zip(roots, labels))
        for mask in range(deg)
    ]
    # character sums recover every coordinate; the trace gives the rational one
    coords = [Fraction(-g.coeffs[deg - 1], deg * lead)]
    for mask in range(1, deg):
        x, den = sums[mask], deg * lead
        for i, d in enumerate(gens):
            if mask >> i & 1:
                x = x * sums[1 << i] % m
                den *= harvest[d][1] * d
        coords.append(Fraction(_signed_residue(x, m), den))
    theta = MultiQuadElement(tuple(gens), tuple(coords))
    return _canonical_flips(theta) if _certified(theta, g) else None
