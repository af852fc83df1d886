"""Integer kernels: q-series convolution and the sextic point search.

These are the two inner loops of the pipeline, written in pure Python on
exact integers; series.py and hyperelliptic.py import them from here.

- convolve multiplies by Kronecker substitution (Harvey, arXiv:0712.4046):
  each coefficient list becomes one big integer, the two are multiplied
  once, and the product's coefficients are read back from its digits.
- search_sextic runs a bitset sieve in the style of M. Stoll's ratpoints
  before the exact square test. The sieve only rules out u where f(u, v)
  is a non-square modulo a small prime, and a perfect square is a square
  (or 0) modulo every prime, so it never drops a point.
"""

from math import gcd, isqrt

# There is no compiled build; perfbench/run.py probe() records this flag.
COMPILED = False

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


def _slot_row(count: int, nbytes: int) -> int:
    """sum(2**(8*nbytes - 1) * X**i for i < count) with X = 2**(8*nbytes)."""
    return int.from_bytes((bytes(nbytes - 1) + b"\x80") * count, "little")


def _pack(coeffs: list, nbytes: int, half: int) -> int:
    """sum(c * X**i) with X = 2**(8*nbytes), for |c| < half = X // 2."""
    biased = b"".join((c + half).to_bytes(nbytes, "little") for c in coeffs)
    return int.from_bytes(biased, "little") - _slot_row(len(coeffs), nbytes)


def convolve(a: list, b: list, out_len: int) -> list:
    """First out_len coefficients of the product of integer coefficient lists.

    Kronecker substitution: with X = 2**k, A = a(X) and B = b(X) are single
    integers, and the product's coefficients are the base-X digits of A*B,
    read as signed digits. The slot width k is a whole number of bytes with
    |c| < 2**(k-1) for every coefficient c that is read back, so no digit
    spills into its neighbour. Past len(a) + len(b) - 1 the result is
    zero-padded.
    """
    if out_len <= 0 or not a or not b:
        return [0] * out_len
    a = a[:out_len]
    b = b[:out_len]
    bits = (
        max(c.bit_length() for c in a)
        + max(c.bit_length() for c in b)
        + min(len(a), len(b)).bit_length()
    )
    nbytes = bits // 8 + 1
    half = 1 << (8 * nbytes - 1)
    n = min(out_len, len(a) + len(b) - 1)
    product = _pack(a, nbytes, half) * _pack(b, nbytes, half)
    # the digits below X**n, each shifted into [0, X) by adding half
    low = (product + _slot_row(n, nbytes)) & ((1 << (8 * nbytes * n)) - 1)
    data = low.to_bytes(nbytes * n, "little")
    out = [
        int.from_bytes(data[i : i + nbytes], "little") - half
        for i in range(0, nbytes * n, nbytes)
    ]
    out += [0] * (out_len - n)
    return out


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

    For each v, the candidate u form one bitset: the AND of one tile per
    sieve prime p, chosen by v mod p (see _sieve_tiles). A u survives only
    if f(u, v) is a square or 0 mod every sieve prime, and every survivor
    still goes through the exact checks: gcd(u, v) == 1, f(u, v) >= 0 and
    an exact integer square root. The sieve cannot drop a point: if
    f(u, v) = s**2, then f(u, v) mod p is s**2 mod p, a square or 0, for
    every p.
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


__all__ = ["convolve", "search_sextic", "perfect_square_root", "COMPILED"]
