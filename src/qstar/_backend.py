"""Integer kernels: q-series convolution and the sextic point search.

These are the two inner loops of the pipeline, written in pure Python on
exact integers; series.py and hyperelliptic.py import them from here.
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


def convolve(a: list, b: list, out_len: int) -> list:
    """First out_len coefficients of the product of integer coefficient lists."""
    out = [0] * out_len
    for i, ai in enumerate(a):
        if i >= out_len:
            break
        if not ai:
            continue
        lim = min(len(b), out_len - i)
        for j in range(lim):
            bj = b[j]
            if bj:
                out[i + j] += ai * bj
    return out


def search_sextic(coeffs, height: int) -> list:
    """Solutions of s**2 = sum(coeffs[i] * u**i * v**(6-i)) in coprime u, v.

    coeffs is (a0, ..., a6); scans v in 1..height, |u| <= height, returns
    (u, v, s) triples with s >= 0, ordered by (v, u).
    """
    a0, a1, a2, a3, a4, a5, a6 = coeffs
    out = []
    for v in range(1, height + 1):
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
        for u in range(-height, height + 1):
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
