"""The integer kernels against naive reference loops kept here."""

import random
from math import gcd, isqrt

from qstar import _backend

SAMPLE_CURVES = [
    (9, -14, 9, -6, 6, -4, 1),
    (1, 10, -15, 2, 6, -4, 1),
    (25, -40, 32, -22, 12, -4, 1),
    (0, 0, 0, 0, 0, 0, 1),  # y^2 = x^6
]


def naive_convolve(a, b, out_len):
    out = [0] * out_len
    for i in range(len(a)):
        for j in range(len(b)):
            if i + j < out_len:
                out[i + j] += a[i] * b[j]
    return out


def naive_square_root(n):
    r = isqrt(n)
    return r if r * r == n else None


def naive_search(coeffs, height):
    out = []
    for v in range(1, height + 1):
        for u in range(-height, height + 1):
            if gcd(u, v) != 1:
                continue
            t = sum(c * u**i * v ** (6 - i) for i, c in enumerate(coeffs))
            if t >= 0 and (s := naive_square_root(t)) is not None:
                out.append((u, v, s))
    return out


def test_backend_exports():
    assert callable(_backend.convolve)
    assert callable(_backend.search_sextic)
    assert isinstance(_backend.COMPILED, bool)


def test_convolve_matches_naive_randomized():
    rng = random.Random(777)
    for _ in range(100):
        a = [rng.randint(-(10**9), 10**9) for _ in range(rng.randint(0, 20))]
        b = [rng.randint(-(10**9), 10**9) for _ in range(rng.randint(0, 20))]
        n = rng.randint(0, 45)
        assert _backend.convolve(a, b, n) == naive_convolve(a, b, n)


def test_convolve_edge_lengths():
    assert _backend.convolve([], [1, 2], 3) == [0, 0, 0]
    assert _backend.convolve([1, 2], [], 2) == [0, 0]
    assert _backend.convolve([1, 2], [3, 4], 0) == []
    # past len(a) + len(b) - 1 the product is zero-padded
    assert _backend.convolve([1, 2], [3, 4], 6) == [3, 10, 8, 0, 0, 0]


def test_convolve_bignum():
    a = [10**40, -(10**41)]
    b = [3, 7]
    assert _backend.convolve(a, b, 3) == [3 * 10**40, 7 * 10**40 - 3 * 10**41, -7 * 10**41]
    rng = random.Random(778)
    a = [rng.randint(-(2**200), 2**200) for _ in range(12)]
    b = [rng.randint(-(2**300), 2**300) for _ in range(9)]
    assert _backend.convolve(a, b, 25) == naive_convolve(a, b, 25)


def test_perfect_square_root():
    for n in range(2000):
        assert _backend.perfect_square_root(n) == naive_square_root(n)
    rng = random.Random(779)
    for bits in (60, 64, 65, 127, 128, 500, 1000):
        r = rng.getrandbits(bits) | 1 << (bits - 1)
        assert _backend.perfect_square_root(r * r) == r
        assert _backend.perfect_square_root(r * r - 1) is None
        assert _backend.perfect_square_root(r * r + 1) is None


def test_search_matches_brute_force_small():
    for coeffs in SAMPLE_CURVES:
        got = _backend.search_sextic(coeffs, 25)
        assert got == naive_search(coeffs, 25)
        for u, v, s in got:
            t = sum(coeffs[i] * u**i * v ** (6 - i) for i in range(7))
            assert s >= 0 and s * s == t


def test_search_large_coefficients_match_brute_force():
    coeffs = (1 << 80, 0, 0, -(1 << 70), 0, 0, 1)
    got = _backend.search_sextic(coeffs, 6)
    assert got and got == naive_search(coeffs, 6)


def test_search_orders_by_v_then_u():
    got = _backend.search_sextic((0, 0, 0, 0, 0, 0, 1), 4)
    assert got == sorted(got, key=lambda t: (t[1], t[0]))
    assert [(u, v) for u, v, _ in got[:3]] == [(-4, 1), (-3, 1), (-2, 1)]


def test_search_known_points_on_sample_sextic():
    # y^2 = x^6 - 4x^5 + 6x^4 - 6x^3 + 9x^2 - 14x + 9
    pts = _backend.search_sextic((9, -14, 9, -6, 6, -4, 1), 2)
    assert (0, 1, 3) in pts and (-1, 1, 7) in pts and (2, 1, 1) in pts
