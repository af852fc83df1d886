"""The integer kernels against naive reference loops kept here.

convolve lives in series, search_sextic in hyperelliptic and
perfect_square_root in algnum; _backend keeps only the COMPILED flag.
"""

import random
from math import gcd, isqrt

from qstar import _backend
from qstar.algnum import perfect_square_root
from qstar.hyperelliptic import _SIEVE_PRIMES, search_sextic
from qstar.series import convolve

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
    # the kernels live with their callers; _backend keeps only the flag
    assert callable(convolve) and callable(search_sextic) and callable(perfect_square_root)
    assert _backend.COMPILED is False
    assert not hasattr(_backend, "convolve") and not hasattr(_backend, "search_sextic")


def test_convolve_matches_naive_randomized():
    rng = random.Random(777)
    for _ in range(100):
        a = [rng.randint(-(10**9), 10**9) for _ in range(rng.randint(0, 20))]
        b = [rng.randint(-(10**9), 10**9) for _ in range(rng.randint(0, 20))]
        n = rng.randint(0, 45)
        assert convolve(a, b, n) == naive_convolve(a, b, n)


def test_convolve_edge_lengths():
    assert convolve([], [1, 2], 3) == [0, 0, 0]
    assert convolve([1, 2], [], 2) == [0, 0]
    assert convolve([1, 2], [3, 4], 0) == []
    # past len(a) + len(b) - 1 the product is zero-padded
    assert convolve([1, 2], [3, 4], 6) == [3, 10, 8, 0, 0, 0]


def test_convolve_bignum():
    a = [10**40, -(10**41)]
    b = [3, 7]
    assert convolve(a, b, 3) == [3 * 10**40, 7 * 10**40 - 3 * 10**41, -7 * 10**41]
    rng = random.Random(778)
    a = [rng.randint(-(2**200), 2**200) for _ in range(12)]
    b = [rng.randint(-(2**300), 2**300) for _ in range(9)]
    assert convolve(a, b, 25) == naive_convolve(a, b, 25)


def test_perfect_square_root():
    for n in range(2000):
        assert perfect_square_root(n) == naive_square_root(n)
    rng = random.Random(779)
    for bits in (60, 64, 65, 127, 128, 500, 1000):
        r = rng.getrandbits(bits) | 1 << (bits - 1)
        assert perfect_square_root(r * r) == r
        assert perfect_square_root(r * r - 1) is None
        assert perfect_square_root(r * r + 1) is None


def test_search_matches_brute_force_small():
    for coeffs in SAMPLE_CURVES:
        got = search_sextic(coeffs, 25)
        assert got == naive_search(coeffs, 25)
        for u, v, s in got:
            t = sum(coeffs[i] * u**i * v ** (6 - i) for i in range(7))
            assert s >= 0 and s * s == t


def test_search_large_coefficients_match_brute_force():
    coeffs = (1 << 80, 0, 0, -(1 << 70), 0, 0, 1)
    got = search_sextic(coeffs, 6)
    assert got and got == naive_search(coeffs, 6)


def test_search_orders_by_v_then_u():
    got = search_sextic((0, 0, 0, 0, 0, 0, 1), 4)
    assert got == sorted(got, key=lambda t: (t[1], t[0]))
    assert [(u, v) for u, v, _ in got[:3]] == [(-4, 1), (-3, 1), (-2, 1)]


def test_search_known_points_on_sample_sextic():
    # y^2 = x^6 - 4x^5 + 6x^4 - 6x^3 + 9x^2 - 14x + 9
    pts = search_sextic((9, -14, 9, -6, 6, -4, 1), 2)
    assert (0, 1, 3) in pts and (-1, 1, 7) in pts and (2, 1, 1) in pts


# --- the sieve in search_sextic, against brute force ---------------------------


def sextic_square_at(rng, roots, a6):
    """Coefficients (a0, ..., a6) of f = g**2 + h*m, square at each (u, v) in roots.

    h is the product of (v*x - u) over the roots, g a random cubic and m a
    random cofactor; g's leading coefficient is drawn so that a6 comes out
    exactly, which needs a6 to be a square modulo the product of the v.
    """
    h = [1]
    for u, v in roots:
        h = naive_convolve(h, [-u, v], len(h) + 1)
    lead = h[-1]
    g3 = rng.choice([c for c in range(-lead, lead + 1) if (a6 - c * c) % lead == 0])
    g = [rng.randint(-9, 9) for _ in range(3)] + [g3]
    m = [rng.randint(-3, 3) for _ in range(6 - len(roots))] + [(a6 - g3 * g3) // lead]
    return tuple(x + y for x, y in zip(naive_convolve(g, g, 7), naive_convolve(h, m, 7)))


def test_sieve_random_sextics_scaled_leading_coefficient():
    rng = random.Random(1201)
    for a6 in (1, 4, 9, 36):
        for _ in range(8):
            roots = [(rng.randint(-12, 12), rng.randint(1, 12)) for _ in range(2)]
            roots = [(u, v) for u, v in roots if gcd(u, v) == 1]
            coeffs = sextic_square_at(rng, roots, a6)
            height = rng.randint(8, 24)
            got = search_sextic(coeffs, height)
            assert got == naive_search(coeffs, height)
            in_range = {(u, v) for u, v in roots if abs(u) <= height and v <= height}
            assert in_range <= {(u, v) for u, v, _ in got}
        coeffs = tuple(rng.randint(-40, 40) for _ in range(6)) + (a6,)
        assert search_sextic(coeffs, 20) == naive_search(coeffs, 20)


def test_sieve_heights_below_the_largest_sieve_prime():
    # for H <= 22, 2H + 1 < 47: the widest tiles are shorter than one period
    # of their pattern
    curves = SAMPLE_CURVES + [sextic_square_at(random.Random(1202), [(1, 3), (-2, 5)], 1)]
    for coeffs in curves:
        for height in range(1, 31):
            assert search_sextic(coeffs, height) == naive_search(coeffs, height)


def test_sieve_all_coefficients_divisible_by_3_5_7():
    base = sextic_square_at(random.Random(1203), [(1, 2), (-3, 1), (2, 7)], 1)
    # f(u, v) = 0 mod 3, 5 and 7 for every u, v: those primes rule nothing out
    coeffs = tuple(105**2 * c for c in base)
    got = search_sextic(coeffs, 30)
    assert got == naive_search(coeffs, 30)
    assert {(1, 2), (-3, 1), (2, 7)} <= {(u, v) for u, v, _ in got}


def test_sieve_leading_coefficient_nonresidue():
    # a6 = 2 is a non-residue mod 3, 5, 11, 13, 19, 29, 37 and 43: no point
    # has v divisible by those primes. a6 = 7 is a residue mod 3 but not 5.
    # The roots sit at v where a6 is a square: 2 = 3**2 mod 7, 7 = 1 mod 3,
    # -1 = 2**2 mod 5 and 10 = 1 mod 3.
    rng = random.Random(1204)
    for a6, vs in ((2, (1, 7)), (7, (1, 3)), (-1, (1, 5)), (10, (1, 3))):
        for _ in range(4):
            roots = [(rng.choice([-4, -2, -1, 1, 2, 4]), rng.choice(vs)) for _ in range(2)]
            coeffs = sextic_square_at(rng, roots, a6)
            assert coeffs[6] == a6
            assert search_sextic(coeffs, 30) == naive_search(coeffs, 30)


def test_sieve_keeps_points_with_v_divisible_by_sieve_primes():
    # the v = 0 mod p tile must keep every u with a6 * u**6 a square mod p
    roots = [(1, 3), (-2, 5), (3, 7), (1, 15), (2, 21)]
    coeffs = sextic_square_at(random.Random(1205), roots, 1)
    got = search_sextic(coeffs, 25)
    assert got == naive_search(coeffs, 25)
    assert set(roots) <= {(u, v) for u, v, _ in got}


def test_sieve_keeps_points_with_s_divisible_by_each_sieve_prime():
    # For each sieve prime p, (x**3 + p)**2 + x * (x - 1) * h(x) has s = p at
    # x = 0 and s = p + 1 at x = 1, and x * h(x) has s = 0 at x = 0: a sieve
    # that took residue 0 for a non-square would lose these points.
    rng = random.Random(1206)
    for p in _SIEVE_PRIMES:
        h = [rng.randint(-5, 5) for _ in range(4)] + [1]
        xxh = [0, 0] + h  # x**2 * h
        for i in range(1, 6):
            xxh[i] -= xxh[i + 1]  # x * (x - 1) * h
        cube_sq = [p * p, 0, 0, 2 * p, 0, 0, 1]
        coeffs = tuple(a + b for a, b in zip(cube_sq, xxh))
        got = search_sextic(coeffs, 12)
        assert got == naive_search(coeffs, 12)
        assert (0, 1, p) in got and (1, 1, p + 1) in got
        weierstrass = tuple([0] + [rng.randint(-5, 5) for _ in range(5)] + [p])
        got = search_sextic(weierstrass, 12)
        assert got == naive_search(weierstrass, 12)
        assert (0, 1, 0) in got


# --- Kronecker-substitution convolve, against the naive loop ------------------


def test_convolve_one_huge_coefficient_among_units():
    rng = random.Random(1301)
    for _ in range(10):
        a = [rng.choice([-1, 1]) for _ in range(rng.randint(1, 30))]
        b = [rng.choice([-1, 1]) for _ in range(rng.randint(1, 30))]
        a[rng.randrange(len(a))] = rng.choice([-1, 1]) * (2**3000 - rng.getrandbits(64))
        n = rng.randint(1, 65)
        assert convolve(a, b, n) == naive_convolve(a, b, n)
        assert convolve(b, a, n) == naive_convolve(b, a, n)


def test_convolve_all_negative():
    rng = random.Random(1302)
    for _ in range(20):
        a = [-rng.randint(1, 2**70) for _ in range(rng.randint(1, 25))]
        b = [-rng.randint(1, 2**20) for _ in range(rng.randint(1, 25))]
        n = len(a) + len(b) - 1
        got = convolve(a, b, n)
        assert got == naive_convolve(a, b, n) and all(c > 0 for c in got)
        assert convolve(a, [1], len(a)) == a


def test_convolve_long_runs_of_zeros():
    a = [5] + [0] * 200 + [-3] + [0] * 50
    b = [0] * 100 + [7, 0, 0, -2] + [0] * 100
    for n in (1, 100, 101, 305, 306, 460, 600):
        assert convolve(a, b, n) == naive_convolve(a, b, n)
    assert convolve([0] * 40, [0] * 40, 79) == [0] * 79
    assert convolve([0] * 40, [9] * 40, 10) == [0] * 10


def test_convolve_out_len_shorter_than_inputs():
    rng = random.Random(1303)
    for _ in range(30):
        a = [rng.randint(-(2**90), 2**90) for _ in range(rng.randint(10, 40))]
        b = [rng.randint(-(2**90), 2**90) for _ in range(rng.randint(10, 40))]
        n = rng.randint(1, min(len(a), len(b)) - 1)
        assert convolve(a, b, n) == naive_convolve(a, b, n)


def test_convolve_length_one():
    for x in (0, 1, -1, 2**100, -(3**200)):
        for y in (0, 1, -1, 7, -(2**64)):
            assert convolve([x], [y], 1) == [x * y]
            assert convolve([x], [y], 3) == [x * y, 0, 0]
            assert convolve([x], [y, 3, -5], 3) == naive_convolve([x], [y, 3, -5], 3)


def test_convolve_coefficients_at_the_slot_width():
    # inputs of full magnitude and one sign make every product coefficient
    # as large as its slot allows, for every bit length mod 8
    for bits_a in range(1, 18):
        for bits_b in range(1, 10):
            for length in (1, 2, 3, 9, 17):
                a = [(1 << bits_a) - 1] * length
                b = [-((1 << bits_b) - 1)] * length
                n = 2 * length - 1
                assert convolve(a, b, n) == naive_convolve(a, b, n)
