"""Truncated Laurent series in q with exact rational coefficients.

A series is stored as (valuation, nums, den, precision):

    sum_{k=val}^{prec-1} (nums[k - val] / den) * q**k  +  O(q**prec)

with den > 0, gcd(content(nums), den) == 1, and nums[0] != 0 unless the
series is zero to its precision (then nums == [] and val == prec).
Coefficients at exponents below the valuation are exactly zero; trailing
zero entries are known zeros and count toward the precision.

Precision propagates pessimistically: a product is known only up to the
first exponent that could receive an unknown coefficient, so
prec(a*b) = min(prec(a) + val(b), prec(b) + val(a)).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .algnum import _content
from .errors import SeriesPrecisionError


def _slot_row(count: int, nbytes: int) -> int:
    """sum(2**(8*nbytes - 1) * X**i for i < count) with X = 2**(8*nbytes)."""
    return int.from_bytes((bytes(nbytes - 1) + b"\x80") * count, "little")


def _pack(coeffs: list, nbytes: int, half: int) -> int:
    """sum(c * X**i) with X = 2**(8*nbytes), for |c| < half = X // 2."""
    biased = b"".join((c + half).to_bytes(nbytes, "little") for c in coeffs)
    return int.from_bytes(biased, "little") - _slot_row(len(coeffs), nbytes)


def convolve(a: list, b: list, out_len: int) -> list:
    """First out_len coefficients of the product of integer coefficient lists.

    Kronecker substitution (Harvey, arXiv:0712.4046), the one product of
    the series code: with X = 2**k, A = a(X) and B = b(X) are single
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


class LaurentSeries:
    __slots__ = ("val", "nums", "den", "prec")

    def __init__(self, val: int, nums, den: int = 1, *, _normalized: bool = False):
        nums = list(nums)
        if den == 0:
            raise ZeroDivisionError("series denominator is zero")
        if not _normalized:
            if den < 0:
                den = -den
                nums = [-n for n in nums]
            prec = val + len(nums)
            while nums and nums[0] == 0:
                nums.pop(0)
                val += 1
            if not nums:
                val = prec
                den = 1
            else:
                g = gcd(_content(nums), den)
                if g > 1:
                    nums = [n // g for n in nums]
                    den //= g
            self.val = val
            self.nums = nums
            self.den = den
            self.prec = prec
        else:
            self.val = val
            self.nums = nums
            self.den = den
            self.prec = val + len(nums)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, prec: int) -> "LaurentSeries":
        return cls(prec, [], 1, _normalized=True)

    @classmethod
    def from_fraction(cls, c, prec: int) -> "LaurentSeries":
        c = Fraction(c)
        if c == 0 or prec <= 0:
            return cls.zero(prec)
        return cls(0, [c.numerator] + [0] * (prec - 1), c.denominator)

    # -- inspection ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.nums

    def coeff(self, k: int) -> Fraction:
        if k >= self.prec:
            raise SeriesPrecisionError(
                f"coefficient of q^{k} not determined (precision O(q^{self.prec}))"
            )
        if k < self.val:
            return Fraction(0)
        return Fraction(self.nums[k - self.val], self.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (
            self.val == other.val
            and self.prec == other.prec
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self):
        return hash((self.val, self.prec, self.den, tuple(self.nums)))

    def __repr__(self) -> str:
        terms = []
        for i, n in enumerate(self.nums[:6]):
            if n:
                c = Fraction(n, self.den)
                terms.append(f"{c}*q^{self.val + i}")
        body = " + ".join(terms) if terms else "0"
        if len(self.nums) > 6:
            body += " + ..."
        return f"<LaurentSeries {body} + O(q^{self.prec})>"

    # -- ring operations ----------------------------------------------

    def truncate(self, new_prec: int) -> "LaurentSeries":
        if new_prec > self.prec:
            raise SeriesPrecisionError(
                f"cannot raise precision from {self.prec} to {new_prec}"
            )
        if new_prec <= self.val:
            return LaurentSeries.zero(new_prec)
        return LaurentSeries(self.val, self.nums[: new_prec - self.val], self.den)

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries(
            self.val, [-n for n in self.nums], self.den, _normalized=True
        )

    def __add__(self, other) -> "LaurentSeries":
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        prec = min(self.prec, other.prec)
        if self.is_zero():
            return other.truncate(prec)
        if other.is_zero():
            return self.truncate(prec)
        val = min(self.val, other.val)
        if prec <= val:
            return LaurentSeries.zero(prec)
        g = gcd(self.den, other.den)
        den = self.den // g * other.den
        ma = den // self.den
        mb = den // other.den
        out = [0] * (prec - val)
        for i, n in enumerate(self.nums):
            k = self.val + i
            if k >= prec:
                break
            out[k - val] = n * ma
        for i, n in enumerate(other.nums):
            k = other.val + i
            if k >= prec:
                break
            out[k - val] += n * mb
        return LaurentSeries(val, out, den)

    def __sub__(self, other) -> "LaurentSeries":
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "LaurentSeries":
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        prec = min(self.prec + other.val, other.prec + self.val)
        if self.is_zero() or other.is_zero():
            return LaurentSeries.zero(prec)
        out_len = prec - (self.val + other.val)
        if out_len <= 0:
            return LaurentSeries.zero(prec)
        nums = convolve(self.nums, other.nums, out_len)
        return LaurentSeries(self.val + other.val, nums, self.den * other.den)

    def scale(self, c) -> "LaurentSeries":
        """Multiply by an exact rational constant (precision unchanged)."""
        c = Fraction(c)
        if c == 0:
            return LaurentSeries.zero(self.prec)
        return LaurentSeries(
            self.val, [n * c.numerator for n in self.nums], self.den * c.denominator
        )

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by q**k."""
        return LaurentSeries(self.val + k, self.nums, self.den, _normalized=True)

    def __pow__(self, n: int) -> "LaurentSeries":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.invert() ** (-n)
        # q^0 coefficient of the unit series stays known even when self.prec
        # limits higher powers, so track precision through the square chain.
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                break
            base = base * base
        if result is None:
            return LaurentSeries(0, [1] + [0] * (self.prec - self.val - 1), 1)
        return result

    def invert(self) -> "LaurentSeries":
        """Two-sided inverse; requires a nonzero leading coefficient."""
        if self.is_zero():
            raise ZeroDivisionError("cannot invert a series that is zero to precision")
        # b = 1/a for a = sum a_j q^j with a_0 = L: the c_k = L**(k+1) * b_k
        # are integers, c_0 = 1 and c_k = -sum_{j>=1} a_j L**(j-1) c_{k-j}.
        n = len(self.nums)
        lead = self.nums[0]
        w = [0] * n
        power = 1
        for j in range(1, n):
            w[j] = self.nums[j] * power
            power *= lead
        c = [0] * n
        c[0] = 1
        for k in range(1, n):
            s = 0
            for j in range(1, k + 1):
                if w[j]:
                    s += w[j] * c[k - j]
            c[k] = -s
        # b_k = c_k L**(n-1-k) / L**n, times den from a = nums / den
        scale = self.den
        for k in range(n - 1, -1, -1):
            c[k] *= scale
            scale *= lead
        return LaurentSeries(-self.val, c, lead**n)

    def __truediv__(self, other) -> "LaurentSeries":
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self * other.invert()

    def q_derivative(self) -> "LaurentSeries":
        """q * d/dq: multiplies the q**k coefficient by k."""
        nums = [(self.val + i) * n for i, n in enumerate(self.nums)]
        return LaurentSeries(self.val, nums, self.den)

    def rescale_exponent(self, d: int) -> "LaurentSeries":
        """Substitute q -> q**d (d >= 1); precision scales to d * prec."""
        if d < 1:
            raise ValueError("exponent rescale factor must be >= 1")
        if d == 1:
            return self
        if self.is_zero():
            return LaurentSeries.zero(d * self.prec)
        out = [0] * (d * (len(self.nums) - 1) + 1)
        for i, nv in enumerate(self.nums):
            out[d * i] = nv
        pad = d * self.prec - (d * self.val + len(out))
        out.extend([0] * pad)
        return LaurentSeries(d * self.val, out, self.den, _normalized=True)


def _eta_quotient_list(out_len: int) -> list:
    """Coefficients of prod_{n>=1} (1 - q**n) up to q**(out_len-1)."""
    out = [0] * out_len
    out[0] = 1
    # pentagonal number theorem: exponents k(3k-1)/2 carry (-1)^k
    k = 1
    while True:
        e1 = k * (3 * k - 1) // 2
        e2 = k * (3 * k + 1) // 2
        if e1 >= out_len and e2 >= out_len:
            break
        sign = -1 if k & 1 else 1
        if e1 < out_len:
            out[e1] = sign
        if e2 < out_len:
            out[e2] = sign
        k += 1
    return out


def _sigma3_list(out_len: int) -> list:
    """[0, sigma_3(1), ..., sigma_3(out_len-1)] by divisor sieve."""
    out = [0] * out_len
    for d in range(1, out_len):
        cube = d * d * d
        for m in range(d, out_len, d):
            out[m] += cube
    return out


def _build_j(prec: int) -> LaurentSeries:
    """j = E4**3 / Delta with Delta = q * eta**24, to precision O(q**prec)."""
    out_len = prec + 1  # exponents -1 .. prec-1
    eta = LaurentSeries(0, _eta_quotient_list(out_len), 1, _normalized=True)
    sig3 = _sigma3_list(out_len)
    e4 = LaurentSeries(
        0, [1] + [240 * sig3[m] for m in range(1, out_len)], 1, _normalized=True
    )
    return (e4**3 / eta**24).shift(-1)


# the longest j-series built so far in this process; q**-1 + O(q**0) needs no build
_J_LONGEST = [LaurentSeries(-1, [1], 1, _normalized=True)]


def j_expansion(prec: int) -> LaurentSeries:
    """The modular j-function q-expansion: q**-1 + 744 + 196884 q + ...

    Exact integer coefficients, valuation -1, precision O(q**prec).  Every
    call truncates one series per process, the longest built so far; a
    request past it rebuilds it at max(prec, twice its precision).
    """
    if prec < 0:
        raise ValueError("j expansion needs precision >= 0")
    longest = _J_LONGEST[0]
    if longest.prec < prec:
        longest = _J_LONGEST[0] = _build_j(max(prec, 2 * longest.prec))
    # the q**-1 coefficient is 1, so the truncation is already normalized
    return LaurentSeries(-1, longest.nums[: prec + 1], 1, _normalized=True)
