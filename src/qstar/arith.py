"""Certified interval arithmetic for the class-polynomial builder.

The arithmetic itself is ``mpmath.iv``: every operation rounds its
endpoints outward, so each interval contains the true value.  These
helpers hide the interval format from the caller.
"""

from contextlib import contextmanager

from mpmath import iv, libmp


@contextmanager
def iv_precision(bits: int):
    """Run the block with ``iv.prec = bits``; the setting is process-global."""
    saved = iv.prec
    iv.prec = bits
    try:
        yield
    finally:
        iv.prec = saved


def exp_complex(x, y):
    """q = exp(x + iy) and q**-1 for real intervals x and y."""
    e = iv.exp(x)
    c = iv.cos(y)
    s = iv.sin(y)
    return iv.mpc(e * c, e * s), iv.mpc(c / e, -s / e)


def unique_integer(x):
    """The only integer in the real interval x, or None if there is not one."""
    lo, hi = integer_bounds(x)
    return lo if lo == hi else None


def integer_bounds(x) -> tuple:
    """(least, greatest) integer in the real interval x.

    Reads the raw endpoints, so the rounding is exact at any precision; the
    least exceeds the greatest when x holds no integer.
    """
    a, b = x._mpi_
    return libmp.to_int(a, "c"), libmp.to_int(b, "f")
