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
    """The only integer in the real interval x, or None if there is not one.

    Reads the raw endpoints, so the test is exact at any precision.
    """
    a, b = x._mpi_
    lo = libmp.to_int(a, "c")
    hi = libmp.to_int(b, "f")
    return lo if lo == hi else None


def ceil_upper(x) -> int:
    """The least integer at or above every point of the real interval x."""
    return libmp.to_int(x._mpi_[1], "c")
