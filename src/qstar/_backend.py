"""A stub kept for the benchmark's set-up.

The kernels that lived here moved to their callers: ``convolve`` to
``series``, ``search_sextic`` to ``hyperelliptic`` and
``perfect_square_root`` to ``algnum``.
"""

# perfbench/run.py probe() imports this module and records the flag; both
# go together in a change to the benchmark alone.
COMPILED = False
