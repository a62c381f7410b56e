"""The precision cap and the one schedule of every refinement loop.

A certified routine takes the cap as a plain int, `cap`, and refines at
each precision of `precisions(cap)`; a decision still open after the last
one raises PrecisionExhausted (undecided).  An action file sets the cap in
its embedded options.
"""

from __future__ import annotations

INITIAL_BITS = 64
"""Precision at which every doubling refinement loop starts."""

DEFAULT_CAP = 4096
"""Precision cap, in bits, of a file that embeds none."""

REPORT_BITS = 128
"""Precision of every certified value a report renders."""


def precisions(cap: int):
    """INITIAL_BITS, then doubling, with the last step clamped to cap:
    64, 100 for cap 100.  Nothing when cap < INITIAL_BITS."""
    bits = INITIAL_BITS
    while bits < cap:
        yield bits
        bits *= 2
    if cap >= INITIAL_BITS:
        yield cap
