"""Run-wide configuration: the precision cap."""

from __future__ import annotations

from dataclasses import dataclass

INITIAL_BITS = 64
"""Precision at which every doubling refinement loop starts."""


@dataclass(frozen=True)
class ToolkitConfig:
    """The precision cap used by every certified routine.

    The doubling refinement loops run from INITIAL_BITS up to
    precision_cap_bits; a decision still open at the cap is undecided.
    An action file sets the cap in its embedded options.
    """

    precision_cap_bits: int = 4096


DEFAULT_CONFIG = ToolkitConfig()
