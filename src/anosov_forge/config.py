"""Run-wide configuration knobs."""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from .errors import InputError

ENV_BITS = "ANOSOV_FORGE_BITS"


@dataclass(frozen=True)
class ToolkitConfig:
    """Precision and search limits used by every certified routine.

    initial_bits/precision_cap_bits bound the doubling refinement loops;
    max_den bounds the numerator and denominator of the ratios p/q that
    certify two Lyapunov functionals proportional; witness_cap bounds
    integer witness scaling.
    """

    initial_bits: int = 64
    precision_cap_bits: int = 4096
    max_den: int = 12
    witness_cap: int = 10**6

    def with_env_override(self) -> "ToolkitConfig":
        raw = os.environ.get(ENV_BITS)
        if raw is None:
            return self
        try:
            bits = int(raw)
        except ValueError:
            bits = 0
        # LogLinearValue.sign refines from 32 bits up, so a lower cap leaves
        # every irrational sign undecided
        if bits < 32:
            raise InputError(f"{ENV_BITS} must be an integer >= 32, got {raw!r}")
        return replace(self, precision_cap_bits=bits)


DEFAULT_CONFIG = ToolkitConfig()
