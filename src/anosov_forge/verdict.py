"""Three-valued verdicts for decision procedures that may run out of bits."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Verdict3:
    kind: str  # "true" | "false" | "undecided"
    precision_bits: int | None = None

    def __post_init__(self):
        if self.kind not in ("true", "false", "undecided"):
            raise ValueError(self.kind)
        if self.kind == "undecided" and self.precision_bits is None:
            raise ValueError("undecided verdicts carry the abandoned precision")

    @property
    def is_true(self) -> bool:
        return self.kind == "true"

    def __bool__(self):
        raise TypeError("Verdict3 is three-valued; test .is_true explicitly")


VERDICT_TRUE = Verdict3("true")
VERDICT_FALSE = Verdict3("false")


def undecided(bits: int) -> Verdict3:
    return Verdict3("undecided", bits)
