"""Exception types shared across the toolkit."""

from __future__ import annotations

import copyreg


class AnosovForgeError(Exception):
    """Base class for all toolkit errors."""

    def __reduce__(self):
        # Rebuild from the stored message and attributes instead of calling
        # __init__ again: subclass constructors take other arguments than the
        # message, and errors raised in `analyze --jobs` workers are pickled
        # back to the parent process.
        return (copyreg.__newobj__, (type(self),), {**self.__dict__, "args": self.args})


class InputError(AnosovForgeError):
    """Malformed input file or payload; carries a field path when available."""

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        super().__init__(f"{field}: {message}" if field else message)


class ShapeMismatch(AnosovForgeError):
    pass


class NonCommuting(AnosovForgeError):
    def __init__(self, i: int, j: int):
        self.i, self.j = i, j
        super().__init__(f"generators {i} and {j} do not commute")


class NotUnimodular(AnosovForgeError):
    def __init__(self, index: int, det):
        self.index, self.det = index, det
        super().__init__(f"generator {index} has determinant {det}, expected +-1")


class NotInvariant(AnosovForgeError):
    def __init__(self, index: int):
        self.index = index
        super().__init__(f"subspace is not invariant under generator {index}")


class EndpointRoot(AnosovForgeError):
    """A Sturm query was made with a root at an interval endpoint."""


class UndecidedAtCap(AnosovForgeError):
    """A certified decision reached a configured precision or search cap
    without settling; the command line reports it as undecided (exit 2)."""


class PrecisionExhausted(UndecidedAtCap):
    """A refinement loop hit the configured bit cap without deciding."""

    def __init__(self, message: str, bits: int):
        self.bits = bits
        super().__init__(f"{message} (precision cap {bits} bits)")


class NotAnosovAction(AnosovForgeError):
    """The action carries an identically-zero Lyapunov functional."""


class UndecidedProportionality(UndecidedAtCap):
    def __init__(self, pair, bits: int):
        self.pair = pair
        self.bits = bits
        super().__init__(
            f"proportionality of functionals {pair} undecided at {bits} bits"
        )


class SingularElement(AnosovForgeError):
    def __init__(self, b):
        self.b = b
        super().__init__(f"element {b} lies on a Lyapunov hyperplane")


class WitnessSearchExhausted(UndecidedAtCap):
    def __init__(self, cap: int):
        self.cap = cap
        super().__init__(f"no integer witness found within scaling cap {cap}")


class DegeneratePlane(AnosovForgeError):
    """The sampled 2-plane failed to separate the kernel traces."""


class NotTNS(AnosovForgeError):
    pass


class SizeCap(AnosovForgeError):
    def __init__(self, needed: int, cap: int):
        self.needed, self.cap = needed, cap
        super().__init__(f"total dimension {needed} exceeds configured cap {cap}")


class RankUnsupported(AnosovForgeError):
    def __init__(self, rank: int):
        self.rank = rank
        super().__init__(f"svg diagrams require rank 2, got rank {rank}")


class UndecidedBoundary(UndecidedAtCap):
    def __init__(self, bits: int):
        self.bits = bits
        super().__init__(f"subresonance boundary undecided at {bits} bits")
