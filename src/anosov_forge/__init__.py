"""anosov_forge: certified computations for higher-rank abelian actions by
toral and nilmanifold automorphisms.

Every numerical answer is backed by an exact certificate: algebraic numbers
are (minimal polynomial, isolated root) pairs, Lyapunov exponents are exact
integer combinations of logarithms of root moduli, and sign decisions either
terminate with a proof or raise a precision-cap error — they are never
silently rounded.
"""

from .actions import ValidatedAction, is_semisimple, is_totally_reducible, validate
from .errors import AnosovForgeError
from .freenil import free_nilpotent_lift, hall_basis, witt_dimension
from .graded import GradedAlgebraAction, is_totally_reducible_graded, validate_graded
from .normalforms import ContractionSpectrum, sr_group_dimension, subresonance_indices
from .report import audit_action, audit_graded, exit_code_for, report_to_json
from .weyl import (
    CoarseClass,
    LyapunovFunctional,
    WeylChamber,
    anosov_in_every_chamber,
    coarse_classes,
    complementary_splitting,
    fast_stable_element,
    is_tns,
    lyapunov_data,
    stable_set,
    weyl_chambers,
)

__version__ = "0.1.0"

__all__ = [
    "AnosovForgeError",
    "CoarseClass",
    "ContractionSpectrum",
    "GradedAlgebraAction",
    "LyapunovFunctional",
    "ValidatedAction",
    "WeylChamber",
    "anosov_in_every_chamber",
    "audit_action",
    "audit_graded",
    "coarse_classes",
    "complementary_splitting",
    "exit_code_for",
    "fast_stable_element",
    "free_nilpotent_lift",
    "hall_basis",
    "is_semisimple",
    "is_tns",
    "is_totally_reducible",
    "is_totally_reducible_graded",
    "lyapunov_data",
    "report_to_json",
    "sr_group_dimension",
    "stable_set",
    "subresonance_indices",
    "validate",
    "validate_graded",
    "weyl_chambers",
    "witt_dimension",
]
