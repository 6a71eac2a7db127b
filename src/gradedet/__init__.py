"""Exact linear algebra over (Gamma, lambda)-commutative algebras.

The library represents scalars in cyclotomic fields exactly, grades
algebras by finite abelian groups with a commutation factor, and computes
graded traces, graded determinants and graded Berezinians through the
J_sigma twist transform, cross-checked by structurally independent oracle
routes and seeded verification sweeps.  The package root exports the
entry points the README documents; the full API lives in the submodules.
"""

from .algebra import det_gauss, make_algebra, preset, twist
from .berezinian import gber, gber0, gber_via_ber_super
from .gdet import (all_ns_multipliers, canonical_sigma, gdet0, gdet0_leibniz,
                   gdet_sigma)
from .gmatrix import GradedMatrix, graded_trace, scalar_action
from .grading import is_ns_multiplier, parity
from .oracles import (complex_embedding, quaternion_norm, run_property_sweeps,
                      trace_via_twist)
from .scalars import CycloScalar, cyclo

__version__ = "0.1.0"

__all__ = [
    "CycloScalar", "GradedMatrix", "all_ns_multipliers", "canonical_sigma",
    "complex_embedding", "cyclo", "det_gauss", "gber", "gber0",
    "gber_via_ber_super", "gdet0", "gdet0_leibniz", "gdet_sigma",
    "graded_trace", "is_ns_multiplier", "make_algebra", "parity", "preset",
    "quaternion_norm", "run_property_sweeps", "scalar_action",
    "trace_via_twist", "twist",
]
