"""Exact shift-operator algebra on Gelfand-Tsetlin tableaux.

Sparse rational-function arithmetic, the skew group ring of shift
operators, the classical generator images, and the distribution module at
a 1-singular base point, all over exact rationals with decidable equality.
"""

from .poly import Polynomial, divexact, poly_gcd
from .ratfun import PoleError, RationalFunction
from .tableau import (
    Point,
    PointClass,
    Shift,
    SingularContext,
    apply_shift,
    canonical_context,
    canonical_test_point,
    classify_point,
    shift_subst,
    transpose_subst,
)
from .skewring import (
    RingElement,
    apply_to_function,
    group_act_on_ring,
    is_at_most_one_singular,
    is_tau_invariant,
    ring_mul_circ,
)
from .gtformulas import (
    convention,
    gl_bracket,
    phi_diagonal,
    phi_general,
    phi_lowering,
    phi_raising,
    verify_homomorphism,
)
from .distributions import (
    BasisVec,
    DerivTabVec,
    DistVector,
    InvariantViolation,
    MembershipError,
    OrbitVector,
    act,
    act_lie,
    appendix_act,
    apply_dist,
    basis_correspondence,
    basis_correspondence_inverse,
    dist_functional,
    evaluate_at_v,
    generic_act,
    materialize,
)

__version__ = "0.1.0"

__all__ = [
    "Polynomial",
    "divexact",
    "poly_gcd",
    "PoleError",
    "RationalFunction",
    "Point",
    "PointClass",
    "Shift",
    "SingularContext",
    "apply_shift",
    "canonical_context",
    "canonical_test_point",
    "classify_point",
    "shift_subst",
    "transpose_subst",
    "RingElement",
    "apply_to_function",
    "group_act_on_ring",
    "is_at_most_one_singular",
    "is_tau_invariant",
    "ring_mul_circ",
    "convention",
    "gl_bracket",
    "phi_diagonal",
    "phi_general",
    "phi_lowering",
    "phi_raising",
    "verify_homomorphism",
    "BasisVec",
    "DerivTabVec",
    "DistVector",
    "InvariantViolation",
    "MembershipError",
    "OrbitVector",
    "act",
    "act_lie",
    "appendix_act",
    "apply_dist",
    "basis_correspondence",
    "basis_correspondence_inverse",
    "dist_functional",
    "evaluate_at_v",
    "generic_act",
    "materialize",
]
