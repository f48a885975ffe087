"""Exact shift-operator algebra on Gelfand-Tsetlin tableaux.

Sparse rational-function arithmetic, the skew group ring of shift
operators, the classical generator images, and the distribution module at
a 1-singular base point, all over exact rationals with decidable equality.

Each public name is imported from its module on first use (PEP 562), so
`import gtsingular` alone loads no module of the package.
"""

import importlib

# module -> the names it exports here, in the order of __all__
_EXPORTS = {
    "poly": ("Polynomial", "divexact"),
    "ratfun": ("PoleError", "RationalFunction"),
    "tableau": (
        "Point",
        "PointClass",
        "Shift",
        "SingularContext",
        "apply_shift",
        "canonical_context",
        "canonical_test_point",
        "classify_point",
        "shift_subst",
    ),
    "skewring": (
        "RingElement",
        "apply_to_function",
        "is_at_most_one_singular",
        "is_tau_invariant",
        "ring_mul_circ",
    ),
    "gtformulas": (
        "convention",
        "gl_bracket",
        "phi_general",
        "verify_homomorphism",
    ),
    "distributions": (
        "BasisVec",
        "DistVector",
        "InvariantViolation",
        "MembershipError",
        "OrbitVector",
        "act",
        "act_lie",
        "appendix_act",
        "apply_dist",
        "evaluate_at_v",
        "generic_act",
        "materialize",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = list(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
