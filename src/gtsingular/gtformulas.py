"""Classical Gelfand-Tsetlin generator images in the skew ring.

The elementary matrices E(r,s) of gl_n map to ring elements: adjacent and
diagonal generators come from the classical tableau formulas, every other
E(r,s) from a fixed commutator bracketing.  The map is a ring homomorphism
for the opposite of the twisted product, a*b = b o a (see `convention`).
"""

from __future__ import annotations

from functools import lru_cache
from math import prod

from .poly import Polynomial
from .ratfun import RationalFunction
from .skewring import RingElement, ring_mul_circ
from .tableau import Shift

GeneratorId = tuple[int, int]


def gl_bracket(x: GeneratorId, y: GeneratorId) -> list[tuple[int, GeneratorId]]:
    """[E_ab, E_cd] = delta_bc E_ad - delta_da E_cb as signed generators."""
    (a, b), (c, d) = x, y
    out: list[tuple[int, GeneratorId]] = []
    if b == c:
        out.append((1, (a, d)))
    if d == a:
        out.append((-1, (c, b)))
    # cancel E_aa - E_aa when both terms coincide
    if len(out) == 2 and out[0][1] == out[1][1]:
        return []
    return out


def _check_gen(n: int, r: int, s: int) -> None:
    if not (1 <= r <= n and 1 <= s <= n):
        raise ValueError(f"generator E({r},{s}) out of range for gl_{n}")


def _xvar(k: int, i: int) -> Polynomial:
    return Polynomial.variable(k, i)


def _ratio(num: list[Polynomial], den: list[Polynomial]) -> RationalFunction:
    """prod(num) / prod(den) for linear factors, the denominator kept
    factored."""
    out = RationalFunction.from_poly(prod(num, start=Polynomial.one()))
    for lin in den:
        out = out / RationalFunction.from_poly(lin)
    return out


def phi_raising(n: int, k: int) -> RingElement:
    """Image of E(k, k+1): shifts sigma(k,i)^-1 with the classical coefficients."""
    if not (1 <= k <= n - 1):
        raise ValueError(f"raising index {k} out of range for gl_{n}")
    terms = []
    for i in range(1, k + 1):
        num = [_xvar(k, i) - _xvar(k + 1, j) for j in range(1, k + 2)]
        den = [_xvar(k, i) - _xvar(k, j) for j in range(1, k + 1) if j != i]
        terms.append((Shift.generator(k, i, -1), -_ratio(num, den)))
    return RingElement(terms)


def phi_lowering(n: int, k: int) -> RingElement:
    """Image of E(k+1, k): shifts sigma(k,i) with the classical coefficients."""
    if not (1 <= k <= n - 1):
        raise ValueError(f"lowering index {k} out of range for gl_{n}")
    terms = []
    for i in range(1, k + 1):
        num = [_xvar(k, i) - _xvar(k - 1, j) for j in range(1, k)]
        den = [_xvar(k, i) - _xvar(k, j) for j in range(1, k + 1) if j != i]
        terms.append((Shift.generator(k, i), _ratio(num, den)))
    return RingElement(terms)


def phi_diagonal(n: int, k: int) -> RingElement:
    """Image of E(k, k): a shift-free row-sum coefficient."""
    if not (1 <= k <= n):
        raise ValueError(f"diagonal index {k} out of range for gl_{n}")
    p = Polynomial.zero()
    for i in range(1, k + 1):
        p = p + _xvar(k, i) + Polynomial.constant(i - 1)
    for i in range(1, k):
        p = p - _xvar(k - 1, i) - Polynomial.constant(i - 1)
    return RingElement.term(RationalFunction.from_poly(p), Shift.identity())


def multiply(convention: str, a: RingElement, b: RingElement) -> RingElement:
    if convention == "circ":
        return ring_mul_circ(a, b)
    if convention == "star":
        return ring_mul_circ(b, a)
    raise ValueError(f"unknown multiplication convention {convention!r}")


def bracket(convention: str, a: RingElement, b: RingElement) -> RingElement:
    return multiply(convention, a, b) - multiply(convention, b, a)


def adjacent_generators(n: int) -> list[GeneratorId]:
    """E(k,k+1), E(k+1,k) for k = 1..n-1, then E(k,k) for k = 1..n."""
    gens: list[GeneratorId] = []
    for k in range(1, n):
        gens.append((k, k + 1))
        gens.append((k + 1, k))
    for k in range(1, n + 1):
        gens.append((k, k))
    return gens


def all_generators(n: int) -> list[GeneratorId]:
    """Every E(r,s) of gl_n, row by row."""
    return [(r, s) for r in range(1, n + 1) for s in range(1, n + 1)]


def convention() -> str:
    """The product that makes the generator map a homomorphism: "star",
    a*b = b o a.  Tier-1 proves the choice: verify_homomorphism passes with
    it at orders 2 and 3 and fails with "circ" at both."""
    return "star"


@lru_cache(maxsize=None)
def phi_general(n: int, r: int, s: int) -> RingElement:
    """Image of any E(r,s), non-adjacent ones via E(r,s) = [E(r,t), E(t,s)]
    with t the neighbor of r toward s."""
    _check_gen(n, r, s)
    if r == s:
        return phi_diagonal(n, r)
    if s == r + 1:
        return phi_raising(n, r)
    if s == r - 1:
        return phi_lowering(n, s)
    t = r + 1 if s > r else r - 1
    return bracket(convention(), phi_general(n, r, t), phi_general(n, t, s))


def phi_combination(n: int, terms: list[tuple[int, GeneratorId]]) -> RingElement:
    out = RingElement.zero()
    for sign, (r, s) in terms:
        out = out + phi_general(n, r, s).scale(sign)
    return out


def verify_homomorphism(n: int) -> dict:
    """Check the commutator identity on all ordered pairs of elementary
    matrices; returns a machine-readable report."""
    conv = convention()
    gens = all_generators(n)
    checks = []
    failures = []
    for x in gens:
        for y in gens:
            lhs = bracket(conv, phi_general(n, *x), phi_general(n, *y))
            rhs = phi_combination(n, gl_bracket(x, y))
            ok = lhs == rhs
            entry = {"pair": [list(x), list(y)], "equal": ok}
            if not ok:
                diff = lhs - rhs
                sigma = diff.support()[0]
                entry["counterexample"] = {
                    "shift": sigma.to_json(),
                    "coeff": repr(diff.coeff(sigma)),
                }
                failures.append(entry)
            checks.append(entry)
    return {
        "suite": "homomorphism",
        "n": n,
        "convention": conv,
        "total": len(checks),
        "passed": sum(1 for c in checks if c["equal"]),
        "ok": not failures,
        "checks": checks,
        "failures": failures,
    }
