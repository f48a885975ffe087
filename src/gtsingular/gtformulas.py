"""Classical Gelfand-Tsetlin generator images in the skew ring.

E(k,k) of gl_n maps to the row sums, and every other E(r,s) to one sum
over index paths from row r toward row s (`phi_general`).  The paths of
length 1 are the classical formulas for E(k,k+1) and E(k+1,k) (Zhelobenko
1973; Molev, arXiv:math/0211289); the tests check the longer ones against
brackets of neighbouring images, and each off-diagonal coefficient
stores its numerator as its linear factors (`RationalFunction._num_forms`).
The formulas are compatible along gl_1 < ... < gl_n, so an image does not
depend on n: one image per generator is built, and every order shares it.
The map is a ring homomorphism for the opposite of the twisted product,
a*b = b o a = `ring_mul_circ(b, a)` (see `convention`):
`verify_homomorphism` checks every ordered generator pair, each bracket
one pass over its operands' term pairs (`ring_commutator`).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .poly import Polynomial
from .ratfun import RationalFunction, _monic_form
from .skewring import RingElement, ring_commutator
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


def commutator_once(held: dict, x: GeneratorId, y: GeneratorId, build, zero, label=None):
    """The left side of a commutator identity at the ordered pair (x, y),
    for a value antisymmetric by its formula, such as [phi(x), phi(y)] or
    act(x, act(y, D)) - act(y, act(x, D)): `zero` when x == y; the
    negation held for (x, y, label), popped, when the mirror pair came
    first; else `build()`, whose negation is held for (y, x, label).  So
    each unordered pair is built once per label, in the check that first
    needs it, and `held` keeps only values still pending."""
    if x == y:
        return zero
    value = held.pop((x, y, label), None)
    if value is None:
        value = build()
        held[(y, x, label)] = -value
    return value


def bracket(convention: str, a: RingElement, b: RingElement) -> RingElement:
    """a*b - b*a under the named product, in one pass over the term pairs
    (`skewring.ring_commutator`); "star" reverses the operands."""
    if convention == "circ":
        return ring_commutator(a, b)
    if convention == "star":
        return ring_commutator(b, a)
    raise ValueError(f"unknown multiplication convention {convention!r}")


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
    a*b = b o a.  The images do not depend on it; `verify_homomorphism`
    brackets with it, and `perfbench/worker.py` reads it.  Tier-1 proves the
    choice: verify_homomorphism passes with it at orders 2 and 3 and fails
    with "circ" at both."""
    return "star"


@lru_cache(maxsize=None)
def _image(r: int, s: int) -> RingElement:
    """The image of E(r,s) at every order.  E(k,k) maps to the shift-free
    row sum sum_i x(k,i) - sum_i x(k-1,i) + k - 1.  Off the diagonal, with
    step = sign(s - r), each index path i_k in 1..k over the rows k = r..s-1
    (up) or r-1..s (down) gives the shift prod sigma(k,i_k)^-step with
    coefficient -step * prod_k
    prod_{j != i_next} (x(k,i_k) - x(k+step,j)) / prod_{j != i_k} (x(k,i_k) - x(k,j)),
    with i_next the path's index on the next row, every j on the last row.
    Each difference is made monic (`_monic_form`), its unit +-1 folded
    into the sign.  Every numerator form joins two adjacent rows and every
    denominator form lies in one row, so no denominator form divides the
    numerator and the coefficient is canonical as built, with no residue
    test or division.  Each coefficient stores its numerator as its
    factors, (sign, {form: multiplicity}) in `_num_forms`, and builds no
    expanded numerator: `RationalFunction.num` expands it on first use.
    `distributions` reads the jets from the factors, and the transposition
    and the shifts keep them, so an image's tau-invariance is decided with
    no expansion."""
    if r == s:
        p = Polynomial.constant(r - 1)
        for i in range(1, r + 1):
            p = p + Polynomial.variable(r, i)
        for i in range(1, r):
            p = p - Polynomial.variable(r - 1, i)
        return RingElement.term(RationalFunction.from_poly(p), Shift.identity())
    step = 1 if s > r else -1
    rows = range(r, s) if step > 0 else range(r - 1, s - 1, -1)
    terms = {}
    for path in product(*(range(1, k + 1) for k in rows)):
        sign, num, den = -step, {}, {}
        for k, i, nxt in zip(rows, path, path[1:] + (0,)):
            xi = Polynomial.variable(k, i)
            # numerator forms reach the next row, denominator forms row k
            for forms, row, skip in ((num, k + step, nxt), (den, k, i)):
                for j in range(1, row + 1):
                    if j != skip:
                        lc, form = _monic_form(xi - Polynomial.variable(row, j))
                        if lc < 0:
                            sign = -sign
                        forms[form] = forms.get(form, 0) + 1
        shift = Shift({(k, i): -step for k, i in zip(rows, path)})
        terms[shift] = RationalFunction._make(None, den, num_forms=(sign, num))
    return RingElement._raw(terms)


def phi_general(n: int, r: int, s: int) -> RingElement:
    """Image of any E(r,s) of gl_n.  It does not depend on n, which only
    bounds r and s: every order shares the one memoized image (`_image`)."""
    if not (1 <= r <= n and 1 <= s <= n):
        raise ValueError(f"generator E({r},{s}) out of range for gl_{n}")
    return _image(r, s)


phi_general.cache_info = _image.cache_info  # perfbench/tracer.py counts image hits by it


def phi_combination(n: int, terms: list[tuple[int, GeneratorId]]) -> RingElement:
    out = RingElement.zero()
    for sign, (r, s) in terms:
        out = out + phi_general(n, r, s).scale(sign)
    return out


def verify_homomorphism(n: int) -> dict:
    """Check the commutator identity on all ordered pairs of elementary
    matrices; returns a machine-readable report.  Each bracket is built
    once (`commutator_once`): [x,x] is zero, and [y,x] is -[x,y], held
    until its pair comes."""
    conv = convention()
    gens = all_generators(n)
    checks = []
    failures = []
    held: dict = {}
    zero = RingElement.zero()
    for x in gens:
        for y in gens:
            lhs = commutator_once(
                held, x, y, lambda: bracket(conv, phi_general(n, *x), phi_general(n, *y)), zero
            )
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
