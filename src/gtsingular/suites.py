"""Named verification sweeps over the algebra, seeded and deterministic.

Each suite returns a JSON-ready report dict with an "ok" flag, counts, and
failure details (`gtformulas._report`); the CLI maps suite names onto
these functions.  The module and orbit suites run the commutator identity
through `gtformulas.commutator_checks`, as `verify_homomorphism` does on
the ring, and keep only how their sides are built and acted.  A suite
reads its order from its inputs (an order, a singular context or a point),
so every default generator list and sample follows that order.

The seeded suites draw their inputs with the samplers below, from an `rng`
that is a `random.Random`.  A sampler's draws, in order, are part of the
input of every seeded report: a change that keeps each returned value but
moves, adds or drops one draw changes every later draw.  Each integer draw
is `rng.randint(lo, hi)` as CPython makes it, read straight from
`rng.getrandbits`: for the width w = hi - lo + 1 and k = w.bit_length(),
r = getrandbits(k) is drawn again while r >= w, and the draw is lo + r;
`rng.choice(seq)` is seq[r] for w = len(seq).  `_randint` holds the rule
and the hot loops run it inline.  The samplers build a polynomial's terms
as integers over the denominator 2 and make one canonical polynomial from
them, and a shift from its nonzero integer components, with no Fraction.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

from .distributions import (
    DistVector,
    OrbitVector,
    act,
    act_lie,
    appendix_act,
    apply_dist,
    evaluate_at_v,
    generic_act,
    generic_act_element,
)
from .gtformulas import (
    _report,
    adjacent_generators,
    all_generators,
    commutator_checks,
    phi_combination,
)
from .poly import Monomial, Polynomial, _normal, _var_mono
from .ratfun import RationalFunction
from .skewring import (
    RingElement,
    apply_to_function,
    group_act_on_ring,
    is_at_most_one_singular,
    is_tau_invariant,
    ring_mul_circ,
)
from .sparse import add_term
from .tableau import Point, Shift, SingularContext, canonical_context, positions

DEFAULT_SEED = 318


def sample_basis(ctx: SingularContext) -> list[tuple[str, Shift]]:
    """The documented sample vectors for the module sweeps: ordered
    representatives within radius 2 of the identity at the singular pair."""
    pos_i, pos_j = ctx.pos_i, ctx.pos_j
    return [
        ("D1", Shift.identity()),
        ("D1", Shift({pos_i: 1, pos_j: 1})),
        ("D2", Shift({pos_j: 1})),
        ("D2", Shift({pos_j: 2})),
    ]


def appendix_sample(ctx: SingularContext) -> list[tuple[str, Shift]]:
    """The module sample plus two vectors that also move position (1,1)."""
    return sample_basis(ctx) + [
        ("D1", Shift({(1, 1): 1})),
        ("D2", Shift({(1, 1): 1, ctx.pos_j: 1})),
    ]


# --- samplers -----------------------------------------------------------------


@lru_cache(maxsize=None)
def _variables(n: int) -> tuple[Monomial, ...]:
    """The monomials x_v over the positions of order n, in `positions`
    order; ValueError past MAX_ORDER."""
    return tuple(_var_mono(v) for v in positions(n))


def _randint(rng: random.Random, lo: int, hi: int) -> int:
    """rng.randint(lo, hi) for lo <= hi, with its draws: for w = hi - lo + 1
    and k = w.bit_length(), getrandbits(k) again while it is >= w (CPython's
    `_randbelow`)."""
    w = hi - lo + 1
    k = w.bit_length()
    r = rng.getrandbits(k)
    while r >= w:
        r = rng.getrandbits(k)
    return lo + r


def random_shift(rng: random.Random, n: int, radius: int = 1) -> Shift:
    """One `randint(-radius, radius)` per position of order n - 1, in
    `positions` order; the nonzero draws are the components."""
    getrandbits = rng.getrandbits
    w = 2 * radius + 1
    k = w.bit_length()
    out = {}
    for v in positions(n - 1):
        r = getrandbits(k)
        while r >= w:
            r = getrandbits(k)
        if r != radius:
            out[v] = r - radius
    return Shift._raw(out)


def random_polynomial(
    rng: random.Random,
    n: int,
    max_terms: int = 3,
    max_deg: int = 3,
    zero_ok: bool = True,
) -> Polynomial:
    """A sum of up to max_terms terms (a/b)·m.  The draws, in order: the
    term count randint(0, max_terms) (from 1 when zero_ok is false), then
    per term a = randint(-3, 3), b = randint(1, 2) and randint(0, max_deg)
    `choice`s of a variable of order n, whose product is m.  Each term is
    the integer a·(2/b) over the denominator 2, so the sum is one integer
    map and one canonical polynomial; a zero or cancelling term drops out.
    With zero_ok false, a zero sum is drawn again.  ValueError for an
    order past MAX_ORDER, before any draw."""
    variables = _variables(n)
    getrandbits = rng.getrandbits
    # (width, bits) of the degree draw and of the variable choice; a is
    # randint(-3, 3) + 3 (3 bits below 7) and b is randint(1, 2) - 1 (2 bits
    # below 2), so a·(2/b) of the docstring is (a - 3)·(2 - b)
    wd = max_deg + 1
    kd = wd.bit_length()
    wv = len(variables)
    kv = wv.bit_length()
    lo = 0 if zero_ok else 1
    while True:
        acc: dict = {}
        for _ in range(_randint(rng, lo, max_terms)):
            a = getrandbits(3)
            while a >= 7:
                a = getrandbits(3)
            b = getrandbits(2)
            while b >= 2:
                b = getrandbits(2)
            c = (a - 3) * (2 - b)
            d = getrandbits(kd)
            while d >= wd:
                d = getrandbits(kd)
            mono = 0
            for _ in range(d):
                r = getrandbits(kv)
                while r >= wv:
                    r = getrandbits(kv)
                mono += variables[r]
            add_term(acc, mono, c)
        if zero_ok or acc:
            return _normal(acc, 2)


def random_rational(rng: random.Random, n: int) -> RationalFunction:
    """A numerator over a 1 or a linear denominator.  The draws, in order:
    the numerator random_polynomial(max_terms=3, max_deg=3), one
    rng.random(), and, when that is at least 0.5, the denominator
    random_polynomial(max_terms=2, max_deg=1, zero_ok=False)."""
    num = random_polynomial(rng, n, max_terms=3, max_deg=3)
    if rng.random() < 0.5:
        return RationalFunction.from_poly(num)
    den = random_polynomial(rng, n, max_terms=2, max_deg=1, zero_ok=False)
    return RationalFunction(num, den)


def random_ring_element(rng: random.Random, n: int) -> RingElement:
    """A sum of up to three terms f·sigma.  The draws, in order: the term
    count randint(0, 3), then per term the shift random_shift(n) and the
    coefficient random_rational(n); terms on one shift add, and a zero
    coefficient drops out."""
    terms: dict = {}
    for _ in range(_randint(rng, 0, 3)):
        add_term(terms, random_shift(rng, n), random_rational(rng, n))
    return RingElement._raw(terms)


def random_generator_form(rng: random.Random, ctx: SingularContext) -> RingElement:
    """A tau-invariant element with coefficients H/z1, H polynomial: the
    symmetrization a + tau a of a random polynomial-over-z1 sum a.  The
    draws, in order: the term count randint(1, 2), then per term
    H = random_polynomial(max_terms=2, max_deg=1, zero_ok=False) and the
    shift random_shift(n)."""
    terms: dict = {}
    for _ in range(_randint(rng, 1, 2)):
        h = random_polynomial(rng, ctx.n, max_terms=2, max_deg=1, zero_ok=False)
        add_term(terms, random_shift(rng, ctx.n), RationalFunction(h, ctx.z1_poly))
    a = RingElement._raw(terms)
    return a + group_act_on_ring(ctx, a)


def random_invariant_polynomial(rng: random.Random, ctx: SingularContext) -> Polynomial:
    """A nonzero tau-invariant test function g + tau g, g a nonzero draw of
    `random_polynomial`; g is drawn again while g + tau g is zero (g
    tau-odd), since the zero function pairs to 0 with every vector."""
    while True:
        g = random_polynomial(rng, ctx.n, max_terms=3, max_deg=4, zero_ok=False)
        f = g + ctx.transpose(g)
        if not f.is_zero():
            return f


# --- suites -------------------------------------------------------------------


def ring_suite(n: int = 3, count: int = 200, seed: int = DEFAULT_SEED) -> dict:
    """Associativity and distributivity of the twisted product on random
    triples, plus the two-sided unit.  Each triple's a b, b c and a c are
    built once and serve every law that reads them."""
    rng = random.Random(seed)
    failures = []
    one = RingElement.one()
    for idx in range(count):
        a = random_ring_element(rng, n)
        b = random_ring_element(rng, n)
        c = random_ring_element(rng, n)
        ab, bc, ac = ring_mul_circ(a, b), ring_mul_circ(b, c), ring_mul_circ(a, c)
        checks = [
            ("assoc", ring_mul_circ(ab, c) == ring_mul_circ(a, bc)),
            ("left-dist", ring_mul_circ(a, b + c) == ab + ac),
            ("right-dist", ring_mul_circ(a + b, c) == ac + bc),
            ("unit", ring_mul_circ(a, one) == a and ring_mul_circ(one, a) == a),
        ]
        for name, ok in checks:
            if not ok:
                failures.append({"triple": idx, "check": name})
    return _report("ring", failures, count, "triple", n=n, seed=seed)


def _anchor_check(ctx: SingularContext) -> bool:
    """The closed-form square of (1/z1)(sigma' - tau sigma'), whose middle
    coefficient's z1-pole cancels exactly."""
    s_i = Shift.generator(ctx.k, ctx.i)
    s_j = Shift.generator(ctx.k, ctx.j)
    z1 = ctx.z1
    one = RationalFunction.one()
    two = RationalFunction.constant(2)
    a = RingElement([(s_i, one / z1), (s_j, -(one / z1))])
    expected = RingElement(
        [
            (s_i * s_i, (one / z1) * (one / (z1 - one))),
            (s_i * s_j, -(two / (z1 - one)) * (one / (z1 + one))),
            (s_j * s_j, (one / z1) * (one / (z1 + one))),
        ]
    )
    return ring_mul_circ(a, a) == expected


def singularity_suite(
    ctx: SingularContext | None = None, count: int = 100, seed: int = DEFAULT_SEED
) -> dict:
    """Products of tau-invariant simple-pole elements stay at most simply
    singular at the base point."""
    ctx = ctx or canonical_context()
    rng = random.Random(seed)
    failures = []
    if not _anchor_check(ctx):
        failures.append({"check": "closed-form-anchor"})
    for idx in range(count):
        length = _randint(rng, 1, 4)
        prod = random_generator_form(rng, ctx)
        for _ in range(length - 1):
            prod = ring_mul_circ(prod, random_generator_form(rng, ctx))
        if not is_tau_invariant(ctx, prod):
            failures.append({"product": idx, "check": "tau-invariance"})
        if not is_at_most_one_singular(ctx, prod):
            failures.append({"product": idx, "check": "at-most-one-singular"})
    return _report("singularity", failures, count + 1, "product", seed=seed)


def module_suite(
    ctx: SingularContext | None = None,
    generators: list | None = None,
    basis_sample: list | None = None,
) -> dict:
    """Commutator identity [phi(x), phi(y)] D = phi([x, y]) D on the
    distribution module for every ordered generator pair and every sample
    basis vector; an empty list of either runs no check.  The left side is
    act(x, act(y, D)) - act(y, act(x, D)) by the generator images
    (`act_lie`), built once per unordered pair and sample vector
    (`commutator_checks`).  The right side builds one element per distinct
    bracket, whose memo (see `act`) serves the bracket's later checks until
    the call returns, and acts with it through `act` once per check."""
    ctx = ctx or canonical_context()
    if generators is None:
        generators = adjacent_generators(ctx.n)
    if basis_sample is None:
        basis_sample = sample_basis(ctx)
    labels = [
        ((kind, sigma), DistVector.from_terms(ctx, [(kind, sigma, 1)]))
        for kind, sigma in basis_sample
    ]
    failures = []
    total = 0
    for x, y, ((kind, sigma), _), lhs, rhs in commutator_checks(
        generators,
        labels,
        lambda x, y, label: act_lie(ctx, x, act_lie(ctx, y, label[1]))
        - act_lie(ctx, y, act_lie(ctx, x, label[1])),
        lru_cache(maxsize=None)(lambda key: phi_combination(ctx.n, key)),
        lambda e, label: act(ctx, e, label[1]),
        DistVector.zero(),
    ):
        total += 1
        if lhs != rhs:
            failures.append(
                {
                    "pair": [list(x), list(y)],
                    "basis": [kind, sigma.to_json()],
                    "lhs": lhs.to_json(),
                    "rhs": rhs.to_json(),
                }
            )
    return _report("module", failures, total, n=ctx.n)


def appendix_suite(
    ctx: SingularContext | None = None,
    generators: list | None = None,
    basis_sample: list | None = None,
) -> dict:
    """The derivative-tableau oracle (`appendix_act`) agrees with the
    module action (`act_lie`) on each generator and sample vector; an empty
    list of either runs no check."""
    ctx = ctx or canonical_context()
    if generators is None:
        generators = all_generators(ctx.n)
    if basis_sample is None:
        basis_sample = appendix_sample(ctx)
    failures = []
    total = 0
    for gen in generators:
        for kind, sigma in basis_sample:
            total += 1
            d = DistVector.from_terms(ctx, [(kind, sigma, 1)])
            lhs = act_lie(ctx, gen, d)
            rhs = appendix_act(ctx, gen, d)
            if lhs != rhs:
                failures.append(
                    {
                        "generator": list(gen),
                        "basis": [kind, sigma.to_json()],
                    }
                )
    return _report("appendix", failures, total, n=ctx.n)


def functional_suite(
    ctx: SingularContext | None = None, count: int = 100, seed: int = DEFAULT_SEED
) -> dict:
    """Expanding at the base point then pairing with a test function agrees
    with acting on the function first and evaluating."""
    ctx = ctx or canonical_context()
    rng = random.Random(seed)
    failures = []
    for idx in range(count):
        a = random_generator_form(rng, ctx)
        if rng.random() < 0.4:
            a = ring_mul_circ(a, random_generator_form(rng, ctx))
        f = random_invariant_polynomial(rng, ctx)
        lhs = apply_dist(ctx, evaluate_at_v(ctx, a), f)
        rhs = apply_to_function(a, RationalFunction.from_poly(f)).evaluate(ctx.v.coords)
        if lhs != rhs:
            failures.append({"pair": idx})
    return _report("functional", failures, count, seed=seed)


GENERIC_POINT_3 = Point.from_rows(
    [
        [Fraction(1, 5)],
        [Fraction(1, 3), Fraction(1, 7)],
        [Fraction(1, 11), Fraction(2, 13), Fraction(3, 17)],
    ]
)

GENERIC_LABELS_3 = [
    Shift.identity(),
    Shift({(1, 1): 1}),
    Shift({(2, 1): 1}),
    Shift({(2, 2): -1}),
    Shift({(2, 1): 1, (2, 2): 1}),
    Shift({(1, 1): -1, (2, 1): 1}),
]


def generic_suite(
    x: Point | None = None, labels: list | None = None, generators: list | None = None
) -> dict:
    """gl_n commutator identities for the orbit action at a generic point
    (order 3 by default); the default labels are those of
    `GENERIC_LABELS_3` that move only rows below the point's order, and an
    empty list of labels or generators runs no check.  The left side runs
    through the memoized `generic_act`, built once per unordered pair and
    label (`commutator_checks`).  The right side runs through
    `generic_act_element` directly, an unmemoized oracle, from one
    `phi_combination` per ordered pair."""
    x = x or GENERIC_POINT_3
    if labels is None:
        labels = [y for y in GENERIC_LABELS_3 if all(k < x.n for k, _ in y.terms)]
    if generators is None:
        generators = all_generators(x.n)
    failures = []
    total = 0
    for xg, yg, y, lhs, rhs in commutator_checks(
        generators,
        labels,
        lambda xg, yg, y: generic_act(x, xg, generic_act(x, yg, y))
        - generic_act(x, yg, generic_act(x, xg, y)),
        lambda key: phi_combination(x.n, key),
        lambda e, y: generic_act_element(x, e, y),
        OrbitVector.zero(),
    ):
        total += 1
        if lhs != rhs:
            failures.append({"pair": [list(xg), list(yg)], "label": y.to_json()})
    return _report("generic", failures, total, n=x.n)
