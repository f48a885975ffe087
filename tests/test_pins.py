"""Output pins: digests of printed canonical forms, recorded once and
compared byte for byte.  A change to the coefficient representation must
leave every one of them as it is."""

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

from gtsingular.cli import main
from gtsingular.gtformulas import phi_general
from gtsingular.poly import Polynomial
from gtsingular.ratfun import RationalFunction
from gtsingular.suites import DEFAULT_SEED, random_generator_form, random_ring_element
from gtsingular.tableau import canonical_context
from gtsingular.textform import rf_text
from tests_helpers import mono_degree, rf_derivative

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
VARS = [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)]


def sha16(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def rational_poly(rng, max_terms, max_deg):
    """A nonzero polynomial with coefficients p/q, |p| <= 5, q <= 4."""
    p = Polynomial.zero()
    while p.is_zero():
        for _ in range(rng.randint(1, max_terms)):
            mono = {}
            for _ in range(rng.randint(0, max_deg)):
                v = rng.choice(VARS)
                mono[v] = mono.get(v, 0) + 1
            c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            p = p + Polynomial.term(tuple(sorted(mono.items())), c)
    return p


def rational_linear(rng):
    """c * (x_a - x_b + m) with rational c and m: a non-monic linear form."""
    a, b = rng.sample(VARS, 2)
    form = Polynomial.variable(*a) - Polynomial.variable(*b)
    form = form + Polynomial.constant(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    return form.scale(Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 3)))


def random_rf(rng):
    """A numerator over one to three non-monic linear forms."""
    f = RationalFunction.from_poly(rational_poly(rng, 4, 2))
    for _ in range(rng.randint(1, 3)):
        f = f / RationalFunction.from_poly(rational_linear(rng))
    return f


def rf_texts(seed: int, count: int) -> list[str]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        f, g = random_rf(rng), random_rf(rng)
        v, w = rng.sample(VARS, 2)
        results = [f, g, f + g, f - g, f * g, f**2, rf_derivative(f, v), f.swap_vars(v, w),
                   f.subs_offsets({v: Fraction(-1, 2), w: Fraction(1)})]
        # only a numerator of degree at most 1 has a reciprocal
        if mono_degree(g.num.leading_monomial()) <= 1:
            results.append(f / g)
        out += [rf_text(h) for h in results]
    return out


def test_rf_text_digest_pinned():
    texts = rf_texts(seed=2024, count=30)
    assert any("/(" in t for t in texts)
    assert sha16("\n".join(texts)) == "56714bf3299ecd81"


def test_order4_images_match_reference():
    images = json.loads(REFERENCE.read_text(encoding="utf-8"))["homomorphism"]["images_n4"]
    assert len(images) == 16
    for r in range(1, 5):
        for s in range(1, 5):
            text = json.dumps(phi_general(4, r, s).to_json(), sort_keys=True, separators=(",", ":"))
            assert sha16(text) == images[f"{r},{s}"], (r, s)


def test_phi_n4_json_stdout_pinned(capsys):
    cli = json.loads(REFERENCE.read_text(encoding="utf-8"))["cli"]
    assert main(["phi", "--n", "4", "--gen", "1,4", "--format", "json"]) == 0
    assert sha16(capsys.readouterr().out) == cli["phi-n4-14-json"]["stdout"]


def draws_digest(draws) -> str:
    return sha16(json.dumps([e.to_json() for e in draws], sort_keys=True))


def test_shipped_draws_pinned():
    """The samplers' draws at the shipped seed: the 600 ring elements of a
    200-triple `ring_suite` and the first 100 generator forms of
    `singularity_suite` and `functional_suite` at the shipped context.
    Every seeded report reads these draws, so a faster sampler must keep
    them.  A deliberate change of the draws (such as one that stops
    `random_ring_element` from drawing the zero element about a third of
    the time) must update both pins and say so in CHANGES.md."""
    rng = random.Random(DEFAULT_SEED)
    ring = [random_ring_element(rng, 3) for _ in range(600)]
    assert sum(1 for e in ring if e.is_zero()) == 211
    assert draws_digest(ring) == "a6a7b1af7b6473f0"
    rng, ctx = random.Random(DEFAULT_SEED), canonical_context()
    forms = [random_generator_form(rng, ctx) for _ in range(100)]
    assert draws_digest(forms) == "575e81a76be406c0"
