"""Per-layer span tracer, installed from outside the package.

The tracer replaces the public functions and methods that each module of
``gtsingular`` exposes with wrappers that record a span per call: its
duration, the part covered by child spans, and per-layer counts.  Spans are
aggregated in memory (a stack of child-time accumulators) and reported at
the end; nothing is written while the workload runs.

A layer's self time is its span time minus the time of its child spans.  By
construction the self times of all layers, the bookkeeping time and the
untraced remainder ("trace.other") add up to the traced wall time; the
worker checks that sum as a guard on the stack discipline.

Bookkeeping that hashes large operands (the repeat fractions) runs only here,
never in an untraced run, and its time is kept apart as "trace.bookkeeping".
"""

from __future__ import annotations

import importlib
import sys
import time

BOOKKEEPING = "trace.bookkeeping"
OTHER = "trace.other"


class Tracer:
    def __init__(self) -> None:
        self._clock = time.perf_counter
        self._stack: list[list[float]] = [[0.0]]
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, incl_s]
        self.counts: dict[str, int] = {}
        self._seen: dict[str, set] = {}
        self._book = [0.0]
        self._t0 = 0.0

    # -- span recording ----------------------------------------------------

    def start(self) -> None:
        self._stack[:] = [[0.0]]
        self._t0 = self._clock()

    def stop(self) -> float:
        wall = self._clock() - self._t0
        self.stats[OTHER] = [1, wall - self._stack[0][0], wall]
        self.stats[BOOKKEEPING] = [0, self._book[0], self._book[0]]
        return wall

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def seen_before(self, name: str, key) -> bool:
        seen = self._seen.setdefault(name, set())
        if key in seen:
            return True
        seen.add(key)
        return False

    def wrap(self, name: str, fn, before=None, after=None):
        """Wrapper timing fn as a span of layer `name`.

        before(args) runs ahead of the call and its value reaches
        after(args, result, state); both count as bookkeeping.
        """
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        frames = self._stack
        clock = self._clock
        book = self._book

        def traced(*args, **kwargs):
            state = None
            if before is not None:
                b0 = clock()
                state = before(args)
                spent = clock() - b0
                book[0] += spent
                frames[-1][0] += spent
            frame = [0.0]
            frames.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                frames.pop()
                frames[-1][0] += dt
                stats[0] += 1
                stats[1] += dt - frame[0]
                stats[2] += dt
            if after is not None:
                a0 = clock()
                after(args, result, state)
                spent = clock() - a0
                book[0] += spent
                frames[-1][0] += spent
            return result

        traced.__wrapped__ = fn
        return traced

    def selfsum_error(self, wall: float) -> float:
        """|sum of self times - wall| / wall, after stop()."""
        total = sum(s[1] for s in self.stats.values())
        return abs(total - wall) / wall if wall > 0 else 0.0


# -- installation ------------------------------------------------------------


def _package_modules() -> list:
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "gtsingular" or name.startswith("gtsingular."))]


def _rebind(original, replacement) -> None:
    """Point every name in the package that is bound to original at replacement."""
    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _resolve(module_name: str, path: str):
    """(owner, attribute, current value) or None when the target is absent."""
    try:
        owner = importlib.import_module(f"gtsingular.{module_name}")
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        value = owner.__dict__.get(attr)
    else:
        value = getattr(owner, attr, None)
    if value is None:
        return None
    return owner, attr, value


def install(tracer: Tracer, targets) -> list[str]:
    """Wrap each (layer, module, path, hooks) target; returns absent targets."""
    missing = []
    for layer, module_name, path, hooks in targets:
        found = _resolve(module_name, path)
        if found is None:
            missing.append(f"{module_name}.{path}")
            continue
        owner, attr, value = found
        before, after = hooks(tracer, value) if hooks else (None, None)
        wrapped = tracer.wrap(layer, value, before, after)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
        else:
            _rebind(value, wrapped)
    return missing


# -- hooks for the ratio counters ----------------------------------------------


def _gcd_hooks(tracer, fn):
    def after(args, result, _state):
        f, g = args[0], args[1]
        tracer.count("poly.gcd.terms", len(f.terms) + len(g.terms))
        if not result.is_constant():
            tracer.count("poly.gcd.nontrivial")
        if tracer.seen_before("poly.gcd", (f, g)):
            tracer.count("poly.gcd.repeat")

    return None, after


def _divexact_hooks(tracer, fn):
    def after(_args, result, _state):
        if result is None:
            tracer.count("poly.divexact.fail")

    return None, after


def _phi_hooks(tracer, fn):
    info = getattr(fn, "cache_info", None)
    if info is None:
        return None, None

    def before(_args):
        return info().misses

    def after(_args, _result, misses):
        if info().misses == misses:
            tracer.count("gtformulas.phi.hit")

    return before, after


def _act_hooks(tracer, fn):
    def after(args, _result, _state):
        ctx, a, d = args[0], args[1], args[2]
        if tracer.seen_before("distributions.act", (ctx.v, ctx.k, ctx.i, ctx.j, a, d)):
            tracer.count("distributions.act.repeat")

    return None, after


def _cache_get_hooks(tracer, fn):
    def after(_args, result, _state):
        if result is not None:
            tracer.count("cache.hit")

    return None, after


# (layer, module, attribute path, hooks).  Several targets may share a layer.
LIBRARY_TARGETS = [
    ("poly.gcd", "poly", "poly_gcd", _gcd_hooks),
    ("poly.divexact", "poly", "divexact", _divexact_hooks),
    ("poly.mul", "poly", "Polynomial.__mul__", None),
    ("poly.evaluate", "poly", "Polynomial.evaluate", None),
    ("ratfun.construct", "ratfun", "RationalFunction.__init__", None),
    ("ratfun.add", "ratfun", "RationalFunction.__add__", None),
    ("ratfun.mul", "ratfun", "RationalFunction.__mul__", None),
    ("ratfun.derivative", "ratfun", "RationalFunction.derivative", None),
    ("tableau.partial_z1", "tableau", "SingularContext.partial_z1", None),
    ("tableau.shift_subst", "tableau", "shift_subst", None),
    ("skewring.mul", "skewring", "ring_mul_circ", None),
    ("skewring.add", "skewring", "RingElement.__add__", None),
    ("skewring.membership", "skewring", "is_tau_invariant", None),
    ("skewring.membership", "skewring", "is_at_most_one_singular", None),
    ("gtformulas.phi", "gtformulas", "phi_general", _phi_hooks),
    ("gtformulas.bracket", "gtformulas", "bracket", None),
    ("distributions.act", "distributions", "act", _act_hooks),
    ("distributions.evaluate_at_v", "distributions", "evaluate_at_v", None),
    ("distributions.appendix_act", "distributions", "appendix_act", None),
    # generic_act delegates to generic_act_element, which the generic suite
    # calls directly; the span sits on the function that does the work.
    ("distributions.generic_act", "distributions", "generic_act_element", None),
    ("suites.ring", "suites", "ring_suite", None),
    ("suites.singularity", "suites", "singularity_suite", None),
    ("suites.functional", "suites", "functional_suite", None),
    ("suites.module", "suites", "module_suite", None),
    ("suites.appendix", "suites", "appendix_suite", None),
    ("suites.generic", "suites", "generic_suite", None),
    ("suites.homomorphism", "gtformulas", "verify_homomorphism", None),
    ("cache.get", "cache", "Cache.get", _cache_get_hooks),
    ("cache.put", "cache", "Cache.put", None),
    ("textform.parse", "textform", "parse_rf", None),
    ("textform.parse", "textform", "parse_frac", None),
    ("textform.format", "textform", "poly_text", None),
    ("textform.format", "textform", "rf_text", None),
    ("textform.format", "textform", "frac_text", None),
]

SUITE_LAYERS = ["ring", "singularity", "functional", "module", "appendix", "generic",
                "homomorphism"]


def merge(into: dict, stats: dict, counts: dict) -> None:
    """Add one traced process's stats and counts to an accumulator."""
    acc_stats = into.setdefault("stats", {})
    acc_counts = into.setdefault("counts", {})
    for name, (calls, self_s, incl_s) in stats.items():
        cur = acc_stats.setdefault(name, [0, 0.0, 0.0])
        cur[0] += calls
        cur[1] += self_s
        cur[2] += incl_s
    for name, n in counts.items():
        acc_counts[name] = acc_counts.get(name, 0) + n


def layer_metrics(stats: dict, counts: dict, extra: dict) -> dict[str, float]:
    """The per-layer metric values of one traced round (zeros where a layer
    did not run)."""

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def self_s(name):
        return stats.get(name, [0, 0.0, 0.0])[1]

    def frac(count_name, layer):
        n = calls(layer)
        return counts.get(count_name, 0) / n if n else 0.0

    out: dict[str, float] = {}
    for layer in ("poly.gcd", "poly.divexact", "poly.mul", "poly.evaluate",
                  "ratfun.construct", "ratfun.add", "ratfun.mul", "ratfun.derivative",
                  "tableau.partial_z1", "tableau.shift_subst",
                  "skewring.mul", "skewring.add", "skewring.membership",
                  "gtformulas.phi", "gtformulas.bracket",
                  "distributions.act", "distributions.evaluate_at_v",
                  "distributions.appendix_act", "distributions.generic_act",
                  "cache.get"):
        out[f"{layer}.calls"] = calls(layer)
        out[f"{layer}.self_s"] = self_s(layer)
    out["poly.gcd.nontrivial_frac"] = frac("poly.gcd.nontrivial", "poly.gcd")
    out["poly.gcd.repeat_frac"] = frac("poly.gcd.repeat", "poly.gcd")
    out["poly.gcd.terms_mean"] = frac("poly.gcd.terms", "poly.gcd")
    out["poly.divexact.fail_frac"] = frac("poly.divexact.fail", "poly.divexact")
    out["gtformulas.phi.hit_frac"] = frac("gtformulas.phi.hit", "gtformulas.phi")
    out["distributions.act.repeat_frac"] = frac("distributions.act.repeat",
                                                "distributions.act")
    for suite in SUITE_LAYERS:
        out[f"suites.{suite}.s"] = stats.get(f"suites.{suite}", [0, 0.0, 0.0])[2]
    out["cache.hit_frac"] = frac("cache.hit", "cache.get")
    out["cache.put.self_s"] = self_s("cache.put")
    out["textform.parse.self_s"] = self_s("textform.parse")
    out["textform.format.self_s"] = self_s("textform.format")
    out["trace.other_s"] = self_s(OTHER)
    out["trace.bookkeeping_s"] = self_s(BOOKKEEPING)
    out.update(extra)
    return out
