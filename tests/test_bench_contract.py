"""The benchmark in perfbench/ finds the library's functions by name.

A rename or a deletion in the package would otherwise zero a traced layer
without a sound, or crash a workload only when the benchmark runs.  The
tracer is read here, never installed.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# The disk cache was deleted; the tracer still lists its two methods.  The
# rational-function expression parser was deleted too; parse_frac still
# feeds the tracer's textform.parse layer.  The polynomial gcd was deleted
# when every denominator became a product of linear forms; the tracer still
# lists poly_gcd, and its poly.gcd layer reads zero.  The symbolic
# derivative and the z1-derivative built on it were deleted when no library
# code called them; their ratfun.derivative and tableau.partial_z1 layers
# read zero as they did before.
KNOWN_ABSENT = {
    "cache.Cache.get",
    "cache.Cache.put",
    "textform.parse_rf",
    "poly.poly_gcd",
    "ratfun.RationalFunction.derivative",
    "tableau.SingularContext.partial_z1",
}

# The names worker.py binds to package modules.
WORKER_ALIASES = {
    "g": "gtformulas",
    "self.g": "gtformulas",
    "gtformulas": "gtformulas",
    "s": "suites",
    "self.suites": "suites",
    "suites": "suites",
    "tableau": "tableau",
}


def load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def module(name):
    return importlib.import_module(f"gtsingular.{name}")


def test_traced_layers_resolve():
    tracer = load_tracer()
    absent = {
        f"{mod}.{path}"
        for _, mod, path, _ in tracer.LIBRARY_TARGETS
        if tracer._resolve(mod, path) is None
    }
    assert absent == KNOWN_ABSENT


def imported_names(tree):
    """{local name: (module, name)} for each name the script imports from a
    package module."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("gtsingular."):
            mod = node.module.split(".", 1)[1]
            imported.update({alias.asname or alias.name: (mod, alias.name) for alias in node.names})
    return imported


def package_names(tree):
    """(module, dotted path) for each package name the script uses: a name
    it imports from a package module, an attribute of a package-module
    alias, and an attribute of an imported name, such as
    DistVector.from_terms."""
    imported = imported_names(tree)
    yield from imported.values()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            owner = ast.unparse(node.value)
            if owner in WORKER_ALIASES:
                yield WORKER_ALIASES[owner], node.attr
            elif owner in imported:
                mod, name = imported[owner]
                yield mod, f"{name}.{node.attr}"


def resolves(mod, path) -> bool:
    owner = module(mod)
    for part in path.split("."):
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return True


def test_worker_names_exist():
    tree = ast.parse((PERFBENCH / "worker.py").read_text(encoding="utf-8"))
    probes = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Probe":
            owner = WORKER_ALIASES[ast.unparse(node.args[0])]
            names = ast.literal_eval(node.args[1])
            probes += [(owner, n) for n in ([names] if isinstance(names, str) else names)]
    assert len(probes) >= 8
    for mod, path in probes + list(package_names(tree)):
        assert resolves(mod, path), f"worker.py uses gtsingular.{mod}.{path}"


def test_record_reference_names_exist():
    """record_reference.py, which re-records the outputs the benchmark
    checks against, uses only names the package has: each name it imports
    and each attribute it reads of one."""
    tree = ast.parse((PERFBENCH / "record_reference.py").read_text(encoding="utf-8"))
    used = set(package_names(tree))
    assert ("distributions", "DistVector.from_terms") in used
    assert {name for _, name in imported_names(tree).values()} >= {
        "DistVector", "act", "gl_bracket", "phi_combination", "phi_general", "Shift",
        "canonical_context"}
    for mod, path in sorted(used):
        assert resolves(mod, path), f"record_reference.py uses gtsingular.{mod}.{path}"


def worker_calls(tree):
    """(module, name, call) for each call worker.py makes on a package-module
    alias or on a name it imports from the package."""
    imported = imported_names(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and ast.unparse(func.value) in WORKER_ALIASES:
            yield WORKER_ALIASES[ast.unparse(func.value)], func.attr, node
        elif isinstance(func, ast.Name) and func.id in imported:
            yield (*imported[func.id], node)


def test_worker_calls_bind():
    """Each call binds to the callee's signature (positional count and keyword
    names), so a signature edit fails here rather than in a benchmark run."""
    tree = ast.parse((PERFBENCH / "worker.py").read_text(encoding="utf-8"))
    bound = set()
    for mod, name, call in worker_calls(tree):
        if any(isinstance(arg, ast.Starred) for arg in call.args) or any(
            kw.arg is None for kw in call.keywords
        ):
            continue  # the argument count is not known from the source
        sig = inspect.signature(getattr(module(mod), name))
        try:
            sig.bind(*call.args, **{kw.arg: kw.value for kw in call.keywords})
        except TypeError as exc:
            raise AssertionError(
                f"worker.py:{call.lineno} {ast.unparse(call)} does not fit "
                f"gtsingular.{mod}.{name}{sig}: {exc}"
            ) from None
        bound.add(name)
    assert {"module_suite", "ring_suite", "singularity_suite", "functional_suite",
            "appendix_suite", "generic_suite", "verify_homomorphism"} <= bound


def test_phi_hit_counter_reads_the_image_builder():
    """The tracer counts a gtformulas.phi hit when a phi_general call builds
    no image; it reads the builder's counters through phi_general.cache_info.
    A first build counts no hit, and a lookup of a built image, at any
    order, counts one."""
    from gtsingular import gtformulas

    traced = load_tracer()
    tracer = traced.Tracer()
    before, after = traced._phi_hooks(tracer, gtformulas.phi_general)
    assert before is not None and after is not None
    phi = tracer.wrap("gtformulas.phi", gtformulas.phi_general, before, after)
    gtformulas._image.cache_clear()
    phi(3, 1, 2)
    assert tracer.counts.get("gtformulas.phi.hit", 0) == 0
    phi(3, 1, 2)
    assert tracer.counts["gtformulas.phi.hit"] == 1
    phi(4, 1, 2)
    assert tracer.counts["gtformulas.phi.hit"] == 2


def test_act_repeat_counter_hashes_what_act_receives():
    """The tracer counts a distributions.act repeat when act meets a
    context, element and vector it has met before.  Its key hashes the ring
    element, and so the element's rational-function coefficients, which no
    untraced run hashes: a first call counts no repeat, and the same image
    on the same label again counts one."""
    from gtsingular import distributions
    from gtsingular.gtformulas import phi_general
    from gtsingular.sparse import BasisVec
    from gtsingular.tableau import Shift, canonical_context

    traced = load_tracer()
    tracer = traced.Tracer()
    before, after = traced._act_hooks(tracer, distributions.act)
    act = tracer.wrap("distributions.act", distributions.act, before, after)
    ctx = canonical_context()
    image, label = phi_general(3, 2, 3), BasisVec("D1", Shift.identity())
    act(ctx, image, label)
    assert tracer.counts.get("distributions.act.repeat", 0) == 0
    act(ctx, image, label)
    assert tracer.counts["distributions.act.repeat"] == 1
