"""Command-line surface: generator images, module actions, point
classification, and the named verification suites.

Exit codes: 0 success (all checks passed), 1 verification failure, 2 usage
or input error, argparse's own included, or a run that exhausts memory
(one stderr line, empty stdout, no traceback).

Each command imports the modules it uses when it runs, so a process loads,
and without bytecode on disk compiles, only those, and renders its result
only in the format asked for.
"""

from __future__ import annotations

import argparse
import importlib
import json
import re
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .distributions import DistVector
    from .tableau import Point, Shift, SingularContext

_SHIFT_ATOM = r"\((\d+),(\d+)\)([+-]\d+)"

# Each suite runs on the order (--n) or on the singular context that
# --point, --n and --singular select.  A suite is named here and looked up
# in this module when it runs, so a wrapper bound to that name (a tracer
# span, a test stub) sees the call; until one is bound, the name resolves
# to the suite in its own module (`__getattr__`).
SUITES = {
    "ring": ("order", "ring_suite"),
    "homomorphism": ("order", "verify_homomorphism"),
    "singularity": ("context", "singularity_suite"),
    "module": ("context", "module_suite"),
    "appendix": ("context", "appendix_suite"),
    "functional": ("context", "functional_suite"),
}


def __getattr__(name: str):
    """A suite's function, imported from its module on first use."""
    if name not in {fn for _, fn in SUITES.values()}:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = "gtformulas" if name == "verify_homomorphism" else "suites"
    return getattr(importlib.import_module(f".{home}", __package__), name)


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def parse_shift_spec(spec: str) -> Shift:
    """Grammar: "id" or comma-separated "(k,i)+m" / "(k,i)-m" atoms."""
    from .tableau import Shift

    spec = spec.strip()
    if spec == "id":
        return Shift.identity()
    body = spec.replace(" ", "")
    if not re.fullmatch(f"{_SHIFT_ATOM}(,{_SHIFT_ATOM})*", body):
        raise UsageError(f"bad shift spec {spec!r}")
    try:
        # Shift sums the components of a repeated position
        atoms = re.findall(_SHIFT_ATOM, body)
        return Shift(((int(k), int(i)), int(off)) for k, i, off in atoms)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def shift_spec(sigma: Shift) -> str:
    if sigma.is_identity():
        return "id"
    return ",".join(
        f"({k},{i})+{m}" if m > 0 else f"({k},{i}){m}" for (k, i), m in sigma.sorted_items()
    )


def parse_basis_spec(spec: str) -> tuple[str, Shift]:
    if ":" not in spec:
        raise UsageError(f"basis spec must look like KIND:SHIFTSPEC, got {spec!r}")
    kind, _, rest = spec.partition(":")
    if kind not in ("D1", "D2"):
        raise UsageError(f"basis kind must be D1 or D2, got {kind!r}")
    return kind, parse_shift_spec(rest)


def parse_int_spec(spec: str, name: str, fields: str) -> tuple[int, ...]:
    """Comma-separated integers, one for each name in `fields` ("r,s")."""
    parts = spec.split(",")
    if len(parts) == len(fields.split(",")):
        try:
            return tuple(int(p) for p in parts)
        except ValueError:
            pass
    raise UsageError(f"{name} spec must be {fields}, got {spec!r}")


class RunConfig:
    def __init__(self, fmt: str = "text"):
        self.n = 3
        self.singular: tuple[int, int, int] | None = None
        self.point: Point | None = None
        self.fmt = fmt

    def resolve_point(self) -> Point:
        from .tableau import canonical_test_point

        if self.point is not None:
            if self.point.n != self.n:
                raise UsageError(f"point has order {self.point.n}, expected {self.n}")
            return self.point
        try:
            return canonical_test_point(self.n)
        except ValueError as exc:
            raise UsageError(f"no default point for order {self.n}; pass --point") from exc

    def resolve_context(self) -> SingularContext:
        from .tableau import SingularContext

        point = self.resolve_point()
        k, i, j = self.singular if self.singular else (2, 1, 2)
        try:
            return SingularContext(point, k, i, j)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc


def _load_point(path: str) -> Point:
    from .tableau import Point

    # besides unreadable files and malformed values: a deeply nested array
    # overflows the parser's recursion
    try:
        return Point.load(path)
    except (
        OSError, json.JSONDecodeError, ValueError, KeyError, TypeError, RecursionError,
    ) as exc:
        raise UsageError(f"cannot read point file {path}: {exc}") from exc


def _config(args) -> RunConfig:
    from .poly import MAX_ORDER

    cfg = RunConfig(fmt=args.format)
    if getattr(args, "n", None) is not None:
        if args.n < 1:
            raise UsageError(f"order must be at least 1, got {args.n}")
        if args.n > MAX_ORDER:
            raise UsageError(f"order must be at most {MAX_ORDER}, got {args.n}")
        cfg.n = args.n
    if getattr(args, "point", None):
        cfg.point = _load_point(args.point)
        if cfg.point.n > MAX_ORDER:
            raise UsageError(f"point has order {cfg.point.n}; the order must be at most {MAX_ORDER}")
        cfg.n = cfg.point.n if getattr(args, "n", None) is None else cfg.n
    if getattr(args, "singular", None):
        cfg.singular = parse_int_spec(args.singular, "singular", "k,i,j")
    return cfg


def dist_vector_text(d: DistVector) -> str:
    if d.is_zero():
        return "0"
    from .textform import frac_text

    return "\n".join(
        f"{bv.kind}:{shift_spec(bv.sigma)} = {frac_text(c)}"
        for bv, c in d.sorted_items()
    )


def verify_text(suite: str, report: dict) -> str:
    lines = [f"suite {suite}: {report['passed']}/{report['total']} passed"]
    for failure in report.get("failures", []):
        lines.append(f"FAIL {json.dumps(failure, sort_keys=True)}")
    return "\n".join(lines)


def _emit(fmt: str, render_json, render_text) -> None:
    """Print the result in the chosen format; only that format's renderer
    runs."""
    if fmt == "json":
        print(json.dumps(render_json(), sort_keys=True, indent=2))
    else:
        print(render_text())


def cmd_phi(args) -> int:
    from .gtformulas import phi_general

    cfg = _config(args)
    r, s = parse_int_spec(args.gen, "generator", "r,s")
    try:
        element = phi_general(cfg.n, r, s)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    _emit(cfg.fmt, element.to_json, lambda: repr(element))
    return 0


def cmd_act(args) -> int:
    from .distributions import DistVector, act_lie

    cfg = _config(args)
    ctx = cfg.resolve_context()
    r, s = parse_int_spec(args.gen, "generator", "r,s")
    kind, sigma = parse_basis_spec(args.basis)
    try:
        result = act_lie(ctx, (r, s), DistVector.from_terms(ctx, [(kind, sigma, 1)]))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    _emit(cfg.fmt, result.to_json, lambda: dist_vector_text(result))
    return 0


def cmd_classify(args) -> int:
    from .tableau import classify_point

    if args.singular:
        raise UsageError("classify takes no --singular; it reports the point's own pair")
    cfg = _config(args)
    cls = classify_point(cfg.resolve_point())
    payload = {"class": cls.tag}
    if cls.pair:
        payload["pair"] = list(cls.pair)
    _emit(cfg.fmt, lambda: payload, lambda: str(cls))
    return 0


def cmd_verify(args) -> int:
    if args.suite and args.suite_flag:
        raise UsageError("give the suite once, positionally or by --suite")
    cfg = _config(args)
    suite = args.suite or args.suite_flag
    if not suite:
        raise UsageError("pick a suite: " + ", ".join(sorted(SUITES)))
    if suite not in SUITES:
        raise UsageError(f"unknown suite {suite!r}; choose from " + ", ".join(sorted(SUITES)))
    takes, name = SUITES[suite]
    if takes == "order" and (args.point or args.singular):
        raise UsageError(f"suite {suite} runs on --n only; it takes no --point or --singular")
    suite_fn = getattr(sys.modules[__name__], name)
    report = suite_fn(cfg.resolve_context() if takes == "context" else cfg.n)
    _emit(
        cfg.fmt,
        lambda: {k: v for k, v in report.items() if k != "checks"},
        lambda: verify_text(suite, report),
    )
    return 0 if report["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gtsingular",
        description="Exact shift-operator algebra on Gelfand-Tsetlin tableaux",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_point=True):
        p.add_argument("--n", type=int, default=None, help="tableau order")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if with_point:
            p.add_argument("--point", default=None, help="point JSON file")
            p.add_argument("--singular", default=None, help="singular pair k,i,j")

    p_phi = sub.add_parser("phi", help="print a generator image in the skew ring")
    common(p_phi, with_point=False)
    p_phi.add_argument("--gen", required=True, help="generator r,s")
    p_phi.set_defaults(func=cmd_phi)

    p_act = sub.add_parser("act", help="act with a generator on a basis distribution")
    common(p_act)
    p_act.add_argument("--gen", required=True, help="generator r,s")
    p_act.add_argument("--basis", required=True, help="basis vector KIND:SHIFTSPEC")
    p_act.set_defaults(func=cmd_act)

    p_cls = sub.add_parser("classify", help="classify a tableau point")
    common(p_cls)
    p_cls.set_defaults(func=cmd_classify)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    common(p_ver)
    p_ver.add_argument("suite", nargs="?", default=None)
    p_ver.add_argument("--suite", dest="suite_flag", default=None)
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
