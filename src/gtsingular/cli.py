"""Command-line surface: generator images, module actions, point
classification, and the named verification suites.

Exit codes: 0 success (all checks passed, or -h), 1 verification failure, 2
usage or input error, argparse's own included, a run that exhausts memory or
a result or help that cannot be written (one stderr line, empty stdout, no
traceback).  `main` is the one place where a `ValueError` or an `OSError`
becomes exit 2: the parsers, the library's input checks and printing (an
integer past Python's digit limit) raise a ValueError, a full disk, a closed
pipe or a closed stdout an OSError, and no command catches either.

Each command imports the modules it uses when it runs, a suite from the
module `SUITES` names, so a process loads, and without bytecode on disk
compiles, only those, and renders its result only in the format asked for.
"""

from __future__ import annotations

import argparse
import errno
import importlib
import json
import os
import re
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .distributions import DistVector
    from .tableau import Point, Shift

_SHIFT_ATOM = r"\((\d+),(\d+)\)([+-]\d+)"

# suite -> (what it takes: the order or the point's singular context, module, function)
SUITES = {
    "ring": ("order", "suites", "ring_suite"),
    "homomorphism": ("order", "gtformulas", "verify_homomorphism"),
    "singularity": ("context", "suites", "singularity_suite"),
    "module": ("context", "suites", "module_suite"),
    "appendix": ("context", "suites", "appendix_suite"),
    "functional": ("context", "suites", "functional_suite"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)

    def print_help(self, file=None):
        # -h passes no file; argparse's own would swallow a write error and exit 0
        _write(self.format_help())


def parse_shift_spec(spec: str) -> Shift:
    """Grammar: "id" or comma-separated "(k,i)+m" / "(k,i)-m" atoms."""
    from .tableau import Shift

    spec = spec.strip()
    if spec == "id":
        return Shift.identity()
    body = spec.replace(" ", "")
    if not re.fullmatch(f"{_SHIFT_ATOM}(,{_SHIFT_ATOM})*", body):
        raise ValueError(f"bad shift spec {spec!r}")
    # Shift sums the components of a repeated position
    atoms = re.findall(_SHIFT_ATOM, body)
    return Shift(((int(k), int(i)), int(off)) for k, i, off in atoms)


def shift_spec(sigma: Shift) -> str:
    if sigma.is_identity():
        return "id"
    return ",".join(
        f"({k},{i})+{m}" if m > 0 else f"({k},{i}){m}" for (k, i), m in sigma.sorted_items()
    )


def parse_basis_spec(spec: str) -> tuple[str, Shift]:
    """Grammar: KIND:SHIFTSPEC.  The kind is checked with the rest of the
    label, by `DistVector.from_terms`."""
    if ":" not in spec:
        raise ValueError(f"basis spec must look like KIND:SHIFTSPEC, got {spec!r}")
    kind, _, rest = spec.partition(":")
    return kind, parse_shift_spec(rest)


def parse_gen_spec(spec: str) -> tuple[int, int]:
    """A generator E(r,s) as "r,s": two comma-separated integers."""
    parts = spec.split(",")
    if len(parts) == 2:
        try:
            return int(parts[0]), int(parts[1])
        except ValueError:
            pass
    raise ValueError(f"generator spec must be r,s, got {spec!r}")


def _load_point(path: str) -> Point:
    from .tableau import Point

    # besides unreadable files and malformed values: a deeply nested array
    # overflows the parser's recursion
    try:
        return Point.load(path)
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        raise ValueError(f"cannot read point file {path}: {exc}") from exc


def _config(args) -> tuple[int, Point | None]:
    """The order and the point that --n and --point select: the point's
    order when only --point is given, else --n, by default 3."""
    from .poly import MAX_ORDER

    n = args.n
    if n is not None:
        if n < 1:
            raise ValueError(f"order must be at least 1, got {n}")
        if n > MAX_ORDER:
            raise ValueError(f"order must be at most {MAX_ORDER}, got {n}")
    point = None
    if getattr(args, "point", None):
        point = _load_point(args.point)
        if point.n > MAX_ORDER:
            raise ValueError(f"point has order {point.n}; the order must be at most {MAX_ORDER}")
        n = point.n if n is None else n
    return (3 if n is None else n), point


def _point(n: int, point: Point | None) -> Point:
    """The given point, checked against the order, or the order's default."""
    from .tableau import canonical_test_point

    if point is not None:
        if point.n != n:
            raise ValueError(f"point has order {point.n}, expected {n}")
        return point
    try:
        return canonical_test_point(n)
    except ValueError as exc:
        raise ValueError(f"no default point for order {n}; pass --point") from exc


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


def _write(text: str) -> None:
    """Write to stdout, flushed: text that cannot be written raises here."""
    if sys.stdout is None:
        raise OSError(errno.EBADF, "standard output is closed")
    sys.stdout.write(text)
    sys.stdout.flush()


def _emit(fmt: str, render_json, render_text) -> None:
    """Print the result in the chosen format through `_write`; only that
    format's renderer runs."""
    text = json.dumps(render_json(), sort_keys=True, indent=2) if fmt == "json" else render_text()
    _write(text + "\n")


def cmd_phi(args) -> int:
    from .gtformulas import phi_general

    n, _ = _config(args)
    r, s = parse_gen_spec(args.gen)
    element = phi_general(n, r, s)
    _emit(args.format, element.to_json, lambda: repr(element))
    return 0


def cmd_act(args) -> int:
    from .distributions import DistVector, act_lie
    from .tableau import SingularContext

    ctx = SingularContext(_point(*_config(args)))
    r, s = parse_gen_spec(args.gen)
    kind, sigma = parse_basis_spec(args.basis)
    result = act_lie(ctx, (r, s), DistVector.from_terms(ctx, [(kind, sigma, 1)]))
    _emit(args.format, result.to_json, lambda: dist_vector_text(result))
    return 0


def cmd_classify(args) -> int:
    from .tableau import classify_point

    cls = classify_point(_point(*_config(args)))
    payload = {"class": cls.tag}
    if cls.pair:
        payload["pair"] = list(cls.pair)
    _emit(args.format, lambda: payload, lambda: str(cls))
    return 0


def cmd_verify(args) -> int:
    n, point = _config(args)
    suite = args.suite
    if not suite:
        raise ValueError("pick a suite: " + ", ".join(sorted(SUITES)))
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from " + ", ".join(sorted(SUITES)))
    takes, home, name = SUITES[suite]
    if takes == "order" and args.point:
        raise ValueError(f"suite {suite} runs on --n only; it takes no --point")
    from .tableau import SingularContext

    suite_fn = getattr(importlib.import_module(f".{home}", __package__), name)
    report = suite_fn(SingularContext(_point(n, point)) if takes == "context" else n)
    _emit(
        args.format,
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
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


def entry() -> None:
    code = main()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError:  # main reported the result it could not write: drop it
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entry()
