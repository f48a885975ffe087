"""List the lines of src/gtsingular that no test runs.

Usage (from the repository root): python3 tools/linetrace.py [pytest args]

Runs pytest in this process under sys.settrace and prints, per module, the
lines the compiler attributes code to that never ran.  The bodies of
`if TYPE_CHECKING:` blocks never run by design and are not listed.  Exit
status: pytest's when it fails, else 1 when any line is listed, else 0.
Standard library only; the tests run about four times slower under the
trace.
"""

import ast
import os
import sys
from pathlib import Path

PACKAGE = os.path.realpath(Path(__file__).resolve().parent.parent / "src" / "gtsingular")
ran: dict[str, set[int]] = {}  # real path of a package module -> lines run
where: dict[str, str | None] = {}  # code file name -> its entry in ran, if any


def _lines(frame, event, _arg):
    if event == "line":
        ran[where[frame.f_code.co_filename]].add(frame.f_lineno)
    return _lines


def _call(frame, _event, _arg):
    name = frame.f_code.co_filename
    if name not in where:
        path = os.path.realpath(name)
        where[name] = path if path.startswith(PACKAGE + os.sep) else None
    if where[name] is None:
        return None
    ran.setdefault(where[name], set()).add(frame.f_lineno)
    return _lines


def executable(code) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= executable(const)
    return lines


def type_checking_only(tree) -> set[int]:
    """The lines of the bodies of `if TYPE_CHECKING:` blocks."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        test = ast.unparse(node.test) if isinstance(node, ast.If) else None
        if test in ("TYPE_CHECKING", "typing.TYPE_CHECKING"):
            for stmt in node.body:
                lines.update(range(stmt.lineno, stmt.end_lineno + 1))
    return lines


def main(argv: list[str]) -> int:
    import pytest

    sys.settrace(_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
    unrun = 0
    for path in sorted(Path(PACKAGE).glob("*.py")):
        source = path.read_text(encoding="utf-8")
        code = compile(source, str(path), "exec")
        exempt = type_checking_only(ast.parse(source))
        missed = sorted(executable(code) - ran.get(str(path), set()) - exempt)
        unrun += len(missed)
        print(f"{path.name}: {len(missed)} unrun", *missed)
    return int(status) or int(unrun > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
