"""List the lines of src/gtsingular that no test runs.

Usage (from the repository root): python3 tools/linetrace.py [pytest args]

Runs pytest in this process under sys.settrace and prints, per module, the
lines the compiler attributes code to that never ran.  Standard library
only; the tests run about four times slower under the trace.
"""

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


def main(argv: list[str]) -> int:
    import pytest

    sys.settrace(_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
    for path in sorted(Path(PACKAGE).glob("*.py")):
        code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        missed = sorted(executable(code) - ran.get(str(path), set()))
        print(f"{path.name}: {len(missed)} unrun", *missed)
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
