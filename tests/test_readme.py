"""The README's library example runs as written, against the public API."""

import re
from pathlib import Path

import gtsingular

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The first Python block under the README's "Library example" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library example\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs(capsys):
    """Every name the block imports from gtsingular is public, and each of
    its prints writes one nonempty line."""
    code = library_example()
    imported = re.search(r"from gtsingular import \((.*?)\)", code, re.S).group(1)
    names = [name.strip() for name in imported.split(",") if name.strip()]
    assert names and set(names) <= set(gtsingular.__all__)
    exec(compile(code, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == code.count("print(") and all(lines)
