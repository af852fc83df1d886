"""The README runs as written and names every module."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_block(section: str) -> str:
    """The first ```python block under the README heading ``section``."""
    text = README.read_text()
    body = text.split(f"\n{section}\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```", body, re.S)
    assert match, f"no python block under {section}"
    return match.group(1)


def test_library_example_runs(capsys):
    code = _python_block("## Library")
    exec(compile(code, "README.md", "exec"), {"__name__": "readme"})
    lines = capsys.readouterr().out.splitlines()
    # the j-polynomial at (2, -1) on level 67, then one line per factor
    assert lines[0].startswith("(Fraction(")
    assert len(lines) >= 2


def test_module_map_names_every_module():
    """Each src/qstar module but __init__ has one entry in the module map."""
    text = README.read_text()
    body = text.split("\nModule map (`src/qstar/`):\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^- `(\w+)` — ", body, re.M)
    modules = sorted(
        p.stem for p in (README.parent / "src" / "qstar").glob("*.py")
        if p.stem != "__init__"
    )
    assert sorted(listed) == modules
