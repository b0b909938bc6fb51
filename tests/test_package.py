"""The package's top-level names: what ``__all__`` promises and what the
demos and the README import from it."""

import ast
import re
from pathlib import Path

import swarmcover

ROOT = Path(__file__).resolve().parent.parent


def imported_names(source: str) -> set[str]:
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "swarmcover"
        for alias in node.names
    }


def test_all_names_resolve():
    missing = [name for name in swarmcover.__all__ if not hasattr(swarmcover, name)]
    assert missing == []


def test_demo_and_readme_imports_are_exported():
    sources = [path.read_text(encoding="utf-8") for path in sorted(ROOT.glob("demos/*.py"))]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sources += re.findall(r"```python\n(.*?)```", readme, re.S)
    names = set().union(*(imported_names(source) for source in sources))
    assert names  # the demos do import from the package
    assert names <= set(swarmcover.__all__)
