"""The package's top-level names: what ``__all__`` promises and what the
demos and the README import from it."""

import ast
import re
from pathlib import Path

import pytest

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


def test_numpy_requirement_has_a_floor_of_two():
    # densenet.train_step calls np.vecdot, which numpy 2.0 added.
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as handle:
        dependencies = tomllib.load(handle)["project"]["dependencies"]
    floors = [
        re.fullmatch(r"numpy\s*>=\s*(\d+)(?:\.\d+)*", requirement)
        for requirement in dependencies
        if requirement.startswith("numpy")
    ]
    assert len(floors) == 1 and floors[0], dependencies
    assert int(floors[0].group(1)) >= 2
