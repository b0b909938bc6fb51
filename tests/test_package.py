"""The package's top-level names: what ``__all__`` promises and what the
demos and the README import from it."""

import ast
import os
import re
import subprocess
import sys
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


def test_demos_use_every_name_they_import():
    for path in sorted(ROOT.glob("demos/*.py")):
        source = path.read_text(encoding="utf-8")
        used = {node.id for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Name)}
        unused = imported_names(source) - used
        assert not unused, f"{path.name} imports {sorted(unused)} and never uses them"


def loaded_after(code: str, modules: tuple[str, ...], cwd: Path) -> list[str]:
    """Which of ``modules`` a fresh interpreter has loaded once it has run
    ``code``. This test process has loaded far more, so it cannot tell."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    check = f"\nimport sys\nprint(sorted(set({modules!r}) & set(sys.modules)))\n"
    done = subprocess.run(
        [sys.executable, "-c", code + check], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), cwd=cwd, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stdout.splitlines()[-1])


def test_a_run_loads_no_process_pool_config_reader_or_csv_writer(tmp_path):
    # A library run: the path from import to training that grove1 times.
    library_run = """
from swarmcover import ExperimentSpec, parse_map, run_seed
spec = ExperimentSpec(map_id="tiny", grid=parse_map("..\\n.."), seeds=(1,), max_episodes=1)
run_seed(spec, 1)
"""
    unused = ("multiprocessing", "concurrent.futures", "configparser", "csv")
    assert loaded_after(library_run, unused, tmp_path) == []

    # The command line at parallelism 1: it reads a config and writes a CSV,
    # but starts no pool and imports none. (logging is left out: other
    # Python or numpy versions may load it for reasons of their own.)
    (tmp_path / "tiny.txt").write_text("12\n.#\n")
    output = tmp_path / "results.csv"
    (tmp_path / "run.ini").write_text(
        f"[run]\nmaps = tiny.txt\noutput = {output}\nepisodes = 5\nseeds = 1\n"
        "log_traces = true\n"
    )
    commands = f"""
from swarmcover.cli import main
assert main(["maps"]) == 0
assert main(["run", "run.ini", "--parallelism", "1"]) == 0
assert main(["render", {str(output)!r}, "--map", "tiny.txt", "--seed", "1"]) == 0
"""
    pool = ("multiprocessing", "concurrent.futures")
    assert loaded_after(commands, pool, tmp_path) == []


def test_numpy_requirement_has_a_floor_of_two():
    # The suite and tests/golden.json are made and checked on numpy 2.
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
