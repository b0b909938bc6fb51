"""Smoke test of the demos: each runs to the end against the package in
``src``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_demo(name: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize(
    "name, expected",
    [
        ("01_environment_tour.py", ""),
        ("02_gradient_check.py", ""),
        ("03_train_single_uav.py", "best covering episode"),
        ("04_local_vs_global.py", "mean over covering seeds"),
    ],
)
def test_demo_runs(name, expected):
    out = run_demo(name)
    assert "MISMATCH" not in out
    assert expected in out
