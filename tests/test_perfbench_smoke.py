"""Smoke test of the benchmark harness. perfbench wraps package functions
by name and replaces ``experiment.step_swarm``, so a rename or a changed
signature in ``src`` breaks it; its seconds-long self-check catches that
here instead of at the next benchmark run. Output goes to the git-ignored
``perfbench/out/``."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_mode_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "smoke ok", proc.stdout
