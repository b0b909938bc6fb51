"""Golden regression: fixed runs must reproduce committed output digests.

A seed fixes every action and every CSV byte, so the digests below move
only when the arithmetic or the control flow of training moves. The specs
cover a tiny 3x3 map and grove_5x5, 1 and 3 UAVs, local and global mode,
with traces on. Three sha256 digests are pinned in ``golden.json``:

* ``csv``: ``write_results_csv`` over ``results_rows`` of every spec;
* ``traces``: ``write_traces`` over ``trace_entries`` of every spec;
* ``episodes``: every ``EpisodeRecord``, moves included, as canonical
  JSON. The short grove episodes stop at the step budget without covering,
  so only this digest sees their moves.

numpy's matrix-vector and matrix-matrix products go through OpenBLAS,
which with DYNAMIC_ARCH picks its kernels for the CPU at run time. Kernels
round differently, and the trained weights differ in their last bits from
one to another, but an action changes only when a greedy pick is close to
a tie. ``test_golden_digests_hold_under_other_blas_kernels`` forces two
other kernels the CPU supports and checks the digests under each; it also
reports the smallest relative gap between the top two Q-values over the
greedy picks, which was 1.5e-4 against a rounding of about 1e-13.
``golden.json`` also records the environment the digests were made in, and
a failure prints it next to the current one: a different CPU or BLAS points
to rounding, the same one to a regression.

Print fresh digests and this environment's fingerprint, from the
repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from swarmcover.densenet import _openblas_functions, forward
from swarmcover.experiment import (
    ExperimentSpec,
    results_rows,
    run_experiment,
    trace_entries,
    write_results_csv,
    write_traces,
)
from swarmcover.gridworld import load_bundled_map, parse_map

GOLDEN = Path(__file__).resolve().parent / "golden.json"

TINY_MAP = ".1.\n.#.\n23.\n"


def golden_specs() -> list[ExperimentSpec]:
    maps = [
        # map id, grid, step budget, episodes, seeds
        ("tiny_3x3", parse_map(TINY_MAP), 30, 4, (1, 2)),
        ("grove_5x5", load_bundled_map("grove_5x5"), 50, 2, (1,)),
    ]
    return [
        ExperimentSpec(
            map_id=map_id,
            grid=grid,
            n_uavs=n_uavs,
            mode=mode,
            seeds=seeds,
            max_episodes=episodes,
            step_budget=budget,
            log_traces=True,
        )
        for map_id, grid, budget, episodes, seeds in maps
        for n_uavs in (1, 3)
        for mode in ("local", "global")
    ]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def golden_digests() -> dict:
    rows, entries, records = [], [], []
    for spec in golden_specs():
        results = run_experiment(spec)
        rows += results_rows(spec, results)
        entries += trace_entries(spec, results)
        records += [
            [spec.map_id, spec.n_uavs, spec.mode, result.seed, rec.episode,
             rec.total_actions, rec.covered, list(rec.per_uav_actions),
             [list(move) for move in rec.moves]]
            for result in results
            for rec in result.episodes
        ]
    csv_buf, trace_buf = io.StringIO(), io.StringIO()
    write_results_csv(csv_buf, rows)
    write_traces(trace_buf, entries)
    return {
        "csv": _sha256(csv_buf.getvalue()),
        "traces": _sha256(trace_buf.getvalue()),
        "episodes": _sha256(json.dumps(records, separators=(",", ":"))),
    }


def _openblas_config() -> str:
    """The OpenBLAS config string; read from the loaded library when
    possible, since with DYNAMIC_ARCH it then names the core in use."""
    found = _openblas_functions("get_config")
    if found is not None:
        (get_config,) = found
        get_config.argtypes, get_config.restype = [], ctypes.c_char_p
        return get_config().decode()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('openblas configuration', blas.get('name'))} (build time)"


def fingerprint() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": _openblas_config(),
        "cpu": cpu,
    }


def test_golden_digests():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    digests = golden_digests()
    assert digests == golden["digests"], (
        "output digests differ from tests/golden.json\n"
        f"  recorded environment: {golden['fingerprint']}\n"
        f"  current environment:  {fingerprint()}\n"
        "the same environment means a change in behaviour; a different CPU "
        "or BLAS may only round differently"
    )


# OpenBLAS kernels a test can force with OPENBLAS_CORETYPE, each with the
# /proc/cpuinfo flags it needs.
KERNEL_FLAGS = {
    "Haswell": {"avx2", "fma"},
    "Sandybridge": {"avx"},
    "Nehalem": {"sse4_2"},
}


def _other_kernels() -> list[str]:
    """Two kernels, not the one in use, that this CPU supports; skips the
    test when there are not two or the BLAS cannot be switched."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip(f"OpenBLAS kernels are forced on x86-64 only, not {platform.machine()}")
    if _openblas_functions("get_config") is None:
        pytest.skip("numpy's BLAS is not a bundled OpenBLAS")
    config = _openblas_config().split()
    if "DYNAMIC_ARCH" not in config:
        pytest.skip(f"OpenBLAS is not built with DYNAMIC_ARCH: {' '.join(config)}")
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            flags = next(line for line in handle if line.startswith("flags")).split()
    except (OSError, StopIteration):
        pytest.skip("no CPU flags in /proc/cpuinfo")
    kernels = [
        kernel for kernel, needs in KERNEL_FLAGS.items()
        if kernel not in config and needs <= set(flags)
    ]
    if len(kernels) < 2:
        pytest.skip(f"fewer than two other kernels run on this CPU: {kernels}")
    return kernels[:2]


def test_golden_digests_hold_under_other_blas_kernels(monkeypatch, record_property):
    """The pinned digests under two forced OpenBLAS kernels, each run in a
    fresh interpreter, since OpenBLAS reads OPENBLAS_CORETYPE when it loads."""
    kernels = _other_kernels()
    gaps = []

    def spying_forward(net, observation):
        qvalues = forward(net, observation)
        second, top = np.sort(qvalues)[-2:]
        gaps.append((top - second) / abs(top))
        return qvalues

    monkeypatch.setattr("swarmcover.agent.forward", spying_forward)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["digests"]
    assert golden_digests() == golden
    gap = min(gaps)
    record_property("smallest_greedy_q_gap", gap)
    print(f"smallest relative gap of the top two Q-values: {gap:.3g} "
          f"over {len(gaps)} greedy picks")

    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    for kernel in kernels:
        env = dict(os.environ, OPENBLAS_CORETYPE=kernel, PYTHONPATH=path)
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve())],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert done.returncode == 0, done.stderr
        run = json.loads(done.stdout)
        assert kernel in run["fingerprint"]["openblas"].split(), run["fingerprint"]
        assert run["digests"] == golden, f"digests differ under the {kernel} kernel"


if __name__ == "__main__":
    print(json.dumps({"digests": golden_digests(), "fingerprint": fingerprint()}, indent=1))
