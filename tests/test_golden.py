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
which with DYNAMIC_ARCH picks its kernels for the CPU at run time and may
round differently on another one. ``golden.json`` therefore also records the
environment the digests were made in, and a failure prints it next to the
current one: a different CPU or BLAS points to rounding, the same one to a
regression.

Print fresh digests and this environment's fingerprint, from the
repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import ctypes
import hashlib
import io
import json
import platform
from pathlib import Path

import numpy as np

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
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for name in ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                     "openblas_get_config64_", "openblas_get_config"):
            get_config = getattr(lib, name, None)
            if get_config is not None:
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


if __name__ == "__main__":
    print(json.dumps({"digests": golden_digests(), "fingerprint": fingerprint()}, indent=1))
