"""swarmcover benchmark: end-to-end metrics, output checks and a layer trace.

    python3 perfbench/run.py --workload sweep_cli --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root. ``--trace 0`` prints the end-to-end metrics
of BENCHMARK.json; ``--trace 1`` runs half the work untraced and then
traced, and prints the per-layer metrics and the tracing overhead. The
last line of stdout is one JSON object; everything before it is for
people. See perfbench/README.md.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, and inherited by every process started here.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("SWARMCOVER_OUTPUT_DIR", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field, replace  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import swarmcover  # noqa: E402

if not Path(swarmcover.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"swarmcover imported from {swarmcover.__file__}, not from {ROOT / 'src'}")

import checks  # noqa: E402  (binds the untraced gridworld functions)
from swarmcover import cli, experiment  # noqa: E402
from swarmcover.gridworld import resolve_map  # noqa: E402
from tracer import Tracer, per_layer_metrics  # noqa: E402

# Set-up is timed in this many fresh interpreters and the fastest is kept:
# host noise only ever adds time, and a median of a few probes lands in a
# fast or a slow period of the host from run to run.
SETUP_PROBES = 21


@dataclass(frozen=True)
class Workload:
    """One benchmark workload. ``seconds_per_seed`` is the nominal cost of
    one training seed on the reference machine; a run trains
    round(seconds / seconds_per_seed) seeds, so the work is a fixed
    function of the arguments, never of the measured speed."""

    name: str
    map_ref: str
    n_uavs: int
    modes: tuple[str, ...]
    episodes: int
    step_budget: int | None
    seconds_per_seed: float
    parallelism: int = 0  # 0: library call in-process; >0: `swarmcover run`

    @property
    def cli(self) -> bool:
        return self.parallelism > 0


# Episodes are capped by the flight-time budget (step_budget, total swarm
# actions) so that the work in a run does not swing with how long the
# learned episodes happen to be: uncapped, early grove episodes range from
# 40 to over 1000 moves.
WORKLOADS = {
    w.name: w
    for w in (
        # Acceptance baseline: smallest network (75 inputs, W1 fits in L2),
        # no pool, CLI or writers.
        Workload("grove1", "grove_5x5", 1, ("local",), 8, 150, 5.0),
        # Largest network (243 inputs, three private 1013x243 W1 overflow
        # L2) and multi-UAV blocking. A first covering episode here costs
        # 800-2400 moves at ~15 ms each, so most runs stop at the budget.
        # Run by name; not in BENCHMARK.json, as some seeds diverge.
        Workload("block9_local3", "block_9x9", 3, ("local",), 2, 400, 14.0),
        # The only workload through the process pool, config parsing, the
        # CSV/trace writers and `render`; local vs global controllers.
        Workload("sweep_cli", "grove_5x5", 3, ("local", "global"), 8, 150, 5.0, 2),
    )
}

SMOKE_MAP = ".1.\n.#.\n23.\n"


def smoke_workloads(map_path: str) -> list[Workload]:
    """Each workload's shape, shrunk to one seed of two episodes on a tiny map."""
    return [
        replace(w, name=f"smoke_{w.name}", map_ref=map_path, episodes=2,
                step_budget=None, seconds_per_seed=1.0)
        for w in WORKLOADS.values()
    ]


def training_seeds(workload: Workload, seed: int, count: int) -> list[int]:
    rng = random.Random(f"{workload.name}:{seed}")
    return [rng.randrange(1, 2**31) for _ in range(count)]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# One pass of a workload: ``measure`` makes the calls a user would make;
# ``check`` then inspects what they produced, outside any trace.


@dataclass
class Pass:
    keys: list  # (map, n_uavs, mode, seed) of every run attempted
    wall_s: float = 0.0
    moves: int = 0
    raised: list = field(default_factory=list)  # (run key, error text)
    failures: list = field(default_factory=list)  # (run key, message) from the checks
    best: list = field(default_factory=list)  # best_total_actions of each covering run
    uncovered: int = 0
    peak_rss_mb: float = 0.0
    render_s: float = 0.0
    digests: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)  # what ``check`` inspects


def _measure_library(workload: Workload, seeds: list[int], work_dir: Path) -> Pass:
    grid = resolve_map(workload.map_ref)
    specs = [
        experiment.ExperimentSpec(
            map_id=workload.map_ref,
            grid=grid,
            n_uavs=workload.n_uavs,
            mode=workload.modes[0],
            seeds=(seed,),
            max_episodes=workload.episodes,
            step_budget=workload.step_budget,
            log_traces=True,
        )
        for seed in seeds
    ]
    keys = [(s.map_id, s.n_uavs, s.mode, s.seeds[0]) for s in specs]
    p = Pass(keys=keys, outputs={"grid": grid, "done": []})
    for key, spec in zip(keys, specs):
        start = time.perf_counter()
        try:
            result = experiment.run_experiment(spec)[0]
        except Exception:  # one diverging run must not end the benchmark
            p.raised.append((key, traceback.format_exc(limit=3)))
            continue
        finally:
            p.wall_s += time.perf_counter() - start
        p.outputs["done"].append((spec, result))
    p.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return p


def _check_library(p: Pass) -> None:
    grid, done = p.outputs["grid"], p.outputs["done"]
    records, rows, entries = [], [], []
    for spec, result in done:
        key = (spec.map_id, spec.n_uavs, spec.mode, result.seed)
        p.moves += sum(ep.total_actions for ep in result.episodes)
        for ep in result.episodes:
            p.failures += checks.episode_failures(key, ep, grid.free_count, spec.n_uavs)
            p.failures += checks.replay_failures(
                key, grid.to_text(), spec.n_uavs, spec.allow_shared_cells,
                ep.moves, ep.total_actions, ep.covered,
            )
        if result.best_total_actions is None:
            p.uncovered += 1
        else:
            p.best.append(result.best_total_actions)
        records.append({
            "seed": result.seed,
            "episodes": [
                {"episode": ep.episode, "total_actions": ep.total_actions,
                 "covered": ep.covered, "per_uav_actions": list(ep.per_uav_actions),
                 "moves": [list(m) for m in ep.moves]}
                for ep in result.episodes
            ],
        })
        rows += experiment.results_rows(spec, [result])
        entries += experiment.trace_entries(spec, [result])
    csv_buf, trace_buf = io.StringIO(), io.StringIO()
    experiment.write_results_csv(csv_buf, rows)
    experiment.write_traces(trace_buf, entries)
    free_of = {key[0]: grid.free_count for key in p.keys}.get
    expected = [(s.map_id, s.n_uavs, s.mode, r.seed) for s, r in done]
    p.failures += checks.csv_failures(csv_buf.getvalue(), free_of, expected)
    p.failures += checks.trace_failures(entries)
    p.failures += [("self-test", m) for m in checks.self_test(entries, csv_buf.getvalue(), free_of)]
    p.digests = {
        "episodes": sha256(json.dumps(records, sort_keys=True, separators=(",", ":"))),
        "csv": sha256(csv_buf.getvalue()),
        "traces": sha256(trace_buf.getvalue()),
    }


def _measure_sweep(workload: Workload, seeds: list[int], work_dir: Path) -> Pass:
    csv_path = work_dir / "results.csv"
    trace_path = Path(str(csv_path) + cli.TRACE_SUFFIX)
    config = work_dir / "sweep.ini"
    config.write_text(sweep_config(workload, seeds, csv_path))
    keys = [(workload.map_ref, workload.n_uavs, m, s) for m in workload.modes for s in seeds]
    p = Pass(keys=keys)
    for path in (csv_path, trace_path):
        path.unlink(missing_ok=True)
    stderr = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = cli.main(["run", str(config)])
    except Exception:  # an error in one run ends the whole sweep
        code = "with an exception"
        stderr.write(traceback.format_exc(limit=3))
    p.wall_s = time.perf_counter() - start
    # Pool workers have been joined, so RUSAGE_CHILDREN holds the largest
    # worker's peak; each worker is counted at that peak.
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    p.peak_rss_mb = (self_kb + workload.parallelism * children_kb) / 1024
    if code != 0:
        p.raised = [(key, f"swarmcover run exited {code}: {stderr.getvalue()}") for key in keys]
        return p
    p.outputs["csv"] = csv_path.read_text(encoding="utf-8")
    p.outputs["traces"] = trace_path.read_text(encoding="utf-8")

    renders = p.outputs["renders"] = []
    start = time.perf_counter()
    for entry in json.loads(p.outputs["traces"])["traces"]:
        out = io.StringIO()
        argv = ["render", str(csv_path), "--map", entry["map_id"], "--seed",
                str(entry["seed"]), "--uavs", str(entry["n_uavs"]), "--mode", entry["mode"]]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        key = (entry["map_id"], entry["n_uavs"], entry["mode"], entry["seed"])
        renders.append((key, code, out.getvalue()))
    p.render_s = time.perf_counter() - start
    return p


def _check_sweep(p: Pass) -> None:
    if "csv" not in p.outputs:
        return
    csv_text, trace_text = p.outputs["csv"], p.outputs["traces"]
    entries = json.loads(trace_text)["traces"]
    free_of = lambda map_ref: resolve_map(map_ref).free_count  # noqa: E731
    p.failures += checks.csv_failures(csv_text, free_of, p.keys)
    p.failures += checks.trace_failures(entries)
    p.failures += [("self-test", m) for m in checks.self_test(entries, csv_text, free_of)]
    for row in csv.DictReader(io.StringIO(csv_text)):
        if row["episode"] == "summary":
            if row["best_total_actions"]:
                p.best.append(int(row["best_total_actions"]))
            else:
                p.uncovered += 1
        else:
            p.moves += int(row["total_actions"])
    # `render` replays each logged trace; a covering replay leaves no
    # unvisited cell on the board (the first line is the caption).
    for key, code, text in p.outputs["renders"]:
        if code != 0 or cli.UNVISITED_CHAR in text.split("\n", 1)[-1]:
            p.failures.append((key, f"render exited {code} or drew an unvisited cell"))
    p.digests = {"csv": sha256(csv_text), "traces": sha256(trace_text)}


def sweep_config(workload: Workload, seeds: list[int], csv_path: Path) -> str:
    lines = [
        "[run]",
        f"maps = {workload.map_ref}",
        f"uavs = {workload.n_uavs}",
        f"modes = {', '.join(workload.modes)}",
        f"seeds = {', '.join(map(str, seeds))}",
        f"episodes = {workload.episodes}",
        f"output = {csv_path}",
        "log_traces = true",
        f"parallelism = {workload.parallelism}",
    ]
    if workload.step_budget is not None:
        lines.append(f"step_budget = {workload.step_budget}")
    return "\n".join(lines) + "\n"


def measure(workload: Workload, seeds: list[int], work_dir: Path) -> Pass:
    return (_measure_sweep if workload.cli else _measure_library)(workload, seeds, work_dir)


def check(workload: Workload, p: Pass) -> Pass:
    (_check_sweep if workload.cli else _check_library)(p)
    p.outputs.clear()
    return p


def failed_runs(p: Pass) -> int:
    return len({key for key, _ in p.raised} | {key for key, _ in p.failures if key != "self-test"})


# ---------------------------------------------------------------------------
# Set-up time, in fresh interpreters.


def setup_seconds(workload: Workload, seed: int, work_dir: Path, probes: int) -> float:
    if workload.cli:
        config = work_dir / "setup.ini"
        config.write_text(sweep_config(workload, [seed], work_dir / "setup.csv"))
        job = {"kind": "cli", "config": str(config)}
    else:
        job = {"kind": "library", "map": workload.map_ref, "n_uavs": workload.n_uavs,
               "mode": workload.modes[0], "seed": seed, "episodes": workload.episodes,
               "step_budget": workload.step_budget}
    argv = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(ROOT), json.dumps(job)]
    times = []
    for i in range(probes + 1):  # the first one warms the bytecode cache
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
        if i:
            times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return min(times)


# ---------------------------------------------------------------------------
# Environment fingerprint.


def _openblas_runtime() -> dict:
    """Config string and thread count of the OpenBLAS numpy loaded; with
    DYNAMIC_ARCH the config names the core chosen on this CPU."""
    import ctypes

    import numpy

    info = {}
    libs_dir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs_dir.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if get_config is None or get_threads is None:
                    continue
                get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                info["openblas_config"] = get_config().decode()
                info["openblas_threads"] = get_threads()
                return info
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info["openblas_config"] = f"{blas.get('openblas configuration', blas.get('name'))} (build time)"
    return info


def fingerprint() -> dict:
    import platform

    import numpy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **_openblas_runtime(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_vars": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# One benchmark run.


def benchmark(workload: Workload, seed: int, seconds: float, trace: bool,
              probes: int = SETUP_PROBES) -> dict:
    n_seeds = max(1, round(seconds / workload.seconds_per_seed))
    if trace:
        n_seeds = max(1, n_seeds // 2)
    seeds = training_seeds(workload, seed, n_seeds)
    work_dir = OUT_DIR / f"{workload.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    inputs = {"workload": workload.name, "map": workload.map_ref, "n_uavs": workload.n_uavs,
              "modes": list(workload.modes), "training_seeds": seeds,
              "episodes": workload.episodes, "step_budget": workload.step_budget,
              "parallelism": workload.parallelism}

    if not trace:
        p = check(workload, measure(workload, seeds, work_dir))
        passes = [p]
        setup_s = setup_seconds(workload, seeds[0], work_dir, probes)
        metrics = end_to_end_metrics(p, setup_s)
        problems = []
    else:
        untraced = check(workload, measure(workload, seeds, work_dir))
        spool = work_dir / "spool"
        spool.mkdir()
        tracer = Tracer(f"{workload.name}/seed{seed}", spool)
        tracer.install()
        try:
            traced = measure(workload, seeds, work_dir)
        finally:
            tracer.uninstall()
        check(workload, traced)
        tracer.collect_worker_spans()
        tracer.write_spans(work_dir / "spans.jsonl.gz")
        passes = [untraced, traced]
        metrics = per_layer_metrics(tracer, untraced.wall_s, traced.wall_s)
        problems = trace_problems(workload, metrics, untraced, traced)
        p = traced
        inputs["trace_sites"] = tracer.sites

    attempted = sum(len(x.keys) for x in passes)
    failed = sum(failed_runs(x) for x in passes)
    failures = [f"{key}: {msg}" for x in passes for key, msg in x.raised + x.failures]
    failures += problems
    return {
        "inputs": inputs,
        "env": fingerprint(),
        "digests": p.digests,
        "metrics": metrics,
        "reported": quality_metrics(passes),
        "failures": failures,
        # A run that raised, or a CLI that exited non-zero, produced no
        # output to check, so it fails the run as a failed check does.
        "correct": not any(x.failures or x.raised for x in passes) and not problems,
        "attempted": attempted,
        "failed": failed,
    }


def end_to_end_metrics(p: Pass, setup_s: float) -> dict:
    return {
        "moves_per_s": (p.moves / p.wall_s if p.wall_s else 0.0, "1/s"),
        "wall_s": (p.wall_s, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (p.peak_rss_mb, "MB"),
    }


def quality_metrics(passes: list[Pass]) -> dict:
    """Outcomes printed for people but not gated: their spread across
    seeds (or their zero) rules them out as bounded metrics."""
    p = passes[0]
    runs = sum(len(x.keys) for x in passes)
    best = statistics.fmean(p.best) if p.best else None
    return {
        "best_actions_mean": (best, "actions"),
        "failed_run_share": (sum(failed_runs(x) for x in passes) / runs, "share"),
        "uncovered_run_share": (sum(x.uncovered for x in passes) / runs, "share"),
        "render_s": (p.render_s, "s"),
    }


# Layers every traced workload must reach; a zero means a wrapper missed
# the name its caller looks up.
TRAINING_LAYERS = (
    "densenet.train_step.calls", "densenet.forward.calls", "agent.train_from_memory.calls",
    "gridworld.transition.calls", "experiment.run_episode.calls",
)
CLI_LAYERS = (
    "experiment.run_sweep.s", "experiment.results_rows.s", "experiment.write_results_csv.bytes",
    "experiment.trace_entries.s", "experiment.write_traces.bytes", "cli.render.s",
)


def trace_problems(workload: Workload, metrics: dict, untraced: Pass, traced: Pass) -> list[str]:
    problems = []
    for name in TRAINING_LAYERS + (CLI_LAYERS if workload.cli else ()):
        if not metrics[name][0]:
            problems.append(f"traced run recorded nothing for {name}")
    if untraced.digests != traced.digests:
        problems.append("tracing changed the outputs: digests differ")
    return problems


# ---------------------------------------------------------------------------
# Output.


def report(result: dict) -> None:
    print("env " + json.dumps(result["env"], sort_keys=True))
    print("inputs " + json.dumps(result["inputs"]))
    print("digests " + json.dumps(result["digests"], sort_keys=True))
    for name, (value, unit) in {**result["metrics"], **result["reported"]}.items():
        shown = "n/a" if value is None else repr(value)
        print(f"metric {name} {shown} {unit}")
    for failure in result["failures"]:
        print(f"FAILURE {failure}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))


def save(result: dict, name: str) -> None:
    with open(OUT_DIR / f"{name}.json", "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, default=str)


def smoke() -> int:
    """Every workload shape on a tiny map, untraced and traced; every
    metric of BENCHMARK.json and every reported outcome must be printed
    with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    smoke_dir = OUT_DIR / "smoke"
    smoke_dir.mkdir(parents=True, exist_ok=True)
    map_path = smoke_dir / "tiny.txt"
    map_path.write_text(SMOKE_MAP)
    ok = True
    for workload in smoke_workloads(str(map_path)):
        for trace, wanted in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                result = benchmark(workload, 1, 1.0, trace, probes=1)
                report(result)
            text = out.getvalue()
            names = [(m["name"], m["unit"]) for m in wanted]
            if not trace:
                names += [(n, u) for n, (_, u) in result["reported"].items()]
            missing = [n for n, u in names if not any(
                line.startswith(f"metric {n} ") and line.endswith(f" {u}")
                for line in text.splitlines())]
            last = json.loads(text.splitlines()[-1])
            status = "ok" if not missing and last["correct"] else "FAILED"
            ok &= status == "ok"
            print(f"smoke {workload.name} trace={int(trace)}: {status}"
                  + (f" missing {missing}" if missing else "")
                  + "".join(f"\n  {f}" for f in result["failures"]))
    print("smoke ok" if ok else "smoke FAILED")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="seconds-long self-check")
    args = parser.parse_args()
    OUT_DIR.mkdir(exist_ok=True)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    result = benchmark(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    save(result, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
