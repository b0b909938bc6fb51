"""Outside-in tracing of swarmcover's layers.

The tracer wraps public functions of ``gridworld``, ``densenet``, ``agent``,
``experiment`` and ``cli`` without touching the package. A function imported
by name (``from .densenet import forward``) lives on in the importing
module's namespace, so each wrapper is installed on *every* swarmcover module
attribute that holds the original; patching only the defining module would
time nothing.

Each call records a span (name, start, end, id, parent id) in memory. Pool
workers are forked after the wrappers are installed; every
``run_experiment`` they execute writes its spans and counters to a spool
directory before it returns, and the parent merges those files once the
sweep is back, so worker-side layers appear in the same trace.
"""

from __future__ import annotations

import functools
import gzip
import io
import itertools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

# Span name -> (module, attribute path) of the traced function.
TRACED = {
    "densenet.forward": ("densenet", "forward"),
    "densenet.train_step": ("densenet", "train_step"),
    "densenet.init_network": ("densenet", "init_network"),
    "agent.train_from_memory": ("agent", "train_from_memory"),
    "agent.ReplayMemory.sample": ("agent", "ReplayMemory.sample"),
    "agent.select_action": ("agent", "select_action"),
    "agent.step_swarm": ("agent", "step_swarm"),
    "gridworld.transition": ("gridworld", "transition"),
    "gridworld.encode_observation": ("gridworld", "encode_observation"),
    "gridworld.is_coverage_complete": ("gridworld", "is_coverage_complete"),
    "experiment.run_experiment": ("experiment", "run_experiment"),
    "experiment.run_episode": ("experiment", "run_episode"),
    "experiment.run_sweep": ("experiment", "run_sweep"),
    "experiment.results_rows": ("experiment", "results_rows"),
    "experiment.write_results_csv": ("experiment", "write_results_csv"),
    "experiment.trace_entries": ("experiment", "trace_entries"),
    "experiment.write_traces": ("experiment", "write_traces"),
    "cli.main": ("cli", "main"),
    "cli.render": ("cli", "cmd_render"),
}

# The unit of work a pool worker runs; its wrapper hands spans back.
HANDOFF = "experiment.run_experiment"


def _probe_train_step(counters, args, kwargs, result):
    net, observation = args[0], args[1]
    counters["obs_nonzero"] += int((observation != 0).sum())
    counters["obs_inputs"] += observation.size
    weights = getattr(getattr(net, "layer1", None), "weights", None)
    counters["w1_bytes"] = max(counters["w1_bytes"], weights.nbytes if weights is not None else 0)


def _probe_train_from_memory(counters, args, kwargs, result):
    memory, config = args[0], args[2]
    counters["samples"] += min(config.batch_size, len(memory))


def _probe_transition(counters, args, kwargs, result):
    counters[result[1].kind.value] += 1


def _probe_file_bytes(counters, args, kwargs, result):
    handle = args[0]
    try:
        handle.flush()
        counters["bytes"] += os.fstat(handle.fileno()).st_size
    except (AttributeError, io.UnsupportedOperation):
        pass


PROBES = {
    "densenet.train_step": _probe_train_step,
    "agent.train_from_memory": _probe_train_from_memory,
    "gridworld.transition": _probe_transition,
    "experiment.write_results_csv": _probe_file_bytes,
    "experiment.write_traces": _probe_file_bytes,
}

# Counters that hold a per-call size, not a running total: merged with max,
# so they read the same whatever the number of specs or workers.
MAX_COUNTERS = {"w1_bytes"}


class Tracer:
    """Span recorder; ``install`` wraps the traced functions, ``uninstall``
    restores every patched attribute."""

    def __init__(self, run_id: str, spool_dir: Path) -> None:
        self.run_id = run_id
        self.spool_dir = spool_dir
        self.owner_pid = os.getpid()
        self.id_offset = 0
        self.ids = itertools.count(1)
        self.stack: list[int] = []
        self.spans: list[tuple[str, int, int, int, int | None]] = []
        self.counters: dict[str, defaultdict] = defaultdict(lambda: defaultdict(int))
        self.sites: dict[str, list[str]] = defaultdict(list)
        self.worker_pids: set[str] = set()
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        probe = PROBES.get(name)
        handoff = name == HANDOFF

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            in_worker = handoff and os.getpid() != tracer.owner_pid
            if in_worker:
                tracer._enter_worker_task()
            span_id = next(tracer.ids) + tracer.id_offset
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer.stack.pop()
                tracer.spans.append((name, start, end, span_id, parent))
                if in_worker:
                    tracer._hand_back()
            if probe is not None:
                probe(tracer.counters[name], args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        import swarmcover  # noqa: F401  (loads every submodule)
        from swarmcover import cli  # noqa: F401

        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if key == "swarmcover" or key.startswith("swarmcover.")
        ]
        for name, (module_name, attr_path) in TRACED.items():
            owner = sys.modules[f"swarmcover.{module_name}"]
            if "." in attr_path:
                class_name, method = attr_path.split(".")
                cls = getattr(owner, class_name)
                original = cls.__dict__[method]
                self._patched.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original))
                self.sites[name].append(f"{cls.__module__}.{attr_path}")
                continue
            original = getattr(owner, attr_path)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
                        self.sites[name].append(f"{mod.__name__}.{attr}")

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patched):
            setattr(target, attr, original)
        self._patched.clear()

    # -- pool workers -------------------------------------------------------

    def _enter_worker_task(self) -> None:
        # State inherited from the parent at fork belongs to the parent's
        # report; the worker reports only what its own tasks record.
        self.id_offset = os.getpid() * 10**9
        self.spans.clear()
        self.counters.clear()

    def _hand_back(self) -> None:
        path = self.spool_dir / f"{os.getpid()}-{next(self.ids)}.json"
        payload = {
            "spans": self.spans,
            "counters": {k: dict(v) for k, v in self.counters.items()},
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, path)
        self.spans.clear()
        self.counters.clear()

    def collect_worker_spans(self) -> None:
        """Merge every spooled worker file into this tracer. Files are named
        ``<pid>-<n>.json``, so their pids are the workers that ran tasks."""
        for path in sorted(self.spool_dir.glob("*.json")):
            payload = json.loads(path.read_text())
            self.spans.extend(tuple(span) for span in payload["spans"])
            for name, values in payload["counters"].items():
                merged = self.counters[name]
                for key, value in values.items():
                    if key in MAX_COUNTERS:
                        merged[key] = max(merged[key], value)
                    else:
                        merged[key] += value
            self.worker_pids.add(path.name.split("-", 1)[0])
            path.unlink()

    # -- output -------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            for name, start, end, span_id, parent in self.spans:
                parent_text = "null" if parent is None else parent
                handle.write(
                    f'{{"run":"{self.run_id}","name":"{name}","start_ns":{start},'
                    f'"end_ns":{end},"id":{span_id},"parent":{parent_text}}}\n'
                )


def _covered_ns(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of [start, end) intervals."""
    total, reach = 0, 0
    for start, end in sorted(intervals):
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds and self seconds. Self time is
    a span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for _name, start, end, _sid, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
    )
    for name, start, end, sid, _parent in spans:
        kids = children.get(sid, ())
        covered = _covered_ns([(max(s, start), min(e, end)) for s, e in kids if e > start and s < end])
        entry = totals[name]
        entry["calls"] += 1
        entry["s"] += (end - start) / 1e9
        entry["self_s"] += (end - start - covered) / 1e9
    return totals


def per_layer_metrics(tracer: Tracer, wall_untraced: float, wall_traced: float) -> dict:
    """The per-layer metrics of BENCHMARK.json from one traced run."""
    totals = layer_totals(tracer.spans)
    counters = tracer.counters

    def get(name, key):
        return totals[name][key] if name in totals else 0

    def us_per_call(name):
        calls = get(name, "calls")
        return get(name, "s") / calls * 1e6 if calls else 0.0

    def share(num, den):
        return num / den if den else 0.0

    ts = counters["densenet.train_step"]
    moves = counters["gridworld.transition"]
    n_moves = moves["blocked"] + moves["new_cell"] + moves["visited_cell"]
    sweep_s = get("experiment.run_sweep", "s")
    sweep_ids = {sid for name, _s, _e, sid, _p in tracer.spans if name == "experiment.run_sweep"}
    busy_s = sum(
        (end - start) / 1e9
        for name, start, end, _sid, parent in tracer.spans
        if name == HANDOFF and parent in sweep_ids
    )
    workers = max(1, len(tracer.worker_pids))
    m = {
        "densenet.train_step.calls": (get("densenet.train_step", "calls"), "count"),
        "densenet.train_step.us_per_call": (us_per_call("densenet.train_step"), "us"),
        "densenet.train_step.self_s": (get("densenet.train_step", "self_s"), "s"),
        "densenet.train_step.obs_nonzero_share": (
            share(ts["obs_nonzero"], ts["obs_inputs"]), "share"),
        # Dense rank-1 path: the forward matvec reads W1, np.outer writes a
        # W1-sized temporary, and the in-place subtract reads both and
        # writes W1 -- five W1-sized transfers per call, from shapes.
        "densenet.train_step.w1_bytes_computed": (5 * ts["w1_bytes"], "B/call"),
        "densenet.forward.calls": (get("densenet.forward", "calls"), "count"),
        "densenet.forward.us_per_call": (us_per_call("densenet.forward"), "us"),
        "densenet.forward.self_s": (get("densenet.forward", "self_s"), "s"),
        "densenet.init_network.s": (get("densenet.init_network", "s"), "s"),
        # Workers train in parallel, so the base is wall x training processes.
        "densenet.self_share_of_wall": (
            share(get("densenet.train_step", "self_s") + get("densenet.forward", "self_s"),
                  wall_traced * workers), "share"),
        "agent.train_from_memory.calls": (get("agent.train_from_memory", "calls"), "count"),
        "agent.train_from_memory.self_s": (get("agent.train_from_memory", "self_s"), "s"),
        "agent.train_from_memory.samples_per_call": (
            share(counters["agent.train_from_memory"]["samples"],
                  get("agent.train_from_memory", "calls")), "count"),
        "agent.ReplayMemory.sample.us_per_call": (us_per_call("agent.ReplayMemory.sample"), "us"),
        "agent.select_action.us_per_call": (us_per_call("agent.select_action"), "us"),
        "agent.step_swarm.self_s": (get("agent.step_swarm", "self_s"), "s"),
        "gridworld.transition.calls": (get("gridworld.transition", "calls"), "count"),
        "gridworld.transition.us_per_call": (us_per_call("gridworld.transition"), "us"),
        "gridworld.transition.blocked_share": (share(moves["blocked"], n_moves), "share"),
        "gridworld.transition.new_cell_share": (share(moves["new_cell"], n_moves), "share"),
        "gridworld.encode_observation.us_per_call": (
            us_per_call("gridworld.encode_observation"), "us"),
        "gridworld.is_coverage_complete.us_per_call": (
            us_per_call("gridworld.is_coverage_complete"), "us"),
        "experiment.run_episode.calls": (get("experiment.run_episode", "calls"), "count"),
        "experiment.run_sweep.s": (sweep_s, "s"),
        "experiment.run_sweep.worker_busy_share": (
            share(busy_s, sweep_s * workers), "share"),
        "experiment.results_rows.s": (get("experiment.results_rows", "s"), "s"),
        "experiment.write_results_csv.s": (get("experiment.write_results_csv", "s"), "s"),
        "experiment.write_results_csv.bytes": (
            counters["experiment.write_results_csv"]["bytes"], "B"),
        "experiment.trace_entries.s": (get("experiment.trace_entries", "s"), "s"),
        "experiment.write_traces.s": (get("experiment.write_traces", "s"), "s"),
        "experiment.write_traces.bytes": (counters["experiment.write_traces"]["bytes"], "B"),
        "cli.main.self_s": (get("cli.main", "self_s"), "s"),
        "cli.render.s": (get("cli.render", "s"), "s"),
        "trace.wall_s_untraced": (wall_untraced, "s"),
        "trace.wall_s_traced": (wall_traced, "s"),
        "trace.overhead_s": (wall_traced - wall_untraced, "s"),
        "trace.spans": (len(tracer.spans), "count"),
    }
    return m
