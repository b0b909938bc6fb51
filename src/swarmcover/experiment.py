"""Experiment harness: seeded runs, best-episode selection, aggregation.

One *run* trains a fresh controller for ``max_episodes`` episodes on one
(map, n_uavs, mode, seed) combination; networks and memories persist
across episodes so learning accumulates, while the environment resets at
every episode start. A run's score is the total action count of its best
covering episode. Runs over several seeds aggregate to mean and sample
standard deviation, with non-covering seeds counted separately rather
than averaged in.

Everything downstream of a seed is deterministic: a single generator
seeded once per run drives weight init, action selection and replay
sampling, so reruns reproduce every action and every CSV byte.
"""

from __future__ import annotations

import configparser
import csv
import functools
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, field

import numpy as np

from .agent import LOCAL, MODES, SwarmController, step_swarm
from .densenet import one_blas_thread
from .gridworld import (
    GridMap,
    SwarmState,
    initial_swarm_state,
    is_coverage_complete,
    start_positions,
)

STEP_BUDGET_PER_FREE_CELL = 100
MAX_UAVS = 9

CSV_HEADER = (
    "map_id",
    "n_uavs",
    "mode",
    "seed",
    "episode",
    "total_actions",
    "covered",
    "best_total_actions",
)
SUMMARY_LABEL = "summary"


class ConfigError(ValueError):
    """An experiment specification is inconsistent or out of range."""


class AllRunsFailedError(RuntimeError):
    """No seed of an experiment produced a covering episode."""


# ---------------------------------------------------------------------------
# The settings table. Every ExperimentSpec field except ``grid`` is also a
# key of the ``swarmcover run`` config file; the CLI derives its known keys,
# config loader, flags and help text from the field metadata below.


def _items(raw: str) -> list[str]:
    items = [item.strip() for item in raw.split(",") if item.strip()]
    if not items:
        raise ValueError("expected a comma-separated list")
    return items


def _ints(raw: str) -> tuple[int, ...]:
    return tuple(int(item) for item in _items(raw))


def _lowercase_items(raw: str) -> tuple[str, ...]:
    return tuple(item.lower() for item in _items(raw))


def _boolean(raw: str) -> bool:
    states = configparser.ConfigParser.BOOLEAN_STATES
    if raw.lower() not in states:
        raise ValueError(f"expected a boolean, got {raw!r}")
    return states[raw.lower()]


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise ValueError("must be positive")
    return value


def _setting(default, parse, help_text, *, section, key=None, sweep=False, flag=False):
    """A field that is also the config key ``key`` (default: the field name)
    under ``[section]``; ``parse`` turns the key's text into a value. The
    parser of a ``sweep`` key returns a tuple, and the CLI builds one spec
    per combination of sweep values. A ``flag`` key is also a command line
    option that overrides the file."""
    metadata = dict(
        section=section, key=key, parse=parse, help=help_text, sweep=sweep, flag=flag
    )
    return field(default=default, metadata=metadata)


_run = functools.partial(_setting, section="run")
_training = functools.partial(_setting, section="training")


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything one experiment needs: map, swarm size, mode, seeds and
    the training hyperparameters (defaults match the reference setup)."""

    map_id: str = _run(
        MISSING, _items, "comma-separated bundled map ids or map file paths (required)",
        key="maps", sweep=True,
    )
    grid: GridMap
    n_uavs: int = _run(1, _ints, 'swarm sizes, e.g. "1, 2, 3"', key="uavs", sweep=True)
    mode: str = _run(
        LOCAL, _lowercase_items, f"any of {', '.join(MODES)}", key="modes", sweep=True
    )
    seeds: tuple[int, ...] = _run((1, 2, 3, 4, 5), _ints, "integer seeds", flag=True)
    max_episodes: int = _run(30, int, "episodes per run", key="episodes", flag=True)
    step_budget: int | None = _run(
        None, int, "per-episode cap on total swarm actions (default: 100 x free cells)"
    )
    epsilon: float = _training(0.49, float, "initial exploration rate")
    epsilon_decay: float = _training(0.93, float, "per-episode decay factor")
    epsilon_min: float = _training(0.05, float, "floor of epsilon")
    gamma: float = _training(0.83, float, "discount factor")
    memory_size: int = _training(60, int, "replay memory capacity, in experiences")
    # A layer-1 step scales with x.x + 1: at most 27 on grove_5x5, where 5e-4
    # diverges after an episode, so this keeps a 2.5x margin there only. On
    # block_9x9 x.x + 1 passes 80, and some seeds diverge at this rate.
    learning_rate: float = _training(0.0002, float, "SGD step size")
    batch_size: int = _training(16, int, "experiences replayed after every move")
    allow_shared_cells: bool = _training(False, _boolean, "let UAVs stack on one cell")
    log_traces: bool = _run(
        False, _boolean, "write best-episode traces for `render`", flag=True
    )

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            modes = ", ".join(MODES)
            raise ConfigError(f"mode must be one of {modes}, got {self.mode!r}")
        if not 1 <= self.n_uavs <= MAX_UAVS:
            raise ConfigError(f"n_uavs must be 1..{MAX_UAVS}, got {self.n_uavs}")
        try:  # also rejects more UAVs than the map has free or start cells
            start_positions(self.grid, self.n_uavs)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if not self.seeds:
            raise ConfigError("seeds must not be empty")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be non-negative, got {min(self.seeds)}")
        if self.max_episodes < 1:
            raise ConfigError("max_episodes must be positive")
        if self.step_budget is not None and self.step_budget < 0:
            raise ConfigError("step_budget must be non-negative")
        for name in ("epsilon", "epsilon_decay", "epsilon_min", "gamma"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ConfigError(f"{name} must be in (0, 1], got {value}")
        if not 0.0 < self.learning_rate < math.inf:
            raise ConfigError(
                f"learning_rate must be positive and finite, got {self.learning_rate}"
            )
        if self.batch_size < 1:
            raise ConfigError("batch_size must be positive")
        if self.memory_size < 1:
            raise ConfigError("memory_size must be positive")

    def epsilon_at(self, episode: int) -> float:
        """Exploration rate of an episode: max(epsilon_min, epsilon * decay^episode)."""
        if episode < 0:
            raise ValueError("episode must be non-negative")
        return max(self.epsilon_min, self.epsilon * self.epsilon_decay**episode)

    @property
    def episode_budget(self) -> int:
        """Per-episode cap on total swarm actions standing in for a maximum
        flight time: ``step_budget``, or 100 actions per free cell."""
        if self.step_budget is not None:
            return self.step_budget
        return STEP_BUDGET_PER_FREE_CELL * self.grid.free_count

    def episode_over(self, state: SwarmState) -> bool:
        """Coverage is complete or the episode budget is spent."""
        budget = self.episode_budget
        return is_coverage_complete(self.grid, state) or state.global_step >= budget


@dataclass(frozen=True)
class SweepOptions:
    """Settings of a whole config-file sweep that belong to no single
    experiment."""

    output: str = _run("results.csv", str, "results CSV path", flag=True)
    parallelism: int = _run(
        1, _positive_int, "worker processes for independent runs", flag=True
    )


@dataclass(frozen=True)
class EpisodeRecord:
    """One episode's outcome; ``moves`` holds (uav, action) pairs when
    trace logging is on, in the exact order the moves were made."""

    episode: int
    total_actions: int
    covered: bool
    per_uav_actions: tuple[int, ...]
    moves: tuple[tuple[int, int], ...] | None = None


@dataclass(frozen=True)
class RunResult:
    """All episodes of one seeded run."""

    seed: int
    episodes: tuple[EpisodeRecord, ...]

    @property
    def best_episode(self) -> EpisodeRecord | None:
        """The covering episode with the fewest total actions, or None."""
        covering = [rec for rec in self.episodes if rec.covered]
        if not covering:
            return None
        return min(covering, key=lambda rec: rec.total_actions)

    @property
    def best_total_actions(self) -> int | None:
        best = self.best_episode
        return None if best is None else best.total_actions


@dataclass(frozen=True)
class AggregateStats:
    """Mean and sample std of best totals over the seeds that covered."""

    mean: float
    std: float
    n_runs: int
    n_failed: int


def run_episode(
    controller: SwarmController, episode_index: int, rng: np.random.Generator
) -> EpisodeRecord:
    """Run one episode of the controller's spec from a fresh environment
    reset until coverage or budget exhaustion; the controller keeps
    learning throughout. Moves are recorded when the spec logs traces."""
    spec = controller.spec
    grid, epsilon = spec.grid, spec.epsilon_at(episode_index)
    state = initial_swarm_state(grid, spec.n_uavs)
    moves: list[tuple[int, int]] = []
    done = spec.episode_over(state)
    while not done:
        state, experiences, done = step_swarm(state, controller, epsilon, rng)
        if spec.log_traces:
            # step_swarm serves UAVs from index 0 up, so the position in
            # the experience list is the UAV index.
            moves.extend((uav, int(exp.action)) for uav, exp in enumerate(experiences))
    return EpisodeRecord(
        episode=episode_index,
        total_actions=state.global_step,
        covered=is_coverage_complete(grid, state),
        per_uav_actions=state.per_uav_actions,
        moves=tuple(moves) if spec.log_traces else None,
    )


def run_seed(spec: ExperimentSpec, seed: int) -> RunResult:
    """One fully deterministic run: a fresh controller trained for
    ``max_episodes`` episodes, everything driven by one generator, with
    BLAS on one thread."""
    rng = np.random.default_rng(seed)
    controller = SwarmController(spec, rng)
    with one_blas_thread():
        episodes = tuple(
            run_episode(controller, episode, rng)
            for episode in range(spec.max_episodes)
        )
    return RunResult(seed=seed, episodes=episodes)


def run_experiment(spec: ExperimentSpec) -> list[RunResult]:
    """Run every seed of the spec, in order."""
    return [run_seed(spec, seed) for seed in spec.seeds]


def run_sweep(
    specs: list[ExperimentSpec], parallelism: int = 1
) -> list[list[RunResult]]:
    """Run several experiments, optionally across worker processes, at
    most one per spec.

    Results come back in the order of ``specs`` regardless of which
    worker finished first, so output files are reproducible.
    """
    if parallelism < 1:
        raise ValueError("parallelism must be positive")
    workers = min(parallelism, len(specs))
    if workers <= 1:
        return [run_experiment(spec) for spec in specs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_experiment, specs))


def aggregate(results: list[RunResult]) -> AggregateStats:
    """Mean and sample standard deviation (n-1; a single sample has
    std 0) of best_total_actions over the seeds that achieved coverage.

    Raises AllRunsFailedError when no seed covered the map.
    """
    if not results:
        raise ValueError("no results to aggregate")
    best = [r.best_total_actions for r in results if r.best_total_actions is not None]
    n_failed = len(results) - len(best)
    if not best:
        raise AllRunsFailedError(
            f"none of the {len(results)} runs produced a covering episode"
        )
    mean = float(np.mean(best))
    std = 0.0 if len(best) == 1 else float(np.std(best, ddof=1))
    return AggregateStats(mean=mean, std=std, n_runs=len(best), n_failed=n_failed)


# ---------------------------------------------------------------------------
# Results CSV and trace sidecar.
#
# CSV layout: the fixed header, then per run its episode rows in order
# followed by one summary row. Episode rows leave best_total_actions
# empty; the summary row (episode column = "summary") carries it, along
# with whether any episode covered. Counts are written plain, booleans
# as true/false.


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def results_rows(spec: ExperimentSpec, results: list[RunResult]) -> list[list[str]]:
    rows = []
    for result in results:
        prefix = [spec.map_id, spec.n_uavs, spec.mode, result.seed]
        for rec in result.episodes:
            rows.append(prefix + [rec.episode, rec.total_actions, rec.covered, ""])
        best = result.best_total_actions
        rows.append(
            prefix
            + [
                SUMMARY_LABEL,
                "",
                any(rec.covered for rec in result.episodes),
                best if best is not None else "",
            ]
        )
    return [[_format_value(v) for v in row] for row in rows]


def write_results_csv(handle, rows: list[list[str]]) -> None:
    """Write the header plus pre-formatted rows with LF line endings."""
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(rows)


def trace_entries(spec: ExperimentSpec, results: list[RunResult]) -> list[dict]:
    """Replayable records of each run's best episode, for rendering.

    Only runs with a covering episode whose moves were logged appear
    (none without ``log_traces``). Each entry is
    self-contained: it embeds the map text so a renderer needs nothing
    but the sidecar file.
    """
    entries = []
    for result in results:
        best = result.best_episode
        if best is None or best.moves is None:
            continue
        entries.append(
            {
                "map_id": spec.map_id,
                "n_uavs": spec.n_uavs,
                "mode": spec.mode,
                "seed": result.seed,
                "map": spec.grid.to_text(),
                "allow_shared_cells": spec.allow_shared_cells,
                "best_episode": best.episode,
                "total_actions": best.total_actions,
                "moves": [list(move) for move in best.moves],
            }
        )
    return entries


def write_traces(handle, entries: list[dict]) -> None:
    json.dump({"traces": entries}, handle, indent=1)
    handle.write("\n")
