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

import functools
import json
import math
import os
from contextlib import nullcontext
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from .agent import LOCAL, MODES, SwarmController, step_swarm
from .densenet import NumericalError, one_blas_thread
from .gridworld import (
    MAX_UAVS,
    Action,
    GridMap,
    SwarmState,
    initial_swarm_state,
    is_coverage_complete,
    start_positions,
)

STEP_BUDGET_PER_FREE_CELL = 100

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
    import configparser  # only the config reader parses booleans

    states = configparser.ConfigParser.BOOLEAN_STATES
    if raw.lower() not in states:
        raise ValueError(f"expected a boolean, got {raw!r}")
    return states[raw.lower()]


_POSITIVE = (lambda v: v >= 1, "must be positive")
_UNIT = (lambda v: 0.0 < v <= 1.0, "must be in (0, 1]")


def _setting(
    default, parse, help_text, *, section, key=None, sweep=False, rule=None
):
    """A field that is also the config key ``key`` (default: the field name)
    under ``[section]``; ``parse`` turns the key's text into a value. The
    parser of a ``sweep`` key returns a tuple, and the CLI builds one spec
    per combination of sweep values. ``rule`` is a (test, text) pair: ``test``
    checks each value or sweep item, and ``text`` says what it asks for."""
    metadata = dict(
        section=section, key=key, parse=parse, help=help_text, sweep=sweep, rule=rule,
    )
    return field(default=default, metadata=metadata)


def _check_rules(settings) -> None:
    """Raise ConfigError for the first field of ``settings`` that breaks its rule."""
    for f in fields(settings):
        rule, value = f.metadata.get("rule"), getattr(settings, f.name)
        if rule is not None and not rule[0](value):
            raise ConfigError(f"{f.name} {rule[1]}, got {value!r}")


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
    n_uavs: int = _run(
        1, _ints, 'swarm sizes, e.g. "1, 2, 3"', key="uavs", sweep=True,
        rule=(lambda v: 1 <= v <= MAX_UAVS, f"must be 1..{MAX_UAVS}"),
    )
    mode: str = _run(
        LOCAL, _lowercase_items, f"any of {', '.join(MODES)}", key="modes", sweep=True,
        rule=(lambda v: v in MODES, f"must be one of {', '.join(MODES)}"),
    )
    seeds: tuple[int, ...] = _run(
        (1, 2, 3, 4, 5), _ints, "integer seeds",
        rule=(
            lambda v: v and min(v) >= 0 and len(set(v)) == len(v),
            "must be one or more distinct non-negative integers",
        ),
    )
    max_episodes: int = _run(
        30, int, "episodes per run", key="episodes", rule=_POSITIVE
    )
    step_budget: int | None = _run(
        None, int, "per-episode cap on total swarm actions "
        f"(default: {STEP_BUDGET_PER_FREE_CELL} x free cells)",
        rule=(lambda v: v is None or v >= 0, "must be non-negative"),
    )
    epsilon: float = _training(0.49, float, "initial exploration rate", rule=_UNIT)
    epsilon_decay: float = _training(0.93, float, "per-episode decay factor", rule=_UNIT)
    epsilon_min: float = _training(0.05, float, "floor of epsilon", rule=_UNIT)
    gamma: float = _training(0.83, float, "discount factor", rule=_UNIT)
    memory_size: int = _training(
        60, int, "replay memory capacity, in experiences", rule=_POSITIVE
    )
    # A layer-1 step scales with x.x + 1: at most 27 on grove_5x5, where 5e-4
    # diverges after an episode, so this keeps a 2.5x margin there only. On
    # block_9x9 x.x + 1 passes 80, and 9 of 10 runs diverge at this rate
    # (local mode, 1 and 3 UAVs, seeds 1-5, 30 episodes).
    learning_rate: float = _training(
        0.0002, float, "SGD step size",
        rule=(lambda v: 0.0 < v < math.inf, "must be positive and finite"),
    )
    batch_size: int = _training(
        16, int, "experiences replayed after every move", rule=_POSITIVE
    )
    allow_shared_cells: bool = _training(False, _boolean, "let UAVs stack on one cell")
    log_traces: bool = _run(
        False, _boolean, "write best-episode traces for `render`"
    )

    def __post_init__(self) -> None:
        _check_rules(self)
        try:  # rejects more UAVs than the map has free or start cells
            start_positions(self.grid, self.n_uavs)
        except ValueError as exc:
            raise ConfigError(f"{self.map_id}: {exc}") from exc

    def epsilon_at(self, episode: int) -> float:
        """Exploration rate of an episode: max(epsilon_min, epsilon * decay^episode)."""
        if episode < 0:
            raise ValueError("episode must be non-negative")
        return max(self.epsilon_min, self.epsilon * self.epsilon_decay**episode)

    @property
    def episode_budget(self) -> int:
        """Per-episode cap on total swarm actions standing in for a maximum
        flight time: ``step_budget``, or ``STEP_BUDGET_PER_FREE_CELL``
        actions per free cell."""
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
    experiment, and the only ones a command line flag may override: where
    the output goes and how many processes compute it change no byte of it."""

    output: str = _run(
        "results.csv", str, "results CSV path",
        rule=(lambda v: os.path.basename(v) not in ("", ".", ".."), "must name a file"),
    )
    parallelism: int = _run(
        1, int, "worker processes for independent runs", rule=_POSITIVE
    )

    __post_init__ = _check_rules


@dataclass(frozen=True)
class EpisodeRecord:
    """One episode's outcome; ``total_actions``, its score, is the sum of
    ``per_uav_actions``. ``trace`` holds one byte per move, ``4 * uav +
    action`` (at most 35, at nine UAVs), in the exact order the moves were
    made; ``moves`` decodes it."""

    episode: int
    covered: bool
    per_uav_actions: tuple[int, ...]
    trace: bytes

    @property
    def moves(self) -> tuple[tuple[int, int], ...]:
        """The (uav, action) pairs of ``trace``."""
        return tuple(divmod(move, len(Action)) for move in self.trace)

    @property
    def total_actions(self) -> int:
        return sum(self.per_uav_actions)


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
    """Mean and sample std of best totals over the seeds that covered;
    both None when no seed covered."""

    mean: float | None
    std: float | None
    n_runs: int
    n_failed: int


def run_episode(
    controller: SwarmController, episode_index: int, rng: np.random.Generator
) -> EpisodeRecord:
    """Run one episode of the controller's spec from a fresh environment
    reset until coverage or budget exhaustion; the controller keeps
    learning throughout. The UAVs move in turn from index 0, and the
    episode may end mid-round. Every move is recorded in the trace."""
    spec = controller.spec
    grid, epsilon = spec.grid, spec.epsilon_at(episode_index)
    state = initial_swarm_state(grid, spec.n_uavs)
    observation = controller.observe(state)
    trace = bytearray()
    done = spec.episode_over(state)
    while not done:
        uav = state.global_step % spec.n_uavs
        state, experience = step_swarm(state, uav, observation, controller, epsilon, rng)
        observation, done = experience.next_observation, experience.terminal
        trace.append(len(Action) * uav + experience.action)
    return EpisodeRecord(
        episode=episode_index,
        covered=is_coverage_complete(grid, state),
        per_uav_actions=state.per_uav_actions,
        trace=bytes(trace),
    )


def run_seed(spec: ExperimentSpec, seed: int) -> RunResult:
    """One fully deterministic run: a fresh controller trained for
    ``max_episodes`` episodes, everything driven by one generator, with
    BLAS on one thread. A NumericalError names the run and episode it
    came from."""
    rng = np.random.default_rng(seed)
    controller = SwarmController(spec, rng)
    episodes = []
    with one_blas_thread():
        for episode in range(spec.max_episodes):
            try:
                episodes.append(run_episode(controller, episode, rng))
            except NumericalError as exc:
                raise NumericalError(
                    f"{spec.map_id}, {spec.n_uavs} UAV, {spec.mode}, seed {seed}, "
                    f"episode {episode}: {exc}"
                ) from exc
    return RunResult(seed=seed, episodes=tuple(episodes))


def run_experiment(spec: ExperimentSpec) -> list[RunResult]:
    """Run every seed of the spec, in order."""
    return [run_seed(spec, seed) for seed in spec.seeds]


def run_sweep(
    specs: list[ExperimentSpec], parallelism: int = 1
) -> list[list[RunResult]]:
    """Run several experiments as one (spec, seed) run per task, on up to
    ``parallelism`` worker processes.

    Results come back per spec in seed order regardless of which worker
    finished first, so output files are reproducible.
    """
    runs = [replace(spec, seeds=(seed,)) for spec in specs for seed in spec.seeds]
    workers = min(parallelism, len(runs))
    if workers > 1:  # only a pool needs multiprocessing, so only a pool imports it
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        done = (pool.map if pool else map)(run_experiment, runs)
        return [[run for _ in spec.seeds for run in next(done)] for spec in specs]


def aggregate(results: list[RunResult]) -> AggregateStats:
    """Mean and sample standard deviation (n-1; a single sample has
    std 0) of best_total_actions over the seeds that achieved coverage,
    with the other seeds counted in ``n_failed``. When no seed covered,
    ``mean`` and ``std`` are None and ``n_runs`` is 0.
    """
    if not results:
        raise ValueError("no results to aggregate")
    best = [r.best_total_actions for r in results if r.best_total_actions is not None]
    mean = std = None
    if best:
        mean = float(np.mean(best))
        std = 0.0 if len(best) == 1 else float(np.std(best, ddof=1))
    return AggregateStats(mean, std, n_runs=len(best), n_failed=len(results) - len(best))


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
        covered = best is not None
        rows.append(prefix + [SUMMARY_LABEL, "", covered, best if covered else ""])
    return [[_format_value(v) for v in row] for row in rows]


def write_results_csv(handle, rows: list[list[str]]) -> None:
    """Write the header plus pre-formatted rows with LF line endings."""
    import csv  # only the writer needs csv, so a library run never loads it

    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(rows)


def trace_entries(spec: ExperimentSpec, results: list[RunResult]) -> list[dict]:
    """Replayable records of each run's best episode, for rendering.

    Every run records its moves, but entries appear only when the spec
    sets ``log_traces``, and then one per run with a covering episode.
    Each entry is self-contained: it embeds the map text so a renderer
    needs nothing but the sidecar file.
    """
    if not spec.log_traces:
        return []
    entries = []
    for result in results:
        best = result.best_episode
        if best is None:
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
