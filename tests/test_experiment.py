"""Harness tests: spec validation, episodes, runs, aggregation, CSV."""

import io
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from swarmcover import experiment
from swarmcover.agent import SwarmController
from swarmcover.densenet import NumericalError
from swarmcover.experiment import (
    CSV_HEADER,
    AllRunsFailedError,
    ConfigError,
    ExperimentSpec,
    RunResult,
    EpisodeRecord,
    aggregate,
    results_rows,
    run_episode,
    run_experiment,
    run_seed,
    run_sweep,
    trace_entries,
    write_results_csv,
)
from swarmcover.gridworld import (
    initial_swarm_state,
    is_coverage_complete,
    load_bundled_map,
    parse_map,
    transition,
)

TINY = parse_map("..\n..")


def tiny_spec(**kwargs):
    defaults = dict(map_id="tiny", grid=TINY, n_uavs=1, seeds=(1,), max_episodes=2)
    defaults.update(kwargs)
    return ExperimentSpec(**defaults)


# --- spec validation ----------------------------------------------------------


def test_spec_rejects_too_many_uavs_for_map():
    with pytest.raises(ConfigError):
        tiny_spec(n_uavs=5)


def test_spec_rejects_uav_count_out_of_range():
    with pytest.raises(ConfigError):
        tiny_spec(n_uavs=0)
    with pytest.raises(ConfigError):
        ExperimentSpec(map_id="big", grid=parse_map("." * 10 + "\n" + "." * 10), n_uavs=10)


def test_spec_rejects_more_uavs_than_designated_starts():
    grid = parse_map("1.\n..")
    with pytest.raises(ConfigError):
        ExperimentSpec(map_id="m", grid=grid, n_uavs=2)


def test_spec_rejects_bad_mode_and_hyperparameters():
    with pytest.raises(ConfigError):
        tiny_spec(mode="both")
    with pytest.raises(ConfigError):
        tiny_spec(epsilon=0.0)
    with pytest.raises(ConfigError):
        tiny_spec(gamma=1.5)
    with pytest.raises(ConfigError):
        tiny_spec(epsilon_decay=-0.1)
    with pytest.raises(ConfigError):
        tiny_spec(learning_rate=0.0)
    with pytest.raises(ConfigError):
        tiny_spec(batch_size=0)
    with pytest.raises(ConfigError):
        tiny_spec(seeds=())
    with pytest.raises(ConfigError):
        tiny_spec(seeds=(1, -1))
    with pytest.raises(ConfigError):
        tiny_spec(max_episodes=0)
    for value in (float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            tiny_spec(learning_rate=value)
    with pytest.raises(ConfigError):
        tiny_spec(memory_size=0)
    with pytest.raises(ConfigError):
        tiny_spec(epsilon_min=0.0)
    with pytest.raises(ConfigError):
        tiny_spec(step_budget=-1)


# --- step budget ---------------------------------------------------------------


def test_step_budget_default_is_100_per_free_cell():
    grove = load_bundled_map("grove_5x5")
    assert tiny_spec(grid=grove).episode_budget == 2100
    all_free_9 = parse_map("\n".join(["." * 9] * 9))
    assert tiny_spec(grid=all_free_9).episode_budget == 8100


def test_step_budget_override_wins():
    grove = load_bundled_map("grove_5x5")
    assert tiny_spec(grid=grove, step_budget=50).episode_budget == 50


# --- run_episode -----------------------------------------------------------------


def test_episode_covers_tiny_map_within_budget():
    for seed in range(1, 6):
        rng = np.random.default_rng(seed)
        controller = SwarmController(tiny_spec(step_budget=100), rng)
        record = run_episode(controller, 0, rng)
        assert record.covered
        assert record.total_actions <= 100


def test_episode_zero_budget():
    rng = np.random.default_rng(1)
    controller = SwarmController(tiny_spec(step_budget=0), rng)
    record = run_episode(controller, 0, rng)
    assert not record.covered
    assert record.total_actions == 0


def test_episode_starts_already_covering():
    rng = np.random.default_rng(1)
    controller = SwarmController(tiny_spec(n_uavs=4, step_budget=100), rng)
    record = run_episode(controller, 0, rng)
    assert record.covered
    assert record.total_actions == 0
    assert record.per_uav_actions == (0, 0, 0, 0)


def test_episode_total_is_sum_of_per_uav_counts():
    grid = parse_map("...\n...\n...")
    rng = np.random.default_rng(9)
    spec = tiny_spec(grid=grid, n_uavs=2, epsilon=0.5, step_budget=200)
    controller = SwarmController(spec, rng)
    for episode in range(3):
        record = run_episode(controller, episode, rng)
        assert record.total_actions == sum(record.per_uav_actions)


# --- runs ------------------------------------------------------------------------


def test_run_experiment_deterministic():
    spec = tiny_spec(seeds=(1, 2), max_episodes=3)
    assert run_experiment(spec) == run_experiment(spec)


def test_run_experiment_one_result_per_seed():
    spec = tiny_spec(seeds=(1, 2, 3, 4, 5), max_episodes=2)
    results = run_experiment(spec)
    assert [r.seed for r in results] == [1, 2, 3, 4, 5]


def test_best_episode_selection():
    spec = tiny_spec(seeds=(3,), max_episodes=5)
    result = run_seed(spec, 3)
    covering = [rec.total_actions for rec in result.episodes if rec.covered]
    assert covering, "tiny map should be covered"
    assert result.best_total_actions == min(covering)
    assert result.best_episode.covered


def test_no_covering_episode_gives_none():
    # Budget 1 cannot reach the 3 unvisited cells of the 2x2 map.
    spec = tiny_spec(step_budget=1, max_episodes=3)
    result = run_seed(spec, 1)
    assert result.best_total_actions is None
    assert all(not rec.covered for rec in result.episodes)


def test_traces_record_every_move():
    spec = tiny_spec(max_episodes=3, log_traces=True)
    result = run_seed(spec, 2)
    for rec in result.episodes:
        assert rec.moves is not None
        assert len(rec.moves) == rec.total_actions


TINY_3X3 = parse_map(".1.\n.#.\n23.\n")


@pytest.mark.parametrize("n_uavs", [1, 3])
@pytest.mark.parametrize("map_id", ["tiny_3x3", "grove_5x5"])
def test_covering_episodes_need_free_minus_uavs_actions(map_id, n_uavs):
    """Start cells count as visited, and every other free cell takes at
    least one action to enter, so no covering episode is shorter."""
    grid = TINY_3X3 if map_id == "tiny_3x3" else load_bundled_map(map_id)
    spec = tiny_spec(map_id=map_id, grid=grid, n_uavs=n_uavs, seeds=(1, 2),
                     max_episodes=4, step_budget=150)
    covering = [
        rec.total_actions
        for result in run_experiment(spec)
        for rec in result.episodes
        if rec.covered
    ]
    assert covering, "no episode covered; the check would be empty"
    assert min(covering) >= grid.free_count - n_uavs


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("learning_rate", [0.05, 1.0, 1e3])
@pytest.mark.parametrize("map_id", ["tiny_3x3", "grove_5x5"])
def test_diverging_run_raises_numerical_error(map_id, learning_rate):
    """A learning rate this high overflows the network within a few
    episodes; that must end the run with NumericalError, not leak numpy
    overflow warnings on the way."""
    grid = TINY_3X3 if map_id == "tiny_3x3" else load_bundled_map(map_id)
    spec = tiny_spec(map_id=map_id, grid=grid, max_episodes=3, step_budget=60,
                     learning_rate=learning_rate)
    with pytest.raises(NumericalError):
        run_seed(spec, 1)


def test_run_sweep_parallel_matches_sequential():
    specs = [tiny_spec(seeds=(1, 2), max_episodes=2, n_uavs=n) for n in (1, 2)]
    assert run_sweep(specs, parallelism=2) == run_sweep(specs, parallelism=1)


def test_run_sweep_starts_at_most_one_worker_per_spec(monkeypatch):
    pools = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", RecordingPool)
    specs = [tiny_spec(n_uavs=n) for n in (1, 2)]
    assert run_sweep(specs, parallelism=4) == run_sweep(specs, parallelism=1)
    assert run_sweep(specs[:1], parallelism=3) == run_sweep(specs[:1], parallelism=1)
    assert pools == [2]  # the one-spec sweep ran in this process


# --- aggregation -----------------------------------------------------------------


def result_with_best(seed, best):
    if best is None:
        return RunResult(seed=seed, episodes=(EpisodeRecord(0, 10, False, (10,)),))
    return RunResult(seed=seed, episodes=(EpisodeRecord(0, best, True, (best,)),))


def test_aggregate_single_sample():
    stats = aggregate([result_with_best(1, 10)])
    assert stats.mean == 10.0
    assert stats.std == 0.0
    assert (stats.n_runs, stats.n_failed) == (1, 0)


def test_aggregate_two_samples():
    stats = aggregate([result_with_best(1, 10), result_with_best(2, 14)])
    assert stats.mean == pytest.approx(12.0)
    assert stats.std == pytest.approx(2.8284271247461903, abs=1e-12)


def test_aggregate_excludes_failed_seeds():
    stats = aggregate(
        [result_with_best(1, 10), result_with_best(2, None), result_with_best(3, 14)]
    )
    assert stats.mean == pytest.approx(12.0)
    assert (stats.n_runs, stats.n_failed) == (2, 1)


def test_aggregate_all_failed():
    with pytest.raises(AllRunsFailedError):
        aggregate([result_with_best(1, None), result_with_best(2, None)])


# --- CSV and traces -----------------------------------------------------------------


def test_csv_header_and_row_counts():
    spec = tiny_spec(seeds=(1, 2), max_episodes=3)
    rows = results_rows(spec, run_experiment(spec))
    assert len(rows) == 2 * (3 + 1)
    buffer = io.StringIO()
    write_results_csv(buffer, rows)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == "map_id,n_uavs,mode,seed,episode,total_actions,covered,best_total_actions"
    assert len(lines) == 1 + len(rows)
    assert ",".join(CSV_HEADER) == lines[0]


def test_csv_episode_and_summary_rows():
    spec = tiny_spec(seeds=(1,), max_episodes=2)
    results = run_experiment(spec)
    rows = results_rows(spec, results)
    first = rows[0]
    assert first[:5] == ["tiny", "1", "local", "1", "0"]
    assert first[6] in ("true", "false")
    assert first[7] == ""  # best only appears on the summary row
    summary = rows[-1]
    assert summary[4] == "summary"
    assert summary[7] == str(results[0].best_total_actions)


def test_csv_bytes_reproducible():
    spec = tiny_spec(seeds=(4, 5), max_episodes=2)

    def render():
        buffer = io.StringIO()
        write_results_csv(buffer, results_rows(spec, run_experiment(spec)))
        return buffer.getvalue()

    assert render() == render()


def test_trace_entries_replay_to_coverage():
    grove = load_bundled_map("grove_5x5")
    spec = ExperimentSpec(
        map_id="grove_5x5", grid=grove, n_uavs=2, seeds=(1,),
        max_episodes=4, log_traces=True,
    )
    results = run_experiment(spec)
    entries = trace_entries(spec, results)
    assert len(entries) == sum(1 for r in results if r.best_total_actions is not None)
    for entry in entries:
        grid = parse_map(entry["map"])
        state = initial_swarm_state(grid, entry["n_uavs"])
        for uav, action in entry["moves"]:
            state, _ = transition(grid, state, uav, action, entry["allow_shared_cells"])
        assert is_coverage_complete(grid, state)
        assert state.global_step == entry["total_actions"]


def test_trace_entries_empty_without_logging():
    spec = tiny_spec(max_episodes=2)
    assert trace_entries(spec, run_experiment(spec)) == []
