"""Harness tests: spec validation, episodes, runs, aggregation, CSV."""

import dataclasses
import io
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from swarmcover import agent, experiment
from swarmcover.agent import SwarmController
from swarmcover.densenet import NumericalError, _openblas_thread_calls
from swarmcover.experiment import (
    CSV_HEADER,
    ConfigError,
    ExperimentSpec,
    RunResult,
    EpisodeRecord,
    SweepOptions,
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
    encode_observation,
    initial_swarm_state,
    is_coverage_complete,
    load_bundled_map,
    parse_map,
    replay,
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


def test_specs_and_states_compare_without_raising():
    """Grids and states compare by identity, as their arrays have no single
    truth value, so specs hash and compare whatever grids they hold."""
    spec = tiny_spec()
    assert hash(spec) == hash(dataclasses.replace(spec))
    assert spec == dataclasses.replace(spec)
    assert spec != tiny_spec(grid=parse_map("..\n.."))  # an equal grid, parsed again
    state = initial_swarm_state(TINY, 1)
    assert state == state
    assert state != initial_swarm_state(TINY, 1)


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


def test_spec_rejects_repeated_seeds():
    with pytest.raises(ConfigError, match="distinct"):
        tiny_spec(seeds=(3, 3))


def test_start_cell_error_names_the_map():
    with pytest.raises(ConfigError, match="^two.txt: map designates 2 start cells"):
        ExperimentSpec(map_id="two.txt", grid=parse_map("12\n.."), n_uavs=3)


def test_sweep_options_reject_parallelism_below_one():
    with pytest.raises(ConfigError, match="parallelism must be positive, got 0"):
        SweepOptions(parallelism=0)
    assert SweepOptions().parallelism == 1


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


def test_uavs_take_turns_from_index_zero():
    """UAV 0 moves first, so an episode that ends mid-round leaves the UAVs
    before the cut one move ahead (episode 0 here: 33 moves, 17 and 16)."""
    grid = parse_map("...\n...\n...")
    rng = np.random.default_rng(9)
    spec = tiny_spec(grid=grid, n_uavs=2, epsilon=0.5, step_budget=200)
    controller = SwarmController(spec, rng)
    totals = []
    for episode in range(3):
        record = run_episode(controller, episode, rng)
        total = record.total_actions
        totals.append(total)
        assert record.per_uav_actions == tuple(total // 2 + (i < total % 2) for i in range(2))
    assert any(total % 2 for total in totals)  # an uneven split was checked


@pytest.mark.parametrize("n_uavs", [1, 3])
def test_episode_encodes_each_state_once(monkeypatch, n_uavs):
    encoded_steps = []

    def counting_encode(grid, state):
        encoded_steps.append(state.global_step)
        return encode_observation(grid, state)

    monkeypatch.setattr(agent, "encode_observation", counting_encode)
    grid = load_bundled_map("grove_5x5")
    rng = np.random.default_rng(5)
    spec = tiny_spec(map_id="grove_5x5", grid=grid, n_uavs=n_uavs, step_budget=80)
    record = run_episode(SwarmController(spec, rng), 0, rng)
    assert len(encoded_steps) == record.total_actions + 1
    assert encoded_steps == list(range(record.total_actions + 1))


# --- runs ------------------------------------------------------------------------


def test_run_experiment_deterministic():
    spec = tiny_spec(seeds=(1, 2), max_episodes=3)
    assert run_experiment(spec) == run_experiment(spec)


def test_run_experiment_one_result_per_seed():
    spec = tiny_spec(seeds=(1, 2, 3, 4, 5), max_episodes=2)
    results = run_experiment(spec)
    assert [r.seed for r in results] == [1, 2, 3, 4, 5]


def test_run_seed_trains_on_one_blas_thread(monkeypatch):
    """Every episode of a run sees OpenBLAS on one thread, and the run
    restores the count it started from."""
    calls = _openblas_thread_calls()
    if calls is None:
        pytest.skip("numpy does not bundle OpenBLAS here")
    get_threads, set_threads = calls
    seen = []

    def recording_episode(*args):
        seen.append(get_threads())
        return run_episode(*args)

    monkeypatch.setattr(experiment, "run_episode", recording_episode)
    before = get_threads()
    set_threads(2)
    try:
        if get_threads() != 2:
            pytest.skip("OpenBLAS does not take a second thread here")
        run_seed(tiny_spec(max_episodes=2), 1)
        assert seen == [1, 1]
        assert get_threads() == 2
    finally:
        set_threads(before)


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
    # No log_traces: every run records its moves, and they replay to the
    # episode's own counts and coverage.
    spec = tiny_spec(max_episodes=3)
    result = run_seed(spec, 2)
    for rec in result.episodes:
        state = replay(spec.grid, spec.n_uavs, rec.moves)
        assert state.per_uav_actions == rec.per_uav_actions
        assert is_coverage_complete(spec.grid, state) == rec.covered


TINY_3X3 = parse_map(".1.\n.#.\n23.\n")


@pytest.mark.parametrize(
    "grid, n_uavs, episodes",
    [(TINY_3X3, 3, 6), (load_bundled_map("grove_5x5"), 1, 2)],
    ids=["tiny_3x3", "grove_5x5"],
)
def test_log_traces_changes_no_result(grid, n_uavs, episodes):
    spec = tiny_spec(grid=grid, n_uavs=n_uavs, max_episodes=episodes)
    untraced = run_seed(spec, 1)
    traced = run_seed(dataclasses.replace(spec, log_traces=True), 1)
    assert traced.episodes == untraced.episodes


def test_trace_bytes_replay_at_nine_uavs():
    # Nine start digits: UAV 8's moves are the largest trace bytes, 32 to 35.
    grid = parse_map("123.\n456.\n789.\n")
    spec = tiny_spec(grid=grid, n_uavs=9, max_episodes=5)
    result = run_seed(spec, 1)
    for rec in result.episodes:
        state = replay(grid, 9, rec.moves)
        assert state.per_uav_actions == rec.per_uav_actions
        assert is_coverage_complete(grid, state) == rec.covered
    assert any(uav == 8 for rec in result.episodes for uav, _ in rec.moves)


@pytest.mark.parametrize("log_traces", [False, True], ids=["untraced", "traced"])
def test_traced_run_holds_a_few_bytes_per_move(log_traces):
    # Batch size 1 keeps the run short; grove_5x5's first episodes run
    # hundreds of moves each, so a record's fixed cost is small next to its
    # moves. The warm-up run makes the process's replay scratch, and held
    # memory is what deleting the result frees, so numpy's own allocation
    # caches do not count.
    spec = tiny_spec(
        grid=load_bundled_map("grove_5x5"), max_episodes=4, batch_size=1,
        log_traces=log_traces,
    )
    run_seed(dataclasses.replace(spec, max_episodes=1), 2)
    tracemalloc.start()
    try:
        result = run_seed(spec, 2)
        moves = sum(rec.total_actions for rec in result.episodes)
        with_result, _ = tracemalloc.get_traced_memory()
        del result
        held = with_result - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert moves > 1000
    assert held <= 4 * moves


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
    with pytest.raises(NumericalError, match=rf"^{map_id}, 1 UAV, local, seed 1, episode \d+: "):
        run_seed(spec, 1)


def test_run_sweep_parallel_matches_sequential():
    specs = [tiny_spec(seeds=(1, 2), max_episodes=2, n_uavs=n) for n in (1, 2)]
    assert run_sweep(specs, parallelism=2) == run_sweep(specs, parallelism=1)
    one_spec = [tiny_spec(seeds=(1, 2, 3), max_episodes=2)]
    assert run_sweep(one_spec, parallelism=2) == run_sweep(one_spec, parallelism=1)


def test_run_sweep_starts_at_most_one_worker_per_run(monkeypatch):
    pools = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

        def map(self, fn, runs):
            runs = list(runs)
            assert fn is run_experiment
            assert all(len(run.seeds) == 1 for run in runs)
            return super().map(fn, runs)

    # run_sweep imports the pool when it starts one, so it reads this name.
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    specs = [tiny_spec(n_uavs=n) for n in (1, 2)]
    assert run_sweep(specs, parallelism=4) == run_sweep(specs, parallelism=1)
    assert run_sweep(specs[:1], parallelism=3) == run_sweep(specs[:1], parallelism=1)
    assert pools == [2]  # the one-run sweep ran in this process
    three_seeds = [tiny_spec(seeds=(1, 2, 3))]
    assert run_sweep(three_seeds, parallelism=2) == run_sweep(three_seeds, parallelism=1)
    assert pools == [2, 2]


# --- aggregation -----------------------------------------------------------------


def result_with_best(seed, best):
    if best is None:
        return RunResult(seed=seed, episodes=(EpisodeRecord(0, False, (10,), bytes(10)),))
    return RunResult(seed=seed, episodes=(EpisodeRecord(0, True, (best,), bytes(best)),))


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
    stats = aggregate([result_with_best(1, None), result_with_best(2, None)])
    assert stats.mean is None and stats.std is None
    assert (stats.n_runs, stats.n_failed) == (0, 2)
    with pytest.raises(ValueError):
        aggregate([])


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
        moves = entry["moves"]
        state = replay(grid, entry["n_uavs"], moves, entry["allow_shared_cells"])
        assert is_coverage_complete(grid, state)
        assert state.global_step == len(moves) == entry["total_actions"]


def test_trace_entries_empty_without_logging():
    spec = tiny_spec(max_episodes=2)
    assert trace_entries(spec, run_experiment(spec)) == []
