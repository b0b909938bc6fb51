"""Policy-layer tests: schedule, replay memory, targets, swarm stepping."""

import tracemalloc

import numpy as np
import pytest

from swarmcover.agent import (
    GLOBAL,
    LOCAL,
    Experience,
    ReplayMemory,
    SwarmController,
    bellman_target,
    select_action,
    step_swarm,
    train_from_memory,
)
from swarmcover.densenet import HIDDEN_UNITS, forward, init_network
from swarmcover.experiment import ExperimentSpec, run_episode
from swarmcover.gridworld import (
    Action,
    initial_swarm_state,
    is_coverage_complete,
    load_bundled_map,
    parse_map,
)


def make_spec(grid, n_uavs=1, mode=LOCAL, **kwargs):
    return ExperimentSpec(map_id="test", grid=grid, n_uavs=n_uavs, mode=mode, **kwargs)


def make_experience(marker=0.0, terminal=False, size=12):
    obs = np.zeros(size)
    nxt = np.ones(size)
    return Experience(obs, Action.NORTH, float(marker), nxt, terminal)


def zeroed_controller(grid, n_uavs, mode, seed=0, **config_kwargs):
    """Controller whose networks output all-zero Q-values (argmax -> North)."""
    rng = np.random.default_rng(seed)
    controller = SwarmController(make_spec(grid, n_uavs, mode, **config_kwargs), rng)
    for net in controller.networks:
        net.layer1.weights[:] = 0.0
        net.layer2.weights[:] = 0.0
    return controller, rng


def northward_episode(grid, n_uavs, **config_kwargs):
    """One run_episode of a zeroed controller at an epsilon so small
    that no seed-0 move explores: every UAV's first move is North."""
    controller, rng = zeroed_controller(
        grid, n_uavs, LOCAL, epsilon=1e-12, epsilon_min=1e-12, **config_kwargs,
    )
    return controller, run_episode(controller, 0, rng)


# --- epsilon schedule ---------------------------------------------------------


def test_epsilon_schedule_exact_values():
    spec = make_spec(parse_map("..\n.."))
    for n in range(41):
        assert spec.epsilon_at(n) == max(0.05, 0.49 * 0.93**n)
    assert spec.epsilon_at(0) == 0.49


def test_epsilon_schedule_monotone_and_floored():
    spec = make_spec(parse_map("..\n.."))
    values = [spec.epsilon_at(n) for n in range(60)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    # 0.49 * 0.93^n first drops below 0.05 at n = 32 and clamps there
    assert values[31] > 0.05
    assert all(v == 0.05 for v in values[32:])


def test_epsilon_schedule_rejects_negative_episode():
    with pytest.raises(ValueError):
        make_spec(parse_map("..\n..")).epsilon_at(-1)


# --- replay memory -------------------------------------------------------------


def test_memory_fifo_law_random_sequences():
    rng = np.random.default_rng(17)
    for _ in range(30):
        total = int(rng.integers(0, 150))
        memory = ReplayMemory(60)
        inserted = []
        for i in range(total):
            exp = make_experience(marker=i)
            inserted.append(exp)
            memory.append(exp)
        assert len(memory) == min(60, total)
        assert [e.reward for e in memory._buffer] == [e.reward for e in inserted[-60:]]


def test_memory_evicts_oldest_at_capacity():
    memory = ReplayMemory(60)
    for i in range(61):
        memory.append(make_experience(marker=i))
    assert len(memory) == 60
    rewards = [e.reward for e in memory._buffer]
    assert rewards[0] == 1.0  # insert 0 evicted
    assert rewards[-1] == 60.0


def test_memory_sample_clamps_and_is_unique():
    memory = ReplayMemory(60)
    memory.append(make_experience(marker=7))
    batch = memory.sample(16, np.random.default_rng(0))
    assert len(batch) == 1 and batch[0].reward == 7.0

    for i in range(1, 20):
        memory.append(make_experience(marker=i * 100))
    batch = memory.sample(20, np.random.default_rng(1))
    markers = [e.reward for e in batch]
    assert len(markers) == len(set(markers)) == 20  # without replacement


def test_memory_empty_sample_raises():
    with pytest.raises(ValueError):
        ReplayMemory(60).sample(4, np.random.default_rng(0))


# --- action selection -----------------------------------------------------------


def test_select_action_greedy():
    rng = np.random.default_rng(0)
    assert select_action(lambda: np.array([1.0, 5.0, 2.0, 0.0]), 0.0, rng) == Action.EAST


def test_select_action_tie_breaks_to_lowest_code():
    rng = np.random.default_rng(0)
    assert select_action(lambda: np.array([7.0, 7.0, 1.0, 1.0]), 0.0, rng) == Action.NORTH


def test_select_action_uniform_when_always_exploring():
    # chi-square over 10^4 draws must stay within 3 sigma of uniform:
    # for 3 degrees of freedom that is 3 + 3*sqrt(6).
    rng = np.random.default_rng(123)
    counts = np.zeros(4)
    q = np.array([0.0, 100.0, 0.0, 0.0])  # argmax would always pick East
    for _ in range(10_000):
        counts[select_action(lambda: q, 1.0, rng)] += 1
    chi2 = float((((counts - 2500.0) ** 2) / 2500.0).sum())
    assert chi2 < 3 + 3 * np.sqrt(6)

    # Given as a callable, the Q-values are computed only for a greedy pick.
    calls = []

    def qvalues_of():
        calls.append(1)
        return q

    for _ in range(1_000):
        select_action(qvalues_of, 1.0, rng)
    assert calls == []
    assert select_action(qvalues_of, 0.0, rng) == Action.EAST
    assert calls == [1]


def test_select_action_epsilon_validated():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        select_action(lambda: np.zeros(4), 1.5, rng)


# --- bellman target --------------------------------------------------------------


def test_bellman_target_non_terminal():
    q_next = np.array([10.0, -3.0, 2.0, 0.0])
    assert bellman_target(29.40, 0.83, q_next, False) == pytest.approx(
        37.70, abs=1e-9
    )


def test_bellman_target_terminal_cutoff():
    q_next = np.array([1e9, 1e9, 1e9, 1e9])
    assert bellman_target(-45.44, 0.83, q_next, True) == -45.44


def test_bellman_target_constant_next_values():
    q_next = np.full(4, 7.0)
    assert bellman_target(0.0, 0.83, q_next, False) == pytest.approx(0.83 * 7.0)


# --- controller wiring -------------------------------------------------------------


def test_local_mode_private_models():
    grid = parse_map("...\n...\n...")
    controller, _ = zeroed_controller(grid, 3, LOCAL)
    assert len(controller.networks) == 3
    assert len(controller.memories) == 3
    for uav in range(3):
        for _ in range(3):
            controller.memory_for(uav).append(make_experience(size=27))
    assert [len(m) for m in controller.memories] == [3, 3, 3]


def test_global_mode_shared_model_interleaves():
    grid = parse_map("...\n...\n...")
    controller, _ = zeroed_controller(grid, 2, GLOBAL)
    assert len(controller.networks) == 1
    assert controller.network_for(0) is controller.network_for(1)
    for step in range(4):
        for uav in range(2):
            controller.memory_for(uav).append(make_experience(marker=uav, size=27))
    assert [e.reward for e in controller.memories[0]._buffer] == [0, 1, 0, 1, 0, 1, 0, 1]


def test_record_respects_capacity():
    grid = parse_map("...\n...\n...")
    controller, _ = zeroed_controller(grid, 1, LOCAL, memory_size=60)
    for i in range(61):
        controller.memory_for(0).append(make_experience(marker=i, size=27))
    assert len(controller.memory_for(0)) == 60
    assert controller.memory_for(0)._buffer[0].reward == 1.0


# --- training from memory ------------------------------------------------------------


def test_train_from_memory_single_experience():
    grid = parse_map("..\n..")
    controller, rng = zeroed_controller(grid, 1, LOCAL)
    net = controller.networks[0]
    size = controller.live.size
    exp = Experience(np.zeros(size), Action.EAST, 5.0, np.ones(size), False)
    memory = controller.memory_for(0)
    memory.append(exp)
    b2_before = net.layer2.biases.copy()
    loss = train_from_memory(memory, net, controller.spec, rng)
    # zeroed weights: only the taken action's output bias moves, once
    assert net.layer2.biases[Action.EAST] != b2_before[Action.EAST]
    assert np.isfinite(loss)


def test_train_from_memory_zero_learning_rate():
    grid = parse_map("..\n..")
    controller, rng = zeroed_controller(grid, 1, LOCAL, learning_rate=1e-12)
    # The spec rejects a zero rate, so set it on the built spec: the pass
    # must apply the spec's rate, and a rate of 0 moves nothing.
    object.__setattr__(controller.spec, "learning_rate", 0.0)
    net = controller.networks[0]
    memory = controller.memory_for(0)
    for i in range(10):
        memory.append(make_experience(marker=i, size=controller.live.size))
    w1 = net.layer1.weights.copy()
    b2 = net.layer2.biases.copy()
    loss = train_from_memory(memory, net, controller.spec, rng)
    assert np.isfinite(loss)
    assert np.array_equal(net.layer1.weights, w1)
    assert np.array_equal(net.layer2.biases, b2)


def test_train_from_memory_deterministic():
    def run():
        rng = np.random.default_rng(5)
        controller = SwarmController(make_spec(parse_map("..\n..")), rng)
        memory = controller.memory_for(0)
        exp_rng = np.random.default_rng(99)
        size = controller.live.size
        for i in range(30):
            memory.append(
                Experience(
                    exp_rng.integers(0, 2, size).astype(float),
                    Action(int(exp_rng.integers(4))),
                    float(exp_rng.normal()),
                    exp_rng.integers(0, 2, size).astype(float),
                    False,
                )
            )
        net = controller.networks[0]
        losses = [
            train_from_memory(memory, net, controller.spec, rng) for _ in range(5)
        ]
        return losses, net.layer1.weights.copy()

    (losses_a, w_a), (losses_b, w_b) = run(), run()
    assert losses_a == losses_b
    assert np.array_equal(w_a, w_b)


# --- swarm stepping ---------------------------------------------------------------


def test_step_swarm_one_experience_per_uav():
    grid = load_bundled_map("grove_5x5")
    controller, rng = zeroed_controller(grid, 1, LOCAL)
    state = initial_swarm_state(grid, 1)
    observation = controller.observe(state)
    state, experience = step_swarm(state, 0, observation, controller, 0.0, rng)
    assert isinstance(experience, Experience)
    assert list(controller.memory_for(0)._buffer) == [experience]
    assert not experience.terminal
    assert state.global_step == 1


def test_step_swarm_three_uavs_in_order():
    grid = parse_map("....\n....\n....\n....")
    _, record = northward_episode(grid, 3, step_budget=30)
    uavs = [uav for uav, _ in record.moves]
    assert uavs[:4] == [0, 1, 2, 0]
    assert uavs == [i % 3 for i in range(len(uavs))]
    assert record.per_uav_actions == (10, 10, 10)
    assert not record.covered


def test_step_swarm_stops_after_completing_move():
    # Starts cover the bottom row; two unvisited cells remain. With zeroed
    # networks and no exploration every UAV goes North, so UAV 1's move
    # finishes coverage and UAV 2 never acts.
    grid = parse_map("..#\n123")
    controller, record = northward_episode(grid, 3)
    assert record.covered
    assert record.moves == ((0, Action.NORTH), (1, Action.NORTH))
    assert [exp.terminal for exp in controller.memory_for(0)._buffer] == [False]
    assert [exp.terminal for exp in controller.memory_for(1)._buffer] == [True]
    assert record.per_uav_actions == (1, 1, 0)


def test_step_swarm_budget_exhaustion_is_terminal():
    grid = load_bundled_map("grove_5x5")
    controller, rng = zeroed_controller(grid, 2, LOCAL, step_budget=1)
    state = initial_swarm_state(grid, 2)
    observation = controller.observe(state)
    state, experience = step_swarm(state, 0, observation, controller, 0.0, rng)
    assert experience.terminal
    assert state.global_step == 1
    controller, record = northward_episode(grid, 2, step_budget=1)
    assert record.moves == ((0, Action.NORTH),)
    assert record.per_uav_actions == (1, 0)


def test_step_swarm_local_isolation():
    grid = parse_map("....\n....\n....\n....")
    rng = np.random.default_rng(3)
    controller = SwarmController(make_spec(grid, 2, LOCAL), rng)
    other_w1 = controller.networks[1].layer1.weights.copy()
    state = initial_swarm_state(grid, 2)
    # Drive only UAV 0's pipeline: record into its memory and train its net.
    obs = np.zeros(controller.live.size)
    for i in range(20):
        controller.memory_for(0).append(Experience(obs, Action.EAST, 1.0 + i, obs, False))
    train_from_memory(
        controller.memory_for(0), controller.network_for(0), controller.spec, rng
    )
    assert np.array_equal(controller.networks[1].layer1.weights, other_w1)
    assert len(controller.memory_for(1)) == 0


def test_step_swarm_local_global_parity_single_uav():
    grid = load_bundled_map("grove_5x5")

    def trace(mode):
        rng = np.random.default_rng(21)
        controller = SwarmController(make_spec(grid, 1, mode), rng)
        state = initial_swarm_state(grid, 1)
        observation = controller.observe(state)
        actions = []
        for _ in range(25):
            state, exp = step_swarm(state, 0, observation, controller, 0.3, rng)
            actions.append(int(exp.action))
            observation = exp.next_observation
            if exp.terminal:
                break
        return actions, state.positions

    assert trace(LOCAL) == trace(GLOBAL)


def test_run_episode_runs_forward_only_on_greedy_moves(monkeypatch):
    """Epsilon-greedy draws its coin before any Q-value exists: an
    exploring move never runs the network, a greedy move runs it once."""
    calls = []

    def counting_forward(net, observation):
        calls.append(1)
        return forward(net, observation)

    monkeypatch.setattr("swarmcover.agent.forward", counting_forward)
    grid = load_bundled_map("grove_5x5")
    for epsilon, calls_per_move in [(1.0, 0), (1e-12, 1)]:
        calls.clear()
        rng = np.random.default_rng(5)
        spec = make_spec(
            grid, 2, GLOBAL, epsilon=epsilon, epsilon_min=epsilon, step_budget=60
        )
        record = run_episode(SwarmController(spec, rng), 0, rng)
        assert record.total_actions > 0
        assert len(calls) == calls_per_move * record.total_actions


def test_experience_terminal_flags_match_outcomes():
    grid = parse_map("..\n..")
    controller, rng = zeroed_controller(grid, 1, LOCAL)
    state = initial_swarm_state(grid, 1)
    observation = controller.observe(state)
    seen_terminal = False
    for _ in range(400):
        state, exp = step_swarm(state, 0, observation, controller, 1.0, rng)
        assert exp.terminal == is_coverage_complete(grid, state)
        observation = exp.next_observation
        if exp.terminal:
            seen_terminal = True
            break
    assert seen_terminal


def test_forward_consistency_through_controller():
    # network_for must hand back the exact owned instance, so training it
    # changes subsequent forwards through the same handle.
    grid = parse_map("..\n..")
    rng = np.random.default_rng(8)
    controller = SwarmController(make_spec(grid, 1, GLOBAL), rng)
    obs = np.zeros(controller.live.size)
    before = forward(controller.network_for(0), obs).copy()
    controller.memory_for(0).append(Experience(obs, Action.NORTH, 50.0, obs, True))
    train_from_memory(
        controller.memory_for(0), controller.network_for(0), controller.spec, rng
    )
    after = forward(controller.network_for(0), obs)
    assert not np.array_equal(before, after)


def test_building_a_controller_makes_no_full_width_w1():
    """Each network is drawn a block of rows at a time at its live width:
    building three block_9x9 networks never holds a (1013, 243) W1, so the
    allocation peak above the finished networks stays well under one."""
    spec = make_spec(load_bundled_map("block_9x9"), 3, LOCAL)
    SwarmController(spec, np.random.default_rng(1))  # warm any lazy set-up
    tracemalloc.start()
    try:
        controller = SwarmController(spec, np.random.default_rng(2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = sum(
        layer.weights.nbytes + layer.biases.nbytes
        for net in controller.networks
        for layer in (net.layer1, net.layer2)
    )
    assert peak - kept < HIDDEN_UNITS * 243 * 8 // 4


def test_narrow_network_trains_like_the_full_width_one():
    # The controller draws a full-width network and keeps its live columns,
    # so the same seed gives the same kept weights and the same stream.
    grid = load_bundled_map("grove_5x5")
    spec = make_spec(grid)
    narrow_rng, full_rng = np.random.default_rng(4), np.random.default_rng(4)
    controller = SwarmController(spec, narrow_rng)
    full = init_network(3 * grid.rows * grid.cols, full_rng)
    narrow, live = controller.networks[0], controller.live
    assert narrow.layer1.weights.flags.c_contiguous
    assert np.array_equal(narrow.layer1.weights, full.layer1.weights[:, live])
    assert narrow_rng.random() == full_rng.random()
    dead_columns = np.delete(full.layer1.weights, live, axis=1)

    # 150 moves of a real episode, then the same replay passes on both: the
    # full one sees each observation as the image it was cut from.
    episode_rng = np.random.default_rng(7)
    explorer = SwarmController(spec, episode_rng)
    state, experiences = initial_swarm_state(grid, 1), []
    observation = explorer.observe(state)
    for _ in range(150):
        state, exp = step_swarm(state, 0, observation, explorer, 0.5, episode_rng)
        experiences.append(exp)
        observation = exp.next_observation
        if exp.terminal:
            break

    def image(observation):
        full_image = np.zeros(3 * grid.rows * grid.cols)
        full_image[live] = observation
        return full_image

    memories = ReplayMemory(spec.memory_size), ReplayMemory(spec.memory_size)
    for exp in experiences:
        memories[0].append(exp)
        memories[1].append(
            Experience(
                image(exp.observation), exp.action, exp.reward,
                image(exp.next_observation), exp.terminal,
            )
        )
        train_from_memory(memories[0], narrow, spec, narrow_rng)
        train_from_memory(memories[1], full, spec, full_rng)

    def close(a, b):
        return np.allclose(a, b, rtol=1e-9, atol=1e-9)

    assert all(
        close(forward(narrow, exp.observation), forward(full, image(exp.observation)))
        for exp in experiences
    )
    assert close(narrow.layer1.weights, full.layer1.weights[:, live])
    assert close(narrow.layer1.biases, full.layer1.biases)
    assert close(narrow.layer2.weights, full.layer2.weights)
    assert close(narrow.layer2.biases, full.layer2.biases)
    assert np.array_equal(np.delete(full.layer1.weights, live, axis=1), dead_columns)
