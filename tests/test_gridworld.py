"""Environment tests: map parsing, moves, rewards, encoding."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from swarmcover.gridworld import (
    BLOCKED_REWARD,
    BUNDLED_MAP_NOTES,
    NEW_CELL_BASE_REWARD,
    VISITED_CELL_REWARD,
    MAX_UAVS,
    START_CHARS,
    Action,
    MapError,
    MoveKind,
    draw_state,
    encode_observation,
    initial_swarm_state,
    is_coverage_complete,
    live_inputs,
    load_bundled_map,
    new_cell_reward,
    parse_map,
    replay,
    resolve_map,
    start_positions,
    transition,
    unvisited_free_count,
)


def test_parse_all_free():
    grid = parse_map("..\n..")
    assert (grid.rows, grid.cols) == (2, 2)
    assert grid.free_count == 4
    assert not grid.obstacles.any()


def test_parse_single_obstacle():
    grid = parse_map(".#\n..")
    assert grid.obstacles[0, 1]
    assert grid.free_count == 3


def test_parse_disconnected_free_cells():
    with pytest.raises(MapError, match="4-connected"):
        parse_map("1#\n#.")


def test_parse_ragged_lines():
    with pytest.raises(MapError, match="line 2"):
        parse_map("..\n...")


def test_parse_unknown_character():
    with pytest.raises(MapError, match="unknown character 'x'"):
        parse_map(".x\n..")


def test_parse_no_free_cell():
    with pytest.raises(MapError, match="no free cell"):
        parse_map("##\n##")


def test_parse_too_small():
    with pytest.raises(MapError, match="at least 2x2"):
        parse_map("...")
    with pytest.raises(MapError, match="empty"):
        parse_map("")


def test_parse_start_digits_in_order():
    grid = parse_map("2.\n.1")
    assert grid.starts == ((1, 1), (0, 0))


def test_parse_duplicate_start_digit():
    with pytest.raises(MapError, match="more than once"):
        parse_map("11\n..")


def test_parse_gapped_start_digits():
    with pytest.raises(MapError, match="without gaps"):
        parse_map("1.\n.3")


def test_roundtrip_serialization():
    for text in ("..\n..\n", ".#.\n1.2\n...\n", "#..\n..#\n"):
        assert parse_map(text).to_text() == text
    for map_id in BUNDLED_MAP_NOTES:
        grid = load_bundled_map(map_id)
        assert parse_map(grid.to_text()).to_text() == grid.to_text()


def test_obstacles_immutable():
    grid = parse_map(".#\n..")
    with pytest.raises(ValueError):
        grid.obstacles[0, 0] = True


# --- transition -----------------------------------------------------------


def test_open_move_is_new_cell():
    grid = parse_map("...\n...\n...")
    state = initial_swarm_state(grid, 1)
    state, outcome = transition(grid, state, 0, Action.EAST)
    assert outcome.kind is MoveKind.NEW_CELL
    assert state.positions[0] == (0, 1)
    assert state.visited[0, 1]


def test_off_grid_move_is_blocked():
    grid = parse_map("...\n...\n...")
    state = initial_swarm_state(grid, 1)
    state, outcome = transition(grid, state, 0, Action.NORTH)
    assert outcome.kind is MoveKind.BLOCKED
    assert outcome.reward == pytest.approx(-45.44)
    assert state.positions[0] == (0, 0)


def test_return_to_visited_cell():
    grid = parse_map("...\n...\n...")
    state = initial_swarm_state(grid, 1)
    state, _ = transition(grid, state, 0, Action.EAST)
    state, outcome = transition(grid, state, 0, Action.WEST)
    assert outcome.kind is MoveKind.VISITED_CELL
    assert outcome.reward == pytest.approx(-31.66)
    assert state.positions[0] == (0, 0)


def test_obstacle_blocks():
    grid = parse_map(".#\n..")
    state = initial_swarm_state(grid, 1)
    state, outcome = transition(grid, state, 0, Action.EAST)
    assert outcome.kind is MoveKind.BLOCKED
    assert state.positions[0] == (0, 0)


def test_occupied_cell_blocks_by_default():
    grid = parse_map("12\n..")
    state = initial_swarm_state(grid, 2)
    state, outcome = transition(grid, state, 0, Action.EAST)
    assert outcome.kind is MoveKind.BLOCKED
    assert state.positions == ((0, 0), (0, 1))


def test_shared_cells_flag_permits_co_location():
    grid = parse_map("12\n..")
    state = initial_swarm_state(grid, 2)
    state, outcome = transition(grid, state, 0, Action.EAST, allow_shared_cells=True)
    assert outcome.kind is MoveKind.VISITED_CELL
    assert state.positions == ((0, 1), (0, 1))


def test_every_attempt_costs_one_action():
    grid = parse_map(".#\n..")
    state = initial_swarm_state(grid, 1)
    for action in (Action.NORTH, Action.EAST, Action.SOUTH):  # blocked, blocked, new
        state, _ = transition(grid, state, 0, action)
    assert state.per_uav_actions == (3,)
    assert state.global_step == 3


def test_transition_does_not_mutate_input_state():
    grid = parse_map("..\n..")
    state = initial_swarm_state(grid, 1)
    visited_before = state.visited.copy()
    positions_before = state.positions
    transition(grid, state, 0, Action.EAST)
    assert np.array_equal(state.visited, visited_before)
    assert state.positions == positions_before
    assert state.global_step == 0


def test_transition_conservation_random_walk():
    # Exactly one outcome kind per move; visited count grows by one
    # exactly on NewCell and never shrinks; a blocked UAV stays put.
    grid = load_bundled_map("grove_5x5")
    state = initial_swarm_state(grid, 2)
    rng = np.random.default_rng(11)
    for _ in range(300):
        uav = int(rng.integers(2))
        before = int(np.count_nonzero(state.visited))
        position_before = state.positions[uav]
        state, outcome = transition(grid, state, uav, int(rng.integers(4)))
        grew = int(np.count_nonzero(state.visited)) - before
        assert grew == (1 if outcome.kind is MoveKind.NEW_CELL else 0)
        if outcome.kind is MoveKind.BLOCKED:
            assert state.positions[uav] == position_before


@st.composite
def walks(draw):
    """A 2-5 x 2-5 map with random obstacles, a swarm on it, and a list of
    up to 60 (uav, action) moves."""
    rows, cols = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    lines = [draw(st.text(st.sampled_from("...#"), min_size=cols, max_size=cols))
             for _ in range(rows)]
    try:
        grid = parse_map("\n".join(lines))
    except MapError:
        assume(False)
    n_uavs = draw(st.integers(1, min(3, grid.free_count)))
    moves = st.tuples(st.integers(0, n_uavs - 1), st.sampled_from(Action))
    return grid, n_uavs, draw(st.booleans()), draw(st.lists(moves, max_size=60))


@settings(max_examples=200, deadline=None)
@given(walks())
def test_transition_invariants_on_generated_maps(walk):
    grid, n_uavs, shared, moves = walk
    state = initial_swarm_state(grid, n_uavs)
    for made, (uav, action) in enumerate(moves, start=1):
        before = state
        unvisited = unvisited_free_count(grid, before)
        state, outcome = transition(grid, before, uav, action, shared)
        assert state.global_step == sum(state.per_uav_actions) == made
        assert not (before.visited & ~state.visited).any()
        grew = int(np.count_nonzero(state.visited)) - int(np.count_nonzero(before.visited))
        assert grew == (1 if outcome.kind is MoveKind.NEW_CELL else 0)
        assert all(grid.is_free(*pos) for pos in state.positions)
        if not shared:
            assert len(set(state.positions)) == n_uavs
        if outcome.kind is MoveKind.NEW_CELL:
            assert outcome.reward == new_cell_reward(grid.rows, grid.cols, unvisited)
        else:
            assert outcome.reward == {
                MoveKind.BLOCKED: BLOCKED_REWARD,
                MoveKind.VISITED_CELL: VISITED_CELL_REWARD,
            }[outcome.kind]


def test_reward_ordering():
    grid = load_bundled_map("grove_5x5")
    state = initial_swarm_state(grid, 1)
    new = new_cell_reward(grid.rows, grid.cols, unvisited_free_count(grid, state))
    assert new > 0 > VISITED_CELL_REWARD > BLOCKED_REWARD


# --- rewards ---------------------------------------------------------------


def test_reward_constants():
    assert NEW_CELL_BASE_REWARD == 29.40
    assert VISITED_CELL_REWARD == -31.66
    assert BLOCKED_REWARD == -45.44


@pytest.mark.parametrize(
    "rows, cols, non_visited, expected",
    [
        (5, 5, 25, 35.28),
        (5, 5, 1, 176.40),
        (9, 9, 9, 58.80),
    ],
)
def test_new_cell_reward_values(rows, cols, non_visited, expected):
    assert new_cell_reward(rows, cols, non_visited) == pytest.approx(
        expected, abs=1e-9
    )


def test_new_cell_reward_strictly_decreasing():
    values = [new_cell_reward(7, 7, n) for n in range(1, 50)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_new_cell_reward_rejects_zero_remaining():
    with pytest.raises(ValueError):
        new_cell_reward(5, 5, 0)


# --- observation encoding ---------------------------------------------------


def test_encoding_channels():
    grid = parse_map(".#\n..")
    state = initial_swarm_state(grid, 1)  # UAV at (0,0), pre-visited
    obs = encode_observation(grid, state)
    assert obs.shape == (12,)
    assert obs[0:4].tolist() == [0, 1, 0, 0]  # obstacle channel
    assert obs[4:8].tolist() == [1, 0, 0, 0]  # visited channel
    assert obs[8:12].tolist() == [1, 0, 0, 0]  # UAV channel


def test_encoding_uav_on_visited_cell():
    grid = parse_map("..\n..")
    state = initial_swarm_state(grid, 1)
    state, _ = transition(grid, state, 0, Action.EAST)
    state, _ = transition(grid, state, 0, Action.SOUTH)  # now at (1,1)
    obs = encode_observation(grid, state)
    assert obs[4:8].tolist() == [1, 1, 0, 1]
    assert obs[8:12].tolist() == [0, 0, 0, 1]


@settings(max_examples=200, deadline=None)
@given(walks())
def test_live_inputs_hold_every_entry_a_state_can_set(walk):
    grid, n_uavs, shared, moves = walk
    live = live_inputs(grid)
    assert (np.diff(live) > 0).all()  # image order
    dead = np.ones(3 * grid.rows * grid.cols, dtype=bool)
    dead[live] = False
    live_obstacles = live[live < grid.rows * grid.cols]
    state = initial_swarm_state(grid, n_uavs)
    for step in range(len(moves) + 1):
        if step:
            state, _ = transition(grid, state, *moves[step - 1], shared)
        image = encode_observation(grid, state)
        assert not image[dead].any()
        assert (image[live_obstacles] == 1.0).all()


def test_live_inputs_examples():
    # Obstacle cells in the first plane, free cells in the other two.
    grid = parse_map(".#\n..")
    assert live_inputs(grid).tolist() == [1, 4, 6, 7, 8, 10, 11]
    grove = load_bundled_map("grove_5x5")
    assert live_inputs(grove).size == 75 - 29
    assert live_inputs(load_bundled_map("block_9x9")).size == 243 - 102


def test_encoding_shape_for_bundled_maps():
    for map_id in BUNDLED_MAP_NOTES:
        grid = load_bundled_map(map_id)
        state = initial_swarm_state(grid, 1)
        obs = encode_observation(grid, state)
        assert obs.shape == (3 * grid.rows * grid.cols,)
        assert set(np.unique(obs)) <= {0.0, 1.0}


# --- coverage predicate ------------------------------------------------------


def test_coverage_complete_all_free():
    grid = parse_map("..\n..")
    state = initial_swarm_state(grid, 4)  # 4 UAVs fill the map at start
    assert is_coverage_complete(grid, state)


def test_coverage_incomplete():
    grid = parse_map("..\n..")
    state = initial_swarm_state(grid, 3)
    assert not is_coverage_complete(grid, state)


def test_coverage_ignores_obstacles():
    grid = parse_map(".#\n..")
    state = initial_swarm_state(grid, 3)
    assert is_coverage_complete(grid, state)


# --- starts ------------------------------------------------------------------


def test_start_positions_digits_win():
    grid = parse_map(".2\n1.")
    assert start_positions(grid, 2) == ((1, 0), (0, 1))
    assert start_positions(grid, 1) == ((1, 0),)


def test_start_positions_row_major_fallback():
    grid = parse_map(".#\n..")
    assert start_positions(grid, 2) == ((0, 0), (1, 0))


def test_start_positions_too_many_uavs():
    grid = parse_map("1.\n..")
    with pytest.raises(ValueError):
        start_positions(grid, 2)  # digits present: only 1 designated start
    with pytest.raises(ValueError):
        start_positions(parse_map(".#\n#."), 2)


def test_initial_state_pre_visits_starts():
    grid = parse_map("..\n..")
    state = initial_swarm_state(grid, 2)
    assert int(np.count_nonzero(state.visited)) == 2
    assert state.per_uav_actions == (0, 0)
    assert state.global_step == 0


# --- replay ------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(walks())
def test_replay_is_the_walk_cut_at_first_coverage(walk):
    grid, n_uavs, shared, moves = walk
    states = [initial_swarm_state(grid, n_uavs)]
    for uav, action in moves:
        states.append(transition(grid, states[-1], uav, action, shared)[0])
    expected = next((s for s in states if is_coverage_complete(grid, s)), states[-1])
    state = replay(grid, n_uavs, moves, shared)
    assert state.positions == expected.positions
    assert (state.visited == expected.visited).all()
    assert state.per_uav_actions == expected.per_uav_actions
    assert state.global_step == expected.global_step


def test_replay_makes_no_move_after_coverage():
    # Two moves cover the map; the third names a UAV the swarm does not have.
    grid = parse_map("..\n..")
    moves = [(0, Action.SOUTH), (1, Action.SOUTH), (2, Action.EAST)]
    state = replay(grid, 2, moves)
    assert is_coverage_complete(grid, state)
    assert state.global_step == 2
    assert state.per_uav_actions == (1, 1)


# --- drawing -----------------------------------------------------------------


def test_draw_state_glyphs():
    grid = parse_map("..#\n...\n")
    state = initial_swarm_state(grid, 2)  # UAV 1 at (0, 0), UAV 2 at (0, 1)
    assert draw_state(grid, state) == "12#\n···"
    # UAV 2 joins UAV 1: the shared cell shows the lower digit, and the
    # cell UAV 2 left stays visited.
    state, _ = transition(grid, state, 1, Action.WEST, allow_shared_cells=True)
    assert draw_state(grid, state) == "1▪#\n···"
    state, _ = transition(grid, state, 1, Action.SOUTH)
    assert draw_state(grid, state) == "1▪#\n2··"
    # Obstacles win over the visited mask.
    everywhere = replace(state, visited=np.ones((2, 3), dtype=bool))
    assert draw_state(grid, everywhere) == "1▪#\n2▪▪"


def test_draw_state_refuses_more_uavs_than_digits():
    assert MAX_UAVS == len(START_CHARS) == 9
    grid = parse_map("...\n" * 4)
    draw_state(grid, initial_swarm_state(grid, MAX_UAVS))
    with pytest.raises(ValueError, match="cannot draw 10 UAVs"):
        draw_state(grid, initial_swarm_state(grid, MAX_UAVS + 1))


# --- bundled maps ------------------------------------------------------------


def test_bundled_map_inventory():
    assert len(BUNDLED_MAP_NOTES) == 5
    expected_free = {
        "grove_5x5": 21,
        "corners_6x6": 28,
        "skew_7x7": 39,
        "diagonal_8x8": 57,
        "block_9x9": 60,
    }
    for map_id, free in expected_free.items():
        grid = load_bundled_map(map_id)  # parse_map validates connectivity
        assert grid.free_count == free
        size = int(map_id.split("_")[1].split("x")[0])
        assert (grid.rows, grid.cols) == (size, size)
        assert map_id in BUNDLED_MAP_NOTES


def test_resolve_map_bundled_and_path(tmp_path):
    assert resolve_map("grove_5x5").free_count == 21
    path = tmp_path / "custom.txt"
    path.write_text("..\n.#\n")
    assert resolve_map(str(path)).free_count == 3
    with pytest.raises(MapError):
        resolve_map("no_such_map")

    # A name that cannot be opened or decoded is a MapError naming it, as
    # a bad map text is; so is an unknown bundled id.
    latin = tmp_path / "latin.txt"
    latin.write_bytes(b"1.\n.\xff\n")
    for name in (tmp_path / "missing.txt", latin, tmp_path):
        with pytest.raises(MapError, match="neither a bundled map id nor a readable") as info:
            resolve_map(str(name))
        assert str(name) in str(info.value)
    with pytest.raises(MapError, match="no bundled map named 'nope'"):
        load_bundled_map("nope")
