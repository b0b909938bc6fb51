"""Grid flight environment: obstacle maps, swarm state, moves and rewards.

Maps are small rectangular grids of free and obstacle cells, loaded from
text files ('.' free, '#' obstacle, digits 1-9 mark optional start cells).
A swarm of at most nine UAVs, drawn as those digits by ``draw_state``,
moves one cell at a time (north/east/south/west) and the task is to visit
every free cell of the map.

Reward per move:
- entering an unvisited free cell: ``NEW_CELL_BASE_REWARD`` scaled up as
  fewer unvisited cells remain, so the last discoveries pay the most
- re-entering an already visited cell: ``VISITED_CELL_REWARD``
- bumping an obstacle, the map edge or another UAV: ``BLOCKED_REWARD``,
  and the UAV stays where it was

Every attempt, blocked or not, counts as one action for the acting UAV.

All operations here are pure functions of their inputs: ``transition``
returns a fresh :class:`SwarmState` and never mutates its argument, so
concurrent experiment runs can safely share nothing but the map.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum
from importlib import resources

import numpy as np

NEW_CELL_BASE_REWARD = 29.40
VISITED_CELL_REWARD = -31.66
BLOCKED_REWARD = -45.44

FREE_CHAR = "."
OBSTACLE_CHAR = "#"
START_CHARS = "123456789"
VISITED_CHAR = "▪"
UNVISITED_CHAR = "·"
MAX_UAVS = len(START_CHARS)


class MapError(ValueError):
    """A map that cannot be used: a name that is neither a bundled map id
    nor a readable map file, or a map text that ``parse_map`` rejects."""


class Action(IntEnum):
    """The four compass moves, encoded 0..3 in fixed order."""

    NORTH = 0
    EAST = 1
    SOUTH = 2
    WEST = 3


# (row, col) displacement per action; row 0 is the top of the map.
ACTION_DELTAS = {
    Action.NORTH: (-1, 0),
    Action.EAST: (0, 1),
    Action.SOUTH: (1, 0),
    Action.WEST: (0, -1),
}


class MoveKind(Enum):
    NEW_CELL = "new_cell"
    VISITED_CELL = "visited_cell"
    BLOCKED = "blocked"


@dataclass(frozen=True)
class MoveOutcome:
    """What a single UAV move did: cell kind and reward earned."""

    kind: MoveKind
    reward: float


@dataclass(frozen=True, eq=False)
class GridMap:
    """Immutable obstacle grid plus optional designated start cells.

    ``obstacles`` is a rows x cols boolean array (True = obstacle).
    ``starts`` holds the coordinates marked with digits in the map file,
    ordered by digit; empty when the file used none. Grids compare and
    hash by identity, as an array has no single truth value.
    """

    rows: int  # the shape of ``obstacles``, kept as fields: parse_map, their
    cols: int  # only producer, sets all three from the same lines
    obstacles: np.ndarray
    starts: tuple[tuple[int, int], ...] = ()

    @property
    def free_count(self) -> int:
        return int(self.rows * self.cols - np.count_nonzero(self.obstacles))

    def is_free(self, row: int, col: int) -> bool:
        return 0 <= row < self.rows and 0 <= col < self.cols and not self.obstacles[row, col]

    def free_cells(self) -> list[tuple[int, int]]:
        """All free cells in row-major order."""
        rr, cc = np.nonzero(~self.obstacles)
        return list(zip(rr.tolist(), cc.tolist()))

    def to_text(self) -> str:
        """Serialize back to the map file format (LF-terminated lines)."""
        cells = np.where(self.obstacles, OBSTACLE_CHAR, FREE_CHAR)
        for digit, position in zip(START_CHARS, self.starts):
            cells[position] = digit
        return "".join("".join(row) + "\n" for row in cells)


@dataclass(frozen=True, eq=False)
class SwarmState:
    """Positions, visited mask and action counters for the whole swarm.

    Treated as immutable: ``transition`` builds a new state instead of
    editing in place. ``per_uav_actions[i]`` equals the length of UAV i's
    path so far; ``global_step`` is their sum. States compare by identity.
    """

    positions: tuple[tuple[int, int], ...]
    visited: np.ndarray
    per_uav_actions: tuple[int, ...]

    @property
    def n_uavs(self) -> int:
        return len(self.positions)

    @property
    def global_step(self) -> int:
        return sum(self.per_uav_actions)


def parse_map(text: str) -> GridMap:
    """Parse map-file text into a validated GridMap.

    Raises MapError for ragged lines, unknown characters, start digits
    that repeat or skip numbers, a map smaller than 2x2, no free cell, or
    free cells that are not 4-connected.
    """
    lines = text.splitlines()
    if not lines or not any(lines):
        raise MapError("map text is empty")
    cols = len(lines[0])
    rows = len(lines)
    obstacles = np.zeros((rows, cols), dtype=bool)
    starts_by_digit: dict[int, tuple[int, int]] = {}
    for r, line in enumerate(lines):
        if len(line) != cols:
            raise MapError(
                f"line {r + 1} has {len(line)} characters, expected {cols}"
            )
        for c, ch in enumerate(line):
            if ch == OBSTACLE_CHAR:
                obstacles[r, c] = True
            elif ch == FREE_CHAR:
                pass
            elif ch in START_CHARS:
                digit = int(ch)
                if digit in starts_by_digit:
                    raise MapError(f"start marker {ch} appears more than once")
                starts_by_digit[digit] = (r, c)
            else:
                raise MapError(f"unknown character {ch!r} at line {r + 1}")
    if rows < 2 or cols < 2:
        raise MapError(f"map must be at least 2x2, got {rows}x{cols}")
    if sorted(starts_by_digit) != list(range(1, len(starts_by_digit) + 1)):
        raise MapError("start markers must be numbered 1..k without gaps")
    if not (~obstacles).any():
        raise MapError("map has no free cell")
    starts = tuple(starts_by_digit[d] for d in sorted(starts_by_digit))
    obstacles.setflags(write=False)
    grid = GridMap(rows=rows, cols=cols, obstacles=obstacles, starts=starts)
    _check_connected(grid)
    return grid


def _check_connected(grid: GridMap) -> None:
    """Flood fill from the first free cell over the moves a UAV can make;
    all free cells must be reached."""
    free = grid.free_cells()
    seen = {free[0]}
    stack = [free[0]]
    while stack:
        r, c = stack.pop()
        for dr, dc in ACTION_DELTAS.values():
            cell = (r + dr, c + dc)
            if cell not in seen and grid.is_free(*cell):
                seen.add(cell)
                stack.append(cell)
    if len(seen) != len(free):
        raise MapError("free cells form more than one 4-connected region")


def start_positions(grid: GridMap, n_uavs: int) -> tuple[tuple[int, int], ...]:
    """Start cells for n UAVs: the map's digit markers if it has any,
    otherwise the first n free cells in row-major order."""
    if n_uavs < 1:
        raise ValueError("need at least one UAV")
    if grid.starts:
        if n_uavs > len(grid.starts):
            raise ValueError(
                f"map designates {len(grid.starts)} start cells, "
                f"cannot place {n_uavs} UAVs"
            )
        return grid.starts[:n_uavs]
    free = grid.free_cells()
    if n_uavs > len(free):
        raise ValueError(f"{n_uavs} UAVs do not fit on {len(free)} free cells")
    return tuple(free[:n_uavs])


def initial_swarm_state(grid: GridMap, n_uavs: int) -> SwarmState:
    """Place UAVs on their start cells, which count as already visited."""
    positions = start_positions(grid, n_uavs)
    visited = np.zeros((grid.rows, grid.cols), dtype=bool)
    for r, c in positions:
        visited[r, c] = True
    visited.setflags(write=False)
    return SwarmState(positions=positions, visited=visited, per_uav_actions=(0,) * n_uavs)


def new_cell_reward(rows: int, cols: int, non_visited_before_move: int) -> float:
    """Reward for discovering a cell, growing as fewer cells remain.

    ``non_visited_before_move`` counts the unvisited free cells just before
    the move; it includes the cell being entered, so it is at least 1.
    """
    if non_visited_before_move < 1:
        raise ValueError("a discovered cell implies at least one unvisited cell")
    return NEW_CELL_BASE_REWARD * (1.0 + max(rows, cols) / non_visited_before_move)


def unvisited_free_count(grid: GridMap, state: SwarmState) -> int:
    return int(np.count_nonzero(~grid.obstacles & ~state.visited))


def transition(
    grid: GridMap,
    state: SwarmState,
    uav: int,
    action: Action | int,
    allow_shared_cells: bool = False,
) -> tuple[SwarmState, MoveOutcome]:
    """Apply one UAV's move and return the new state and its outcome.

    The target cell is one step in the action's direction. Off-grid cells,
    obstacles and (unless ``allow_shared_cells``) cells occupied by another
    UAV block the move: the UAV stays put but still pays one action.
    """
    if not 0 <= uav < state.n_uavs:
        raise IndexError(f"UAV index {uav} out of range")
    action = Action(action)
    row, col = state.positions[uav]
    dr, dc = ACTION_DELTAS[action]
    target = (row + dr, col + dc)

    # The mover is never on its own target, so any UAV there is another.
    occupied = not allow_shared_cells and target in state.positions
    if not grid.is_free(*target) or occupied:
        kind = MoveKind.BLOCKED
        reward = BLOCKED_REWARD
        new_position = (row, col)
        visited = state.visited
    elif state.visited[target]:
        kind = MoveKind.VISITED_CELL
        reward = VISITED_CELL_REWARD
        new_position = target
        visited = state.visited
    else:
        kind = MoveKind.NEW_CELL
        reward = new_cell_reward(grid.rows, grid.cols, unvisited_free_count(grid, state))
        new_position = target
        visited = state.visited.copy()
        visited[target] = True
        visited.setflags(write=False)

    positions = tuple(
        new_position if i == uav else pos for i, pos in enumerate(state.positions)
    )
    per_uav = tuple(
        n + 1 if i == uav else n for i, n in enumerate(state.per_uav_actions)
    )
    new_state = SwarmState(positions, visited, per_uav)
    return new_state, MoveOutcome(kind=kind, reward=reward)


def encode_observation(grid: GridMap, state: SwarmState) -> np.ndarray:
    """Flatten the map into an image of the state.

    Three rows x cols channels, concatenated row-major: the obstacle map,
    the visited mask, and the cells currently holding any UAV. Length is
    always 3 * rows * cols. The Q-networks read its ``live_inputs``
    entries only.
    """
    uav_channel = np.zeros((grid.rows, grid.cols))
    for r, c in state.positions:
        uav_channel[r, c] = 1.0
    return np.concatenate(
        [
            grid.obstacles.astype(float).ravel(),
            state.visited.astype(float).ravel(),
            uav_channel.ravel(),
        ]
    )


def live_inputs(grid: GridMap) -> np.ndarray:
    """Indices, in image order, of the ``encode_observation`` entries that a
    state of ``grid`` can set: the obstacle plane at obstacle cells (always
    1), and the visited and UAV planes at free cells. Every other entry is 0
    in every state, so a network that reads only these entries computes the
    same function as one that reads the whole image."""
    obstacles = grid.obstacles.ravel()
    return np.flatnonzero(np.concatenate([obstacles, ~obstacles, ~obstacles]))


def is_coverage_complete(grid: GridMap, state: SwarmState) -> bool:
    """True once every free cell has been visited (obstacles never count)."""
    return bool(np.all(state.visited | grid.obstacles))


def replay(
    grid: GridMap, n_uavs: int, moves, allow_shared_cells: bool = False
) -> SwarmState:
    """Make the ``(uav, action)`` moves from the start state with ``transition``
    until coverage is complete; the state's ``global_step`` counts the moves made."""
    state = initial_swarm_state(grid, n_uavs)
    for uav, action in moves:
        if is_coverage_complete(grid, state):
            break
        state, _ = transition(grid, state, uav, action, allow_shared_cells)
    return state


def draw_state(grid: GridMap, state: SwarmState) -> str:
    """Picture of a swarm state, one line per map row, with no final
    newline: obstacles as in a map file, UAV i as the digit
    ``START_CHARS[i]`` (the lowest index on a shared cell), other visited
    cells as ``VISITED_CHAR`` and unvisited ones as ``UNVISITED_CHAR``."""
    if state.n_uavs > MAX_UAVS:
        raise ValueError(
            f"cannot draw {state.n_uavs} UAVs: each is one digit, so at most {MAX_UAVS}"
        )
    cells = np.where(state.visited, VISITED_CHAR, UNVISITED_CHAR)
    cells[grid.obstacles] = OBSTACLE_CHAR
    for index in reversed(range(state.n_uavs)):
        cells[state.positions[index]] = START_CHARS[index]
    return "\n".join("".join(row) for row in cells)


# Bundled maps, one per supported size, each with a distinct obstacle
# challenge. Descriptions double as the `maps` command listing.
BUNDLED_MAP_NOTES = {
    "grove_5x5": "regularly spaced obstacle islands, like rows of tree crops",
    "corners_6x6": "walled-off corner pockets that force dead-end turnarounds",
    "skew_7x7": "scattered obstacles with no horizontal or vertical symmetry",
    "diagonal_8x8": "obstacle line running down the diagonal",
    "block_9x9": "one large central block with concave notches, to be circled",
}


def load_bundled_map(map_id: str) -> GridMap:
    """The bundled map ``map_id``; an unknown id raises MapError."""
    if map_id not in BUNDLED_MAP_NOTES:
        raise MapError(f"no bundled map named {map_id!r}")
    text = (resources.files(__package__) / "maps" / f"{map_id}.txt").read_text(
        encoding="utf-8"
    )
    return parse_map(text)


def resolve_map(name_or_path: str) -> GridMap:
    """Look up a bundled map by id, or parse a map file from disk. Raises
    MapError for a name that is neither; a map file's MapError names it."""
    if name_or_path in BUNDLED_MAP_NOTES:
        return load_bundled_map(name_or_path)
    try:
        with open(name_or_path, encoding="utf-8-sig") as handle:
            return parse_map(handle.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise MapError(
            f"{name_or_path!r} is neither a bundled map id nor a readable map file"
        ) from exc
    except MapError as exc:
        raise MapError(f"{name_or_path}: {exc}") from exc
