"""Grid flight environment: obstacle maps, swarm state, moves and rewards.

Maps are small rectangular grids of free and obstacle cells, loaded from
text files ('.' free, '#' obstacle, digits 1-9 mark optional start cells).
A swarm of UAVs moves one cell at a time (north/east/south/west) and the
task is to visit every free cell of the map.

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

from dataclasses import dataclass, replace
from enum import Enum, IntEnum
from importlib import resources

import numpy as np

NEW_CELL_BASE_REWARD = 29.40
VISITED_CELL_REWARD = -31.66
BLOCKED_REWARD = -45.44

FREE_CHAR = "."
OBSTACLE_CHAR = "#"
START_CHARS = "123456789"


class MapError(ValueError):
    """A map text that ``parse_map`` rejects."""


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


@dataclass(frozen=True)
class GridMap:
    """Immutable obstacle grid plus optional designated start cells.

    ``obstacles`` is a rows x cols boolean array (True = obstacle).
    ``starts`` holds the coordinates marked with digits in the map file,
    ordered by digit; empty when the file used none.
    """

    rows: int
    cols: int
    obstacles: np.ndarray
    starts: tuple[tuple[int, int], ...] = ()

    @property
    def free_count(self) -> int:
        return int(self.rows * self.cols - np.count_nonzero(self.obstacles))

    def in_bounds(self, row: int, col: int) -> bool:
        return 0 <= row < self.rows and 0 <= col < self.cols

    def is_free(self, row: int, col: int) -> bool:
        return self.in_bounds(row, col) and not self.obstacles[row, col]

    def free_cells(self) -> list[tuple[int, int]]:
        """All free cells in row-major order."""
        rr, cc = np.nonzero(~self.obstacles)
        return list(zip(rr.tolist(), cc.tolist()))

    def to_text(self) -> str:
        """Serialize back to the map file format (LF-terminated lines)."""
        start_chars = {pos: str(i + 1) for i, pos in enumerate(self.starts)}
        lines = []
        for r in range(self.rows):
            row_chars = []
            for c in range(self.cols):
                if self.obstacles[r, c]:
                    row_chars.append(OBSTACLE_CHAR)
                else:
                    row_chars.append(start_chars.get((r, c), FREE_CHAR))
            lines.append("".join(row_chars))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SwarmState:
    """Positions, visited mask and action counters for the whole swarm.

    Treated as immutable: ``transition`` builds a new state instead of
    editing in place. ``per_uav_actions[i]`` equals the length of UAV i's
    path so far; ``global_step`` is the sum over all UAVs.
    """

    positions: tuple[tuple[int, int], ...]
    visited: np.ndarray
    per_uav_actions: tuple[int, ...]
    global_step: int

    @property
    def n_uavs(self) -> int:
        return len(self.positions)


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
    return SwarmState(
        positions=positions,
        visited=visited,
        per_uav_actions=(0,) * n_uavs,
        global_step=0,
    )


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

    occupied = not allow_shared_cells and any(
        pos == target for i, pos in enumerate(state.positions) if i != uav
    )
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
    new_state = replace(
        state,
        positions=positions,
        visited=visited,
        per_uav_actions=per_uav,
        global_step=state.global_step + 1,
    )
    return new_state, MoveOutcome(kind=kind, reward=reward)


def encode_observation(grid: GridMap, state: SwarmState) -> np.ndarray:
    """Flatten the map into the network input vector.

    Three rows x cols channels, concatenated row-major: the obstacle map,
    the visited mask, and the cells currently holding any UAV. Length is
    always 3 * rows * cols.
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


def is_coverage_complete(grid: GridMap, state: SwarmState) -> bool:
    """True once every free cell has been visited (obstacles never count)."""
    return bool(np.all(state.visited | grid.obstacles))


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
    if map_id not in BUNDLED_MAP_NOTES:
        raise KeyError(f"no bundled map named {map_id!r}")
    text = (resources.files(__package__) / "maps" / f"{map_id}.txt").read_text(
        encoding="utf-8"
    )
    return parse_map(text)


def resolve_map(name_or_path: str) -> GridMap:
    """Look up a bundled map by id, or parse a map file from disk."""
    if name_or_path in BUNDLED_MAP_NOTES:
        return load_bundled_map(name_or_path)
    try:
        with open(name_or_path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise FileNotFoundError(
            f"{name_or_path!r} is neither a bundled map id nor a readable map file"
        ) from exc
    return parse_map(text)
