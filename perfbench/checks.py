"""Output checks run on every benchmark run, and their self-test.

Each check returns a list of ``(run_key, message)`` failures; a run with
any failure counts as failed. The checks use only the public gridworld
API, bound here before any tracing wrapper is installed.
"""

from __future__ import annotations

import csv
import io

from swarmcover.gridworld import (
    initial_swarm_state,
    is_coverage_complete,
    parse_map,
    transition,
)


def replay_failures(key, map_text, n_uavs, allow_shared, moves, total_actions, covered):
    """Replay ``moves`` from the start state. A covering record must reach
    full coverage on exactly its last move, after ``total_actions`` moves;
    a non-covering one must end uncovered after ``total_actions`` moves.
    Per-UAV action counts must sum to the total."""
    grid = parse_map(map_text)
    state = initial_swarm_state(grid, n_uavs)
    failures = []
    if len(moves) != total_actions:
        failures.append((key, f"{len(moves)} moves recorded for {total_actions} actions"))
    for index, (uav, action) in enumerate(moves):
        if is_coverage_complete(grid, state):
            failures.append((key, f"coverage already complete before move {index}"))
            break
        state, _ = transition(grid, state, uav, action, allow_shared)
    if is_coverage_complete(grid, state) != covered:
        failures.append((key, f"replay covered={not covered}, recorded covered={covered}"))
    if sum(state.per_uav_actions) != state.global_step:
        failures.append((key, "per-UAV actions do not sum to the global step"))
    return failures


def episode_failures(key, episode, free_cells, n_uavs):
    """total_actions == sum(per_uav_actions), and a covering episode
    needs at least free - n_uavs actions (start cells count as visited)."""
    failures = []
    if episode.total_actions != sum(episode.per_uav_actions):
        failures.append((key, f"episode {episode.episode}: total != sum(per_uav_actions)"))
    if episode.covered and episode.total_actions < free_cells - n_uavs:
        failures.append(
            (key, f"episode {episode.episode}: covered in {episode.total_actions} "
                  f"< {free_cells - n_uavs} actions")
        )
    return failures


def csv_failures(csv_text, free_cells_of, expected_runs):
    """Every (map, uavs, mode, seed) run has episode rows and one summary
    row; the summary's best_total_actions is the smallest covering total
    among its episode rows (empty if none covered); covering totals are at
    least free - n_uavs; ``expected_runs`` lists the keys that must appear."""
    reader = csv.DictReader(io.StringIO(csv_text))
    episodes: dict[tuple, list[dict]] = {}
    summaries: dict[tuple, list[dict]] = {}
    for row in reader:
        key = (row["map_id"], int(row["n_uavs"]), row["mode"], int(row["seed"]))
        target = summaries if row["episode"] == "summary" else episodes
        target.setdefault(key, []).append(row)
    failures = []
    for key in expected_runs:
        if key not in episodes or len(summaries.get(key, [])) != 1:
            failures.append((key, "run missing from the CSV or without one summary row"))
    for key, rows in episodes.items():
        covering = [int(r["total_actions"]) for r in rows if r["covered"] == "true"]
        floor = free_cells_of(key[0]) - key[1]
        if any(total < floor for total in covering):
            failures.append((key, f"a covering episode took fewer than {floor} actions"))
        for summary in summaries.get(key, []):
            expected = str(min(covering)) if covering else ""
            if summary["best_total_actions"] != expected:
                failures.append(
                    (key, f"summary best {summary['best_total_actions']!r} != {expected!r}")
                )
    return failures


def trace_failures(entries):
    """Replay every logged best-episode trace (covering by construction)."""
    failures = []
    for entry in entries:
        key = (entry["map_id"], entry["n_uavs"], entry["mode"], entry["seed"])
        failures += replay_failures(
            key,
            entry["map"],
            entry["n_uavs"],
            entry.get("allow_shared_cells", False),
            [tuple(move) for move in entry["moves"]],
            entry["total_actions"],
            True,
        )
    return failures


# A hand-checked fixture: one UAV on a 2x2 map covers in three moves
# (east, south, west), so its run's best total is 3.
_FIXTURE_TRACE = {
    "map_id": "fixture", "n_uavs": 1, "mode": "local", "seed": 0,
    "map": "..\n..\n", "allow_shared_cells": False,
    "best_episode": 0, "total_actions": 3, "moves": [[0, 1], [0, 2], [0, 3]],
}
_FIXTURE_CSV = (
    "map_id,n_uavs,mode,seed,episode,total_actions,covered,best_total_actions\n"
    "fixture,1,local,0,0,3,true,\n"
    "fixture,1,local,0,1,7,true,\n"
    "fixture,1,local,0,summary,,true,3\n"
)


def _wrong_summary(csv_text):
    lines = csv_text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        fields = line.rstrip("\n").split(",")
        if fields[4] == "summary" and fields[7]:
            fields[7] = str(int(fields[7]) + 1)
            lines[i] = ",".join(fields) + "\n"
            return "".join(lines)
    return None


def self_test(entries=(), csv_text=None, free_cells_of=None) -> list[str]:
    """The checks must pass the fixture and reject a trace with one move
    dropped and a CSV with a wrong summary row -- on the fixture and, when
    given, on this run's own outputs. Returns what went wrong."""
    problems = []
    fixture_free = {"fixture": 4}.get
    if trace_failures([_FIXTURE_TRACE]) or csv_failures(_FIXTURE_CSV, fixture_free, []):
        problems.append("checks reject the valid fixture")
    traces = [_FIXTURE_TRACE] + list(entries[:1])
    for entry in traces:
        dropped = dict(entry, moves=entry["moves"][:-1])
        if not trace_failures([dropped]):
            problems.append(f"a trace of {entry['map_id']} with one move dropped passed")
    csvs = [(_FIXTURE_CSV, fixture_free)]
    if csv_text is not None:
        csvs.append((csv_text, free_cells_of))
    for text, free_of in csvs:
        wrong = _wrong_summary(text)
        if wrong is not None and not csv_failures(wrong, free_of, []):
            problems.append("a CSV with a wrong summary row passed")
    return problems
