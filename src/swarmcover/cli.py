"""Command line front end.

Three subcommands, all thin wrappers over the library:

* ``run <config>``    -- run every (map, uavs, mode) combination listed in
  an INI configuration file, write one results CSV (plus an optional
  trace sidecar), and print a mean ± std summary grid.
* ``render <csv> --map <id> --seed <n>`` -- replay a logged best episode
  from the sidecar next to the CSV and print the covered map.
* ``maps``            -- list the bundled maps.

Exit codes: 0 success, 1 configuration error (bad flags, bad config
file, missing or invalid map), 2 runtime error (a missing or malformed
trace sidecar, no matching trace, a trace that does not replay to its
recorded result, output files unwritable).
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import dataclasses
import itertools
import json
import os
import sys

from .agent import MODES
from .experiment import (
    AllRunsFailedError,
    ConfigError,
    ExperimentSpec,
    RunResult,
    SweepOptions,
    aggregate,
    results_rows,
    run_sweep,
    trace_entries,
    write_results_csv,
    write_traces,
)
from .gridworld import (
    BUNDLED_MAP_NOTES,
    MapError,
    initial_swarm_state,
    is_coverage_complete,
    load_bundled_map,
    parse_map,
    resolve_map,
    transition,
)

OUTPUT_DIR_ENV = "SWARMCOVER_OUTPUT_DIR"
TRACE_SUFFIX = ".traces.json"

UNVISITED_CHAR = "·"  # ·
VISITED_CHAR = "▪"  # ▪

# Every config key is a field of ExperimentSpec or SweepOptions; the field
# metadata gives its section, key name, parser and help text.
_FIELDS = [
    f
    for f in dataclasses.fields(ExperimentSpec) + dataclasses.fields(SweepOptions)
    if f.metadata
]


def _key(f: dataclasses.Field) -> str:
    return f.metadata["key"] or f.name


_KNOWN_KEYS = {
    section: {_key(f) for f in _FIELDS if f.metadata["section"] == section}
    for section in dict.fromkeys(f.metadata["section"] for f in _FIELDS)
}


def _default_text(f: dataclasses.Field) -> str:
    value = f.default
    if value is dataclasses.MISSING or value is None:
        return ""  # required, or the help text says what the default is
    if isinstance(value, bool):
        value = "true" if value else "false"
    elif isinstance(value, tuple):
        value = ", ".join(map(str, value))
    return f" (default: {value})"


def _help_text() -> str:
    width = 2 + max(len(_key(f)) for f in _FIELDS)
    lines = ["configuration file (INI format):"]
    for section in _KNOWN_KEYS:
        lines.append(f"  [{section}]")
        lines.extend(
            f"    {_key(f):<{width}}{f.metadata['help']}{_default_text(f)}"
            for f in _FIELDS
            if f.metadata["section"] == section
        )
    lines += [
        "",
        "unknown keys and sections are rejected. command line flags override file values.",
        "",
        "environment:",
        f"  {OUTPUT_DIR_ENV}  directory prepended to relative output paths",
        "",
        "exit codes: 0 success, 1 configuration error, 2 runtime error",
    ]
    return "\n".join(lines) + "\n"


class RuntimeFailure(RuntimeError):
    """Errors past configuration: missing or inconsistent traces,
    unwritable output."""


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as configuration errors
    instead of exiting the process on its own."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    epilog = _help_text()
    parser = _Parser(
        prog="swarmcover",
        description="Multi-UAV full-coverage training runs on grid maps.",
        epilog=epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser(
        "run",
        help="run all experiments from a config file and write a results CSV",
        epilog=epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    run_p.add_argument("config", help="INI configuration file")
    for f in _FIELDS:
        if not f.metadata["flag"]:
            continue
        key = _key(f)
        if isinstance(f.default, bool):
            takes = {"action": "store_true"}
        else:
            takes = {"metavar": key.upper()}
        run_p.add_argument(
            "--" + key.replace("_", "-"),
            dest=f.name,
            default=None,
            help=f"{f.metadata['help']} (overrides the file)",
            **takes,
        )
    run_p.set_defaults(func=cmd_run)

    render_p = sub.add_parser(
        "render", help="print the covered map of a logged best episode"
    )
    render_p.add_argument("csv", help="results CSV written by `run` with log_traces")
    render_p.add_argument("--map", required=True, help="map id to select")
    render_p.add_argument("--seed", required=True, type=int, help="seed to select")
    render_p.add_argument("--uavs", type=int, help="narrow the selection by swarm size")
    render_p.add_argument("--mode", choices=MODES, help="narrow the selection by mode")
    render_p.set_defaults(func=cmd_render)

    maps_p = sub.add_parser("maps", help="list the bundled maps")
    maps_p.set_defaults(func=cmd_maps)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigError, MapError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeFailure, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


# ---------------------------------------------------------------------------
# Config file reading. configparser does the parsing; the raw text is
# kept around so diagnostics can point at the offending line.


def _line(parser, text: str, section: str, key: str | None = None) -> int | None:
    """Number of the line that opens [section], or that sets ``key`` in it,
    as configparser's own header and option patterns read it (indented
    continuation lines aside)."""
    current = None
    # read_string numbers the lines it splits at "\n" only.
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if stripped.startswith(("#", ";")):
            continue
        header = parser.SECTCRE.match(stripped)
        if header:
            current = header.group("header")
            if key is None and current == section:
                return lineno
        elif key is not None and current == section:
            option = parser.OPTCRE.match(stripped)
            if option and parser.optionxform(option.group("option").rstrip()) == key:
                return lineno
    return None


def _read_settings(path: str, args) -> dict:
    """Field name -> value of every key that the config file at ``path`` or
    a command line flag sets; a flag overrides the file. The file is read in
    one pass, so its first error in file order is the one reported."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    # Values are taken literally (a '%' in a path is just a '%'), and
    # there is no default section: [DEFAULT] is an ordinary section
    # here, so it is rejected like any other unknown one instead of
    # leaking its keys into [run] and [training].
    parser = configparser.ConfigParser(interpolation=None, default_section=None)
    try:
        parser.read_string(text, source=path)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc

    def error(message: str, section: str, key: str | None = None) -> ConfigError:
        line = _line(parser, text, section, key)
        return ConfigError(f"{path} line {line}: {message}")

    fields = {(f.metadata["section"], _key(f)): f for f in _FIELDS}
    settings = {}
    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise error(f"unknown section [{section}]", section)
        for key, raw in parser.items(section):
            f = fields.get((section, key))
            if f is None:
                raise error(f"unknown key {key!r} in [{section}]", section, key)
            if raw.strip():
                try:
                    settings[f.name] = f.metadata["parse"](raw.strip())
                except ValueError as exc:
                    raise error(f"{key}: {exc}", section, key) from exc

    for f in _FIELDS:
        key = _key(f)
        flag = getattr(args, f.name, None)
        if isinstance(flag, str):
            try:
                flag = f.metadata["parse"](flag)
            except ValueError as exc:
                raise ConfigError(f"--{key.replace('_', '-')}: {exc}") from exc
        if flag is not None:
            settings[f.name] = flag
        elif f.name not in settings and f.default is dataclasses.MISSING:
            raise ConfigError(
                f"{path}: missing required key {key!r} in [{f.metadata['section']}]"
            )
    return settings


def _build_specs(settings: dict) -> list[ExperimentSpec]:
    """One spec per combination of the sweep keys (maps, uavs, modes), in
    the order the config lists them; every other setting goes into every
    spec."""
    sweeps = {
        f.name: settings.get(f.name, (f.default,)) for f in _FIELDS if f.metadata["sweep"]
    }
    fixed = {name: value for name, value in settings.items() if name not in sweeps}
    grids = {}
    specs = []
    for values in itertools.product(*sweeps.values()):
        combo = dict(zip(sweeps, values))
        if combo["map_id"] not in grids:
            grids[combo["map_id"]] = resolve_map(combo["map_id"])
        specs.append(ExperimentSpec(grid=grids[combo["map_id"]], **combo, **fixed))
    return specs


def _resolve_output_path(output: str) -> str:
    base_dir = os.environ.get(OUTPUT_DIR_ENV)
    if base_dir and not os.path.isabs(output):
        output = os.path.join(base_dir, output)
    parent = os.path.dirname(output)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return output


def _temp_path(path: str) -> str:
    """A temporary name for ``path`` in the same directory, so that
    ``os.replace`` moves it into place within one file system."""
    head, tail = os.path.split(path)
    return os.path.join(head, f".{tail}.{os.getpid()}.tmp")


def _format_cell(results: list[RunResult]) -> str:
    try:
        stats = aggregate(results)
    except AllRunsFailedError:
        return "no coverage"
    text = f"{stats.mean:.2f} ± {stats.std:.2f}"
    if stats.n_failed:
        text += f" ({stats.n_failed} failed)"
    return text


def _print_summary(jobs: list[tuple[ExperimentSpec, list[RunResult]]]) -> None:
    """Grid of mean ± std best totals: one row per map, one column per
    (uavs, mode) combination."""
    map_ids: list[str] = []
    combos: list[tuple[int, str]] = []
    cells: dict[tuple[str, tuple[int, str]], str] = {}
    for spec, results in jobs:
        combo = (spec.n_uavs, spec.mode)
        if spec.map_id not in map_ids:
            map_ids.append(spec.map_id)
        if combo not in combos:
            combos.append(combo)
        cells[(spec.map_id, combo)] = _format_cell(results)

    headers = ["map"] + [f"{n} uav {mode}" for n, mode in combos]
    table = [headers]
    for map_id in map_ids:
        table.append(
            [map_id] + [cells.get((map_id, combo), "-") for combo in combos]
        )
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    for row in table:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())


def cmd_run(args) -> int:
    settings = _read_settings(args.config, args)
    options = SweepOptions(
        *(settings.pop(f.name, f.default) for f in dataclasses.fields(SweepOptions))
    )
    specs = _build_specs(settings)
    all_results = run_sweep(specs, options.parallelism)
    jobs = list(zip(specs, all_results))

    output_path = _resolve_output_path(options.output)
    rows = []
    for spec, results in jobs:
        rows.extend(results_rows(spec, results))
    written = [output_path]
    if specs[0].log_traces:  # the same in every spec
        entries = []
        for spec, results in jobs:
            entries.extend(trace_entries(spec, results))
        written.append(output_path + TRACE_SUFFIX)

    # Each file is written under a temporary name next to its target and
    # renamed into place once both are complete, so an error part-way
    # through leaves earlier output as it was, not a truncated file that
    # looks valid.
    temps = [_temp_path(path) for path in written]
    try:
        with open(temps[0], "w", encoding="utf-8", newline="") as handle:
            write_results_csv(handle, rows)
        if specs[0].log_traces:
            with open(temps[1], "w", encoding="utf-8") as handle:
                write_traces(handle, entries)
        for temp, path in zip(temps, written):
            os.replace(temp, path)
    except BaseException:
        for temp in temps:
            with contextlib.suppress(FileNotFoundError):
                os.remove(temp)
        raise

    _print_summary(jobs)
    for path in written:
        print(f"wrote {path}")
    return 0


def _render_entry(entry: dict) -> str:
    """Replay a trace entry and draw the final picture: '#' obstacles,
    digits for final UAV positions, '▪' visited, '·' unvisited.

    Raises RuntimeFailure unless the replay is the recorded best episode:
    exactly ``total_actions`` moves, the last of which completes coverage.
    """
    grid = parse_map(entry["map"])
    state = initial_swarm_state(grid, entry["n_uavs"])
    moves = entry["moves"]
    if len(moves) != entry["total_actions"]:
        raise RuntimeFailure(
            f"trace has {len(moves)} moves but records {entry['total_actions']} actions"
        )
    for made, (uav, action) in enumerate(moves):
        if is_coverage_complete(grid, state):
            raise RuntimeFailure(
                f"trace covers the map after {made} of its {len(moves)} moves"
            )
        state, _ = transition(grid, state, uav, action, entry["allow_shared_cells"])
    if not is_coverage_complete(grid, state):
        raise RuntimeFailure("trace does not cover the map when replayed")
    position_digit = {}
    for index in reversed(range(state.n_uavs)):
        position_digit[state.positions[index]] = str(index + 1)
    lines = []
    for r in range(grid.rows):
        chars = []
        for c in range(grid.cols):
            if grid.obstacles[r, c]:
                chars.append("#")
            elif (r, c) in position_digit:
                chars.append(position_digit[(r, c)])
            elif state.visited[r, c]:
                chars.append(VISITED_CHAR)
            else:
                chars.append(UNVISITED_CHAR)
        lines.append("".join(chars))
    return "\n".join(lines)


def cmd_render(args) -> int:
    trace_path = args.csv + TRACE_SUFFIX
    try:
        with open(trace_path, encoding="utf-8") as handle:
            entries = json.load(handle)["traces"]
        matches = [
            entry
            for entry in entries
            if entry["map_id"] == args.map
            and entry["seed"] == args.seed
            and (args.uavs is None or entry["n_uavs"] == args.uavs)
            and (args.mode is None or entry["mode"] == args.mode)
        ]
        if not matches:
            raise RuntimeFailure(
                f"no logged best episode matches map={args.map} seed={args.seed}"
            )
        entry = matches[0]
        header = (
            f"{entry['map_id']}  seed {entry['seed']}  {entry['n_uavs']} uav "
            f"{entry['mode']}  best episode {entry['best_episode']}: "
            f"{entry['total_actions']} actions"
        )
        picture = _render_entry(entry)
    except OSError as exc:
        raise RuntimeFailure(
            f"no trace sidecar at {trace_path} (was the run made with log_traces?): {exc}"
        ) from exc
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        # A truncated or hand-edited sidecar. MapError is a ValueError, so a
        # bad map text is a runtime error here, not a configuration error.
        raise RuntimeFailure(
            f"malformed trace sidecar {trace_path}: {type(exc).__name__}: {exc}"
        ) from exc
    if len(matches) > 1:
        print(
            f"note: {len(matches)} runs match; rendering "
            f"{entry['n_uavs']} uav {entry['mode']} (narrow with --uavs/--mode)",
            file=sys.stderr,
        )
    print(header)
    print(picture)
    return 0


def cmd_maps(args) -> int:
    for map_id, note in BUNDLED_MAP_NOTES.items():
        grid = load_bundled_map(map_id)
        print(
            f"{map_id:<14} {grid.rows}x{grid.cols}  "
            f"{grid.free_count:>2} free cells  {note}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
