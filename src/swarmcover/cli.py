"""Command line front end.

Three subcommands, all thin wrappers over the library:

* ``run <config>``    -- run every (map, uavs, mode) combination listed in
  an INI configuration file, write one results CSV and its trace
  sidecar, and print a mean ± std summary grid.
* ``render <csv> --map <id> --seed <n>`` -- replay a logged best episode
  from the sidecar next to the CSV and print the covered map.
* ``maps``            -- list the bundled maps.

``main`` maps what escapes a command to its exit code: ConfigError and
MapError to 1 (a configuration error), RuntimeError, OSError and
ArithmeticError to 2 (a runtime error), each with one ``error:`` line on
stderr. A closed stdout is not an error: its BrokenPipeError exits 0. Nor
is a stdout that cannot encode a character: it prints the backslash escape.
"""

from __future__ import annotations

import argparse
import bisect
import configparser
import contextlib
import dataclasses
import io
import itertools
import json
import os
import sys

from .agent import MODES
from .experiment import (
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
    UNVISITED_CHAR,  # perfbench/run.py reads it as cli.UNVISITED_CHAR
    MapError,
    draw_state,
    is_coverage_complete,
    load_bundled_map,
    parse_map,
    replay,
    resolve_map,
)

TRACE_SUFFIX = ".traces.json"

# Every config key is a field of ExperimentSpec or SweepOptions; the field
# metadata gives its section, key name, parser, rule and help text. This
# index maps each (section, key) to its field, in table order.
_SETTINGS = {
    (f.metadata["section"], f.metadata["key"] or f.name): f
    for f in dataclasses.fields(ExperimentSpec) + dataclasses.fields(SweepOptions)
    if f.metadata
}


def _flag(name: str) -> str:
    """The command line option of the SweepOptions field ``name``."""
    return "--" + name.replace("_", "-")


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
    width = 2 + max(len(key) for _, key in _SETTINGS)
    lines = ["configuration file (INI format):"]
    for section in dict.fromkeys(section for section, _ in _SETTINGS):
        lines.append(f"  [{section}]")
        lines.extend(
            f"    {key:<{width}}{f.metadata['help']}{_default_text(f)}"
            for (in_section, key), f in _SETTINGS.items()
            if in_section == section
        )
    lines += [
        "",
        "unknown keys and sections are rejected. "
        + " and ".join(_flag(f.name) for f in dataclasses.fields(SweepOptions))
        + " override the file.",
        "",
        "exit codes: 0 success, 1 configuration error, 2 runtime error",
    ]
    return "\n".join(lines) + "\n"


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
    for f in dataclasses.fields(SweepOptions):
        run_p.add_argument(
            _flag(f.name),
            metavar=f.name.upper(),
            help=f"{f.metadata['help']} (overrides the file)",
        )
    run_p.set_defaults(func=cmd_run)

    render_p = sub.add_parser(
        "render", help="print the covered map of a logged best episode"
    )
    render_p.add_argument("csv", help="results CSV written by `run` with log_traces")
    render_p.add_argument("--map", required=True, help="map id to select")
    render_p.add_argument("--seed", required=True, type=int, help="seed to select")
    render_p.add_argument("--uavs", type=int, help="narrow the selection by swarm size")
    render_p.add_argument(
        "--mode", type=str.lower, choices=MODES, help="narrow the selection by mode"
    )
    render_p.set_defaults(func=cmd_render)

    maps_p = sub.add_parser("maps", help="list the bundled maps")
    maps_p.set_defaults(func=cmd_maps)
    return parser


def main(argv=None) -> int:
    try:
        # What stdout cannot encode (`±` on an ASCII stream) prints as its
        # backslash escape, as on stderr. Not on a StringIO, nor on None.
        if hasattr(sys.stdout, "reconfigure"):
            sys.stdout.reconfigure(errors="backslashreplace")
        args = _build_parser().parse_args(argv)
        status = args.func(args)
        if sys.stdout is not None:  # None when the process started without fd 1
            sys.stdout.flush()  # so that buffered output fails here, not at exit
        return status
    except BrokenPipeError:
        # The reader of stdout has gone (`swarmcover maps | head -1`). A
        # command prints after it has written its files, so nothing failed.
        # stdout now writes to the null device, so that the interpreter's
        # flush at exit drops what is still buffered without an error.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except (ConfigError, MapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


# ---------------------------------------------------------------------------
# Config file reading. configparser does the parsing, and its reads of the
# file's first lines find the line that a diagnostic points at.


def _parse(f: dataclasses.Field, raw: str):
    """The value that the text ``raw`` sets field ``f`` to; raises ValueError
    unless each item passes the field's rule and no sweep item repeats."""
    value = f.metadata["parse"](raw)
    items = value if f.metadata["sweep"] else (value,)
    rule = f.metadata["rule"]
    for i, item in enumerate(items):
        if rule is not None and not rule[0](item):
            raise ValueError(f"{rule[1]}, got {item!r}")
        if item in items[:i]:
            raise ValueError(f"repeats {item!r}")
    return value


def _config_parser() -> configparser.ConfigParser:
    # Values are taken literally (a '%' in a path is just a '%'), and
    # there is no default section: [DEFAULT] is an ordinary section
    # here, so it is rejected like any other unknown one instead of
    # leaking its keys into [run] and [training].
    return configparser.ConfigParser(interpolation=None, default_section=None)


def _read_config(path: str) -> tuple[configparser.ConfigParser, list[str]]:
    """configparser's read of the file at ``path``, and the file's lines,
    split at "\n" only, as read_string splits them."""
    try:
        with open(path, encoding="utf-8-sig") as handle:
            lines = io.StringIO(handle.read()).readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    parser = _config_parser()
    try:
        parser.read_file(lines, source=path)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    return parser, lines


def _line(lines: list[str], section: str, key: str | None = None) -> int:
    """The line that opens ``section`` or, given ``key``, sets that key in
    it: the first n at which a read of ``lines[:n]`` has it. A read that
    has it keeps it as lines are added, so n is found by bisection."""

    def has(n: int) -> bool:
        parser = _config_parser()
        parser.read_file(lines[:n])
        if key is None:
            return parser.has_section(section)
        return parser.has_option(section, key)

    return bisect.bisect_left(range(len(lines) + 1), True, key=has)


def _read_settings(path: str, args) -> dict:
    """Field name -> value of every key that the config file at ``path`` or
    a command line flag sets; a flag overrides the file. The file is read in
    one pass, so its first error in file order is the one reported."""
    parser, lines = _read_config(path)

    def error(message: str, section: str, key: str | None = None) -> ConfigError:
        return ConfigError(f"{path} line {_line(lines, section, key)}: {message}")

    settings = {}
    for section in parser.sections():
        if section not in {known for known, _ in _SETTINGS}:
            raise error(f"unknown section [{section}]", section)
        for key, raw in parser.items(section):
            f = _SETTINGS.get((section, key))
            if f is None:
                raise error(f"unknown key {key!r} in [{section}]", section, key)
            if not raw.strip():
                if f.default is dataclasses.MISSING:
                    raise error(f"{key}: empty value", section, key)
                continue  # an empty value keeps the default
            try:
                settings[f.name] = _parse(f, raw.strip())
            except ValueError as exc:
                raise error(f"{key}: {exc}", section, key) from exc

    for (section, key), f in _SETTINGS.items():
        flag = getattr(args, f.name, None)
        if flag is not None:
            try:
                settings[f.name] = _parse(f, flag)
            except ValueError as exc:
                raise ConfigError(f"{_flag(f.name)}: {exc}") from exc
        elif f.name not in settings and f.default is dataclasses.MISSING:
            raise ConfigError(f"{path}: missing required key {key!r} in [{section}]")
    return settings


def _build_specs(settings: dict) -> tuple[list[ExperimentSpec], list[str]]:
    """One spec per combination of the sweep keys (maps, uavs, modes), in
    the order the config lists them, with every other setting in every
    spec; and the map files they read."""
    sweeps = {
        f.name: settings.get(f.name, (f.default,))
        for f in _SETTINGS.values()
        if f.metadata["sweep"]
    }
    fixed = {name: value for name, value in settings.items() if name not in sweeps}
    grids, map_files = {}, []
    for map_id in sweeps["map_id"]:
        grids[map_id] = resolve_map(map_id)
        # A bundled id wins over a file of that name (resolve_map); a map
        # file is one map however its path is spelled or linked.
        if map_id not in BUNDLED_MAP_NOTES:
            for earlier in map_files:
                if os.path.samefile(earlier, map_id):
                    raise ConfigError(f"maps: {earlier} and {map_id} name the same file")
            map_files.append(map_id)
    specs = []
    for values in itertools.product(*sweeps.values()):
        combo = dict(zip(sweeps, values))
        specs.append(ExperimentSpec(grid=grids[combo["map_id"]], **combo, **fixed))
    return specs, map_files


def _resolve_output_paths(output: str, inputs: list[str]) -> list[str]:
    """The results CSV at ``output`` and its trace sidecar. Refuses a
    directory or one of the ``inputs`` files at either, before it makes
    their directory, so a refusal leaves none behind."""
    paths = [output, output + TRACE_SUFFIX]
    for path in paths:
        if os.path.isdir(path):
            raise RuntimeError(f"output path {path} is a directory")
        for source in inputs:  # however either path is spelled or linked
            if os.path.exists(path) and os.path.samefile(path, source):
                raise RuntimeError(f"output path {path} is the input file {source}")
    parent = os.path.dirname(output)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return paths


def _temp_path(path: str) -> str:
    """A temporary name for ``path`` in the same directory, so that
    ``os.replace`` moves it into place within one file system."""
    head, tail = os.path.split(path)
    return os.path.join(head, f".{tail}.{os.getpid()}.tmp")


def _format_cell(results: list[RunResult]) -> str:
    stats = aggregate(results)
    if stats.n_runs == 0:
        return "no coverage"
    text = f"{stats.mean:.2f} ± {stats.std:.2f}"
    if stats.n_failed:
        text += f" ({stats.n_failed} failed)"
    return text


def _print_summary(jobs: list[tuple[ExperimentSpec, list[RunResult]]]) -> None:
    """Grid of mean ± std best totals: one row per map, one column per
    (uavs, mode) combination. ``jobs`` holds every (map, uavs, mode)
    combination, as ``_build_specs`` builds them, so every cell is filled."""
    cells = {
        (spec.map_id, (spec.n_uavs, spec.mode)): _format_cell(results)
        for spec, results in jobs
    }
    combos = dict.fromkeys(combo for _, combo in cells)
    table = [["map"] + [f"{n} uav {mode}" for n, mode in combos]]
    for map_id in dict.fromkeys(map_id for map_id, _ in cells):
        table.append([map_id] + [cells[map_id, combo] for combo in combos])
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    for row in table:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())


def cmd_run(args) -> int:
    settings = _read_settings(args.config, args)
    options = SweepOptions(
        *(settings.pop(f.name, f.default) for f in dataclasses.fields(SweepOptions))
    )
    specs, map_files = _build_specs(settings)
    paths = _resolve_output_paths(options.output, [args.config, *map_files])
    jobs = list(zip(specs, run_sweep(specs, options.parallelism)))

    # The CSV and its trace sidecar, each with its writer and the items
    # each spec gives it; a spec without log_traces gives no traces, so an
    # untraced run writes a sidecar that holds none. Each file is written
    # under a temporary name next to its target and renamed into place once
    # both are complete, so an error part-way through leaves earlier output
    # as it was, not a truncated file that looks valid, and a sidecar from
    # an earlier run never stays beside a new CSV.
    writers = [(write_results_csv, results_rows), (write_traces, trace_entries)]
    try:
        for path, (write, items) in zip(paths, writers):
            with open(_temp_path(path), "w", encoding="utf-8", newline="") as handle:
                write(handle, [item for job in jobs for item in items(*job)])
        for path in paths:
            os.replace(_temp_path(path), path)
    except BaseException:
        for path in paths:
            with contextlib.suppress(FileNotFoundError):
                os.remove(_temp_path(path))
        raise

    _print_summary(jobs)
    for path in paths:
        print(f"wrote {path}")
    return 0


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
            message = f"no logged best episode matches map={args.map} seed={args.seed}"
            if not entries:
                message += f" ({trace_path} holds no traces: was the run made with log_traces?)"
            raise RuntimeError(message)
        entry = matches[0]
        header = (
            f"{entry['map_id']}  seed {entry['seed']}  {entry['n_uavs']} uav "
            f"{entry['mode']}  best episode {entry['best_episode']}: "
            f"{entry['total_actions']} actions"
        )
        # The replay must be the recorded best episode: exactly total_actions
        # moves, the last of which completes coverage.
        moves = entry["moves"]
        if len(moves) != entry["total_actions"]:
            raise RuntimeError(
                f"trace has {len(moves)} moves but records {entry['total_actions']} actions"
            )
        grid = parse_map(entry["map"])
        state = replay(grid, entry["n_uavs"], moves, entry["allow_shared_cells"])
        if state.global_step < len(moves):
            raise RuntimeError(
                f"trace covers the map after {state.global_step} of its {len(moves)} moves"
            )
        if not is_coverage_complete(grid, state):
            raise RuntimeError("trace does not cover the map when replayed")
        picture = draw_state(grid, state)
    except OSError as exc:
        raise RuntimeError(
            f"no trace sidecar at {trace_path} (every run writes one next to its CSV:"
            f" was the CSV moved or copied without it?): {exc}"
        ) from exc
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        # A truncated or hand-edited sidecar. MapError is a ValueError, so a
        # bad map text is a runtime error here, not a configuration error;
        # a map that is not text at all raises AttributeError.
        raise RuntimeError(
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
