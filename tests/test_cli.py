"""Command line tests: argument handling, exit codes, output formatting."""

import json
import re
from pathlib import Path

import pytest

from swarmcover import cli
from swarmcover.cli import _KNOWN_KEYS, main

README = Path(__file__).resolve().parent.parent / "README.md"

TINY_MAP = "12\n.#\n"  # 3 free cells, designated starts for up to 2 UAVs


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def tiny_config(tmp_path, extra_run="", training="", name="run.ini"):
    map_path = write(tmp_path, "tiny.txt", TINY_MAP)
    body = (
        "[run]\n"
        f"maps = {map_path}\n"
        f"output = {tmp_path}/results.csv\n"
        "episodes = 5\n"
        "seeds = 1\n"
        f"{extra_run}"
    )
    if training:
        body += "[training]\n" + training
    return write(tmp_path, name, body), map_path


# --- maps ----------------------------------------------------------------------


def test_maps_lists_five_entries(capsys):
    assert main(["maps"]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.strip()]
    assert len(lines) == 5
    assert any(line.startswith("grove_5x5") and "tree" in line for line in lines)
    assert any(line.startswith("block_9x9") and "circled" in line for line in lines)
    for map_id in ("corners_6x6", "skew_7x7", "diagonal_8x8"):
        assert any(line.startswith(map_id) for line in lines)


# --- run: happy paths -------------------------------------------------------------


def test_run_minimal_bundled_config(tmp_path, capsys):
    config = write(
        tmp_path,
        "minimal.ini",
        f"[run]\nmaps = grove_5x5\nseeds = 1\noutput = {tmp_path}/out.csv\n",
    )
    assert main(["run", config]) == 0
    lines = (tmp_path / "out.csv").read_text().splitlines()
    assert len(lines) == 1 + 30 + 1  # header, 30 episodes, summary
    assert lines[0].startswith("map_id,")
    out = capsys.readouterr().out
    assert "grove_5x5" in out
    assert "±" in out  # mean ± std summary grid


def test_run_reruns_byte_identical(tmp_path):
    config, _ = tiny_config(tmp_path)
    assert main(["run", config, "--output", str(tmp_path / "a.csv")]) == 0
    assert main(["run", config, "--output", str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_run_flag_overrides(tmp_path):
    config, _ = tiny_config(tmp_path, extra_run="uavs = 1\n")
    out = tmp_path / "flags.csv"
    assert main(
        ["run", config, "--episodes", "2", "--seeds", "9", "--output", str(out)]
    ) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 2 + 1
    assert all(line.split(",")[3] == "9" for line in lines[1:])


def test_run_parallelism_matches_sequential(tmp_path):
    config, _ = tiny_config(tmp_path, extra_run="uavs = 1, 2\n")
    a, b = tmp_path / "seq.csv", tmp_path / "par.csv"
    assert main(["run", config, "--output", str(a), "--parallelism", "1"]) == 0
    assert main(["run", config, "--output", str(b), "--parallelism", "2"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_output_dir_environment_variable(tmp_path, monkeypatch):
    outdir = tmp_path / "outputs"
    monkeypatch.setenv("SWARMCOVER_OUTPUT_DIR", str(outdir))
    map_path = write(tmp_path, "tiny.txt", TINY_MAP)
    config = write(
        tmp_path,
        "env.ini",
        f"[run]\nmaps = {map_path}\nseeds = 1\nepisodes = 2\noutput = env.csv\n",
    )
    assert main(["run", config]) == 0
    assert (outdir / "env.csv").exists()


def test_percent_in_value_is_literal(tmp_path):
    map_path = write(tmp_path, "tiny.txt", TINY_MAP)
    out = tmp_path / "out%1.csv"
    config = write(
        tmp_path,
        "percent.ini",
        f"[run]\nmaps = {map_path}\nseeds = 1\nepisodes = 2\noutput = {out}\n",
    )
    assert main(["run", config]) == 0
    assert [path.name for path in tmp_path.glob("*.csv")] == ["out%1.csv"]


def test_training_section_keys_accepted(tmp_path):
    config, _ = tiny_config(
        tmp_path,
        training=(
            "epsilon = 0.49\nepsilon_decay = 0.93\nepsilon_min = 0.05\n"
            "gamma = 0.83\nmemory_size = 60\nlearning_rate = 0.0002\n"
            "batch_size = 16\nallow_shared_cells = false\n"
        ),
    )
    assert main(["run", config]) == 0


# --- run: failure paths -------------------------------------------------------------


def test_unknown_key_reports_line_number(tmp_path, capsys):
    map_path = write(tmp_path, "tiny.txt", TINY_MAP)
    config = write(
        tmp_path, "bad.ini", f"[run]\nmaps = {map_path}\nbogus_key = 1\n"
    )
    assert main(["run", config]) == 1
    err = capsys.readouterr().err
    assert "line 3" in err
    assert "bogus_key" in err

    # Lines configparser reads as a header or an option, however spelled.
    for text, key in [
        (f"[run] ; the sweep\nmaps = {map_path}\nbogus = 1\n", "'bogus'"),
        (f"[run]\nmaps = {map_path}\nepi;sodes = 1\n", "'epi;sodes'"),
    ]:
        config = write(tmp_path, "bad.ini", text)
        assert main(["run", config]) == 1
        err = capsys.readouterr().err
        assert f"line 3: unknown key {key}" in err


def test_unknown_section_rejected(tmp_path, capsys):
    map_path = write(tmp_path, "tiny.txt", TINY_MAP)
    config = write(
        tmp_path, "bad.ini", f"[run]\nmaps = {map_path}\n\n[plotting]\nx = 1\n"
    )
    assert main(["run", config]) == 1
    err = capsys.readouterr().err
    assert "line 4" in err
    assert "plotting" in err

    # [DEFAULT] is no special section: its keys would otherwise leak into
    # every other section.
    config = write(
        tmp_path, "default.ini", f"[DEFAULT]\nepisodes = 1\n\n[run]\nmaps = {map_path}\n"
    )
    assert main(["run", config]) == 1
    err = capsys.readouterr().err
    assert "line 1" in err
    assert "unknown section [DEFAULT]" in err

    # Section names are case-sensitive and kept with their inner spaces.
    for text, line, section in [
        (f"[run]\nmaps = {map_path}\n[RUN]\nepisodes = 1\n", 3, "[RUN]"),
        (f"[ run ]\nmaps = {map_path}\n", 1, "[ run ]"),
    ]:
        config = write(tmp_path, "bad.ini", text)
        assert main(["run", config]) == 1
        err = capsys.readouterr().err
        assert f"line {line}: unknown section {section}" in err


def test_bad_value_reports_line_number(tmp_path, capsys):
    map_path = write(tmp_path, "tiny.txt", TINY_MAP)
    config = write(
        tmp_path, "bad.ini", f"[run]\nmaps = {map_path}\nuavs = banana\n"
    )
    assert main(["run", config]) == 1
    err = capsys.readouterr().err
    assert "line 3" in err
    assert "uavs" in err

    config = write(
        tmp_path, "bad.ini", f"# uavs = 2\n[run]\nmaps: {map_path}\nUAVS = banana\n"
    )
    assert main(["run", config]) == 1
    assert "line 4: uavs:" in capsys.readouterr().err


def test_bad_mode_rejected(tmp_path, capsys):
    config, _ = tiny_config(tmp_path, extra_run="modes = hybrid\n")
    assert main(["run", config]) == 1
    assert "hybrid" in capsys.readouterr().err


def test_missing_map_names_path(tmp_path, capsys):
    config = write(
        tmp_path, "bad.ini", "[run]\nmaps = /no/such/map.txt\n"
    )
    assert main(["run", config]) == 1
    assert "/no/such/map.txt" in capsys.readouterr().err


def test_negative_seed_rejected(tmp_path, capsys):
    map_path = write(tmp_path, "tiny.txt", TINY_MAP)
    config = write(tmp_path, "bad.ini", f"[run]\nmaps = {map_path}\nseeds = 1, -1\n")
    assert main(["run", config]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_missing_maps_key(tmp_path, capsys):
    config = write(tmp_path, "bad.ini", "[run]\nseeds = 1\n")
    assert main(["run", config]) == 1
    assert "maps" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "ghost.ini")]) == 1
    assert "ghost.ini" in capsys.readouterr().err


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1


# --- help ---------------------------------------------------------------------------


@pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]])
def test_help_prints_defaults(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    for value in ("0.49", "0.93", "0.05", "0.83", "60", "30"):
        assert value in out


def test_readme_reference_lists_every_config_key():
    text = README.read_text(encoding="utf-8")
    reference = text[text.index("## CLI reference") :]
    fields = {(f.metadata["section"], cli._key(f)): f for f in cli._FIELDS}
    documented = {}
    row = r"^\| (run|training) \| ([^|]+) \|[^|]+\| ([^|]+) \|$"
    for section, keys, defaults in re.findall(row, reference, re.M):
        keys = [key.strip() for key in keys.split("/")]
        documented.setdefault(section, set()).update(keys)
        if defaults in ("required", "100 × free cells"):
            continue  # no literal default to compare
        for key, default in zip(keys, defaults.split("/"), strict=True):
            expected = cli._default_text(fields[section, key])
            assert f" (default: {default.strip()})" == expected, key
    assert documented == _KNOWN_KEYS


# --- render -------------------------------------------------------------------------


def run_with_traces(tmp_path):
    config, map_path = tiny_config(tmp_path, extra_run="log_traces = true\n")
    assert main(["run", config]) == 0
    return str(tmp_path / "results.csv"), map_path


def test_render_best_episode(tmp_path, capsys):
    csv_path, map_path = run_with_traces(tmp_path)
    capsys.readouterr()
    assert main(["render", csv_path, "--map", map_path, "--seed", "1"]) == 0
    out = capsys.readouterr().out
    grid_lines = out.splitlines()[1:]
    assert len(grid_lines) == 2
    joined = "\n".join(grid_lines)
    assert "·" not in joined  # fully covered: no unvisited cells
    assert joined.count("#") == 1  # the obstacle is never shown as visited
    assert "1" in joined  # final UAV position
    assert "actions" in out.splitlines()[0]


def test_render_move_count_matches_best(tmp_path):
    csv_path, map_path = run_with_traces(tmp_path)
    sidecar = json.loads((tmp_path / "results.csv.traces.json").read_text())
    entry = sidecar["traces"][0]
    best_column = [
        line.split(",")[7]
        for line in (tmp_path / "results.csv").read_text().splitlines()
        if line.split(",")[4] == "summary"
    ]
    assert len(entry["moves"]) == entry["total_actions"] == int(best_column[0])


def test_render_no_match_exits_two(tmp_path, capsys):
    csv_path, map_path = run_with_traces(tmp_path)
    assert main(["render", csv_path, "--map", map_path, "--seed", "99"]) == 2


def test_render_without_sidecar_exits_two(tmp_path, capsys):
    config, map_path = tiny_config(tmp_path)
    assert main(["run", config]) == 0
    assert main(["render", str(tmp_path / "results.csv"), "--map", map_path, "--seed", "1"]) == 2


def edit_sidecar(tmp_path, edit):
    sidecar = tmp_path / "results.csv.traces.json"
    data = json.loads(sidecar.read_text())
    edit(data["traces"][0])
    sidecar.write_text(json.dumps(data))


def drop_last_move(entry):
    entry["moves"].pop()


def drop_last_move_and_recount(entry):
    entry["moves"].pop()
    entry["total_actions"] -= 1


def add_move_and_recount(entry):
    entry["moves"].append(entry["moves"][-1])
    entry["total_actions"] += 1


def edit_total(entry):
    entry["total_actions"] += 1


def drop_key(key):
    def edit(entry):
        del entry[key]

    edit.__name__ = f"drop_{key}"
    return edit


def truncate_moves(entry):
    entry["moves"] = [move[:1] for move in entry["moves"]]


def move_absent_uav(entry):
    entry["moves"][0][0] = entry["n_uavs"]


def garble_map(entry):
    entry["map"] = entry["map"].replace("#", "x")


@pytest.mark.parametrize(
    "edit, message",
    [
        (drop_last_move, "moves but records"),
        (edit_total, "moves but records"),
        (drop_last_move_and_recount, "does not cover"),
        (add_move_and_recount, "covers the map after"),
        (drop_key("moves"), "KeyError: 'moves'"),
        (drop_key("n_uavs"), "KeyError: 'n_uavs'"),
        (drop_key("allow_shared_cells"), "KeyError: 'allow_shared_cells'"),
        (truncate_moves, "not enough values to unpack"),
        (move_absent_uav, "UAV index 1 out of range"),
        (garble_map, "unknown character 'x'"),
    ],
)
def test_render_refuses_trace_that_does_not_replay(tmp_path, capsys, edit, message):
    csv_path, map_path = run_with_traces(tmp_path)
    edit_sidecar(tmp_path, edit)
    capsys.readouterr()
    assert main(["render", csv_path, "--map", map_path, "--seed", "1"]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("text", ['{"traces": [', "{}", "[]", '{"traces": 5}'])
def test_render_refuses_malformed_sidecar(tmp_path, capsys, text):
    csv_path = str(tmp_path / "results.csv")
    write(tmp_path, "results.csv.traces.json", text)
    assert main(["render", csv_path, "--map", "grove_5x5", "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed trace sidecar")
    assert "results.csv.traces.json" in err


# --- atomic output ----------------------------------------------------------------


def test_failed_write_leaves_earlier_output(tmp_path, monkeypatch, capsys):
    csv_path, _ = run_with_traces(tmp_path)
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}

    def failing_write_traces(handle, entries):
        handle.write('{"traces": [')
        raise OSError("disk full")

    monkeypatch.setattr(cli, "write_traces", failing_write_traces)
    config = str(tmp_path / "run.ini")
    # Fewer episodes than the earlier run, so a new CSV would differ.
    assert main(["run", config, "--episodes", "2"]) == 2
    assert "disk full" in capsys.readouterr().err
    after = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    assert after == before
