"""Command line tests: argument handling, exit codes, output formatting."""

import codecs
import csv
import dataclasses
import json
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmcover import cli
from swarmcover.cli import main
from swarmcover.experiment import SweepOptions
from swarmcover.gridworld import BUNDLED_MAP_NOTES, load_bundled_map

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

TINY_MAP = "12\n.#\n"  # 3 free cells, designated starts for up to 2 UAVs


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def source_env():
    """The environment for a fresh interpreter that imports this checkout's
    package, installed or not."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def tiny_config(tmp_path, extra_run="", training="", name="run.ini", episodes=5, seeds="1"):
    map_path = write(tmp_path, "tiny.txt", TINY_MAP)
    body = (
        "[run]\n"
        f"maps = {map_path}\n"
        f"output = {tmp_path}/results.csv\n"
        f"episodes = {episodes}\n"
        f"seeds = {seeds}\n"
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


def test_module_entry_point_exits_with_main_status(tmp_path):
    # `python -m swarmcover.cli` runs the same main as the console script.
    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "swarmcover.cli", *argv],
            capture_output=True, text=True, env=source_env(), cwd=tmp_path, timeout=120,
        )

    listed = run("maps")
    assert listed.returncode == 0, listed.stderr
    assert any(line.startswith("grove_5x5") for line in listed.stdout.splitlines())
    refused = run("run", str(tmp_path / "ghost.ini"))
    assert refused.returncode == 1
    lines = refused.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), refused.stderr


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["maps", "run"])
def test_closed_stdout_is_not_a_failed_run(tmp_path, capsys, command, unbuffered):
    # The reader of stdout has gone before the command prints: a buffered
    # stdout fails at its flush, an unbuffered one at the first print.
    config, _ = tiny_config(tmp_path, extra_run="log_traces = true\n", episodes=1)
    run = ["run", config, "--output"]
    argv = {"maps": ["maps"], "run": [*run, str(tmp_path / "closed.csv")]}
    env = source_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "swarmcover.cli", *argv[command]],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, cwd=tmp_path,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (0, "")
    if command == "run":
        assert main([*run, str(tmp_path / "open.csv")]) == 0
        for suffix in ("", cli.TRACE_SUFFIX):
            closed = (tmp_path / f"closed.csv{suffix}").read_bytes()
            assert closed == (tmp_path / f"open.csv{suffix}").read_bytes()


def test_unencodable_stdout_prints_escapes(tmp_path):
    # An ASCII stdout cannot encode `±` or `▪`: each prints as its backslash
    # escape, and the finished run and the render still exit 0.
    config, map_path = tiny_config(tmp_path, extra_run="log_traces = true\n")
    csv_path = tmp_path / "results.csv"

    def run(encoding, *argv):
        return subprocess.run(
            [sys.executable, "-m", "swarmcover.cli", *argv],
            capture_output=True, env=dict(source_env(), PYTHONIOENCODING=encoding),
            cwd=tmp_path, timeout=120,
        )

    for argv, escape in [
        (["run", config], b"\\xb1"),
        (["render", str(csv_path), "--map", map_path, "--seed", "1"], b"\\u25aa"),
    ]:
        ascii_run = run("ascii", *argv)
        assert (ascii_run.returncode, ascii_run.stderr) == (0, b"")
        assert escape in ascii_run.stdout
        assert csv_path.exists() and Path(f"{csv_path}{cli.TRACE_SUFFIX}").exists()
        utf8_run = run("utf-8", *argv)
        assert (utf8_run.returncode, utf8_run.stderr) == (0, b"")
        text = utf8_run.stdout.decode("utf-8")
        assert text.encode("ascii", "backslashreplace") == ascii_run.stdout


def test_process_without_stdout_exits_zero(tmp_path):
    # With fd 1 closed at start, sys.stdout is None and prints are dropped.
    done = subprocess.run(
        ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "swarmcover.cli", "maps"],
        stderr=subprocess.PIPE, text=True, env=source_env(), cwd=tmp_path, timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")


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


def test_run_flag_overrides(tmp_path, monkeypatch):
    # --output and --parallelism override the file's output and parallelism.
    config, _ = tiny_config(tmp_path, extra_run="parallelism = 1\n", episodes=2, seeds="1, 9")
    out = tmp_path / "flags.csv"
    run_sweep, workers = cli.run_sweep, []

    def recording_run_sweep(specs, parallelism):
        workers.append(parallelism)
        return run_sweep(specs, parallelism)

    monkeypatch.setattr(cli, "run_sweep", recording_run_sweep)
    assert main(["run", config, "--output", str(out), "--parallelism", "2"]) == 0
    assert workers == [2]
    assert not (tmp_path / "results.csv").exists()
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 2 * (2 + 1)
    assert [line.split(",")[3] for line in lines[1:]] == ["1"] * 3 + ["9"] * 3


def test_only_sweep_options_have_flags(tmp_path, monkeypatch, capsys):
    # The config file alone fixes what a sweep computes: a flag says only
    # where its output goes and how many processes compute it.
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    assert re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, re.M) == [
        "--output", "--parallelism"
    ]
    monkeypatch.setattr(cli, "run_sweep", lambda specs, parallelism: pytest.fail("trained"))
    config, _ = tiny_config(tmp_path)
    for argv in (["--seeds", "1"], ["--episodes", "2"], ["--log-traces"]):
        assert main(["run", config, *argv]) == 1
        assert capsys.readouterr().err == f"error: unrecognized arguments: {' '.join(argv)}\n"


def test_run_parallelism_matches_sequential(tmp_path):
    # A flag changes no result byte: a traced sweep written to another path
    # by more workers has the same CSV and the same sidecar.
    config, map_path = tiny_config(tmp_path, extra_run="uavs = 1, 2\nlog_traces = true\n")
    a, b = tmp_path / "a" / "x.csv", tmp_path / "b" / "y.csv"

    def same_bytes():
        return all(
            Path(f"{a}{suffix}").read_bytes() == Path(f"{b}{suffix}").read_bytes()
            for suffix in ("", cli.TRACE_SUFFIX)
        )

    assert main(["run", config, "--output", str(a), "--parallelism", "1"]) == 0
    assert main(["run", config, "--output", str(b), "--parallelism", "2"]) == 0
    assert same_bytes()
    assert json.loads(Path(f"{a}{cli.TRACE_SUFFIX}").read_text())["traces"]

    one_spec = write(
        tmp_path,
        "seeds.ini",
        f"[run]\nmaps = {map_path}\nepisodes = 5\nseeds = 1, 2, 3\nlog_traces = true\n",
    )
    assert main(["run", one_spec, "--output", str(a), "--parallelism", "1"]) == 0
    assert main(["run", one_spec, "--output", str(b), "--parallelism", "2"]) == 0
    assert same_bytes()


@pytest.mark.parametrize("parallelism", ["1", "2"])
def test_run_with_no_covering_seed(tmp_path, capsys, parallelism):
    # One action cannot visit the eight free cells, so no seed covers: the
    # sweep still succeeds, and its cell and summary rows say so.
    map_path = write(tmp_path, "ring.txt", ".1.\n.#.\n23.\n")
    config = write(
        tmp_path,
        "run.ini",
        f"[run]\nmaps = {map_path}\noutput = {tmp_path}/out.csv\nepisodes = 2\n"
        "seeds = 1, 2\nstep_budget = 1\n",
    )
    assert main(["run", config, "--parallelism", parallelism]) == 0
    assert capsys.readouterr().out.splitlines()[1] == f"{map_path}  no coverage"
    with open(tmp_path / "out.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    summaries = [row for row in rows if row["episode"] == "summary"]
    assert [row["seed"] for row in summaries] == ["1", "2"]
    assert all(row["covered"] == "false" for row in summaries)
    assert all(row["best_total_actions"] == "" for row in summaries)


def test_run_with_some_covering_seeds(tmp_path, capsys):
    # Within 2 episodes of at most 16 actions, seeds 2 and 3 cover the tiny
    # map in 11 and 3 actions and seed 1 does not: the cell averages the two
    # and counts the third.
    config, map_path = tiny_config(
        tmp_path, extra_run="step_budget = 16\n", episodes=2, seeds="1, 2, 3"
    )
    assert main(["run", config]) == 0
    assert capsys.readouterr().out.splitlines()[1] == f"{map_path}  7.00 ± 5.66 (1 failed)"
    with open(tmp_path / "results.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    summaries = [row for row in rows if row["episode"] == "summary"]
    assert [row["best_total_actions"] for row in summaries] == ["", "11", "3"]


@pytest.mark.skipif(
    "forkserver" not in multiprocessing.get_all_start_methods(), reason="no forkserver here"
)
def test_pool_under_forkserver_matches_sequential(tmp_path):
    # forkserver (Python 3.14's default on Linux) starts workers that import
    # the package afresh rather than inherit this process's modules. A start
    # method is set once per process, so the pooled sweep runs in a new one.
    config, _ = tiny_config(
        tmp_path, extra_run="uavs = 1, 2\nlog_traces = true\n", seeds="1, 2"
    )
    sequential, pooled = tmp_path / "seq.csv", tmp_path / "pool.csv"
    argv = ["run", config, "--output"]
    assert main([*argv, str(sequential), "--parallelism", "1"]) == 0
    script = (
        "import multiprocessing, sys\n"
        "from swarmcover.cli import main\n"
        "multiprocessing.set_start_method('forkserver')\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, *argv, str(pooled), "--parallelism", "2"],
        capture_output=True, text=True, env=source_env(), timeout=300,
    )
    assert done.returncode == 0, done.stderr
    for suffix in ("", ".traces.json"):
        pooled_bytes = Path(f"{pooled}{suffix}").read_bytes()
        assert pooled_bytes == Path(f"{sequential}{suffix}").read_bytes()


def test_log_traces_changes_no_result(tmp_path, capsys):
    printed = {}
    for name, traces in [("traced", "log_traces = true\n"), ("untraced", "")]:
        sweep = "uavs = 1, 2\nmodes = local, global\n" + traces
        config, _ = tiny_config(tmp_path, extra_run=sweep, name=f"{name}.ini")
        output = str(tmp_path / f"{name}.csv")
        assert main(["run", config, "--output", output]) == 0
        printed[name] = capsys.readouterr().out.replace(output, "OUTPUT")
    assert printed["traced"] == printed["untraced"]
    assert (tmp_path / "traced.csv").read_bytes() == (tmp_path / "untraced.csv").read_bytes()
    assert json.loads((tmp_path / "traced.csv.traces.json").read_text())["traces"]


def test_output_dir_environment_variable(tmp_path, monkeypatch):
    # The config file and its flags are every input of a run: a relative
    # output lands in the working directory whatever the environment says.
    outdir = tmp_path / "outputs"
    monkeypatch.setenv("SWARMCOVER_OUTPUT_DIR", str(outdir))
    monkeypatch.chdir(tmp_path)
    map_path = write(tmp_path, "tiny.txt", TINY_MAP)
    config = write(
        tmp_path,
        "env.ini",
        f"[run]\nmaps = {map_path}\nseeds = 1\nepisodes = 2\noutput = env.csv\n",
    )
    assert main(["run", config]) == 0
    assert (tmp_path / "env.csv").exists()
    assert (tmp_path / "env.csv.traces.json").exists()
    assert not outdir.exists()


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


def test_line_numbers_hold_for_other_line_endings(tmp_path, capsys):
    # CRLF and lone CR read as "\n"; other line breaks str.splitlines knows,
    # such as a form feed, do not end a line. Each reports its LF form's line.
    map_path = write(tmp_path, "tiny.txt", TINY_MAP)
    for text, line in [
        (f"[run]\r\nmaps = {map_path}\r\nseeds = 1\r\nbogus = 1\r\n", 4),
        (f"[run]\rmaps = {map_path}\rbogus = 1\r", 3),
        (f"[run]\nmaps = {map_path},\n  grove_5x5\x0c\nbogus = 1\n", 4),
    ]:
        config = tmp_path / "bad.ini"
        config.write_bytes(text.encode())
        assert main(["run", str(config)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {config} line {line}: unknown key 'bogus' in [run]\n"


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

    # A line indented deeper than its option line continues that value,
    # whatever it looks like; blank and comment lines do not end it.
    for text, line in [
        (f"[run]\nmaps = {map_path},\n  uavs = 2\nuavs = x\n", 4),
        (f"[run]\nmaps = {map_path}\n\n  # note\n  [training]\nuavs = x\n", 6),
    ]:
        config = write(tmp_path, "bad.ini", text)
        assert main(["run", config]) == 1
        assert f"line {line}: uavs:" in capsys.readouterr().err

    # An out-of-range value is the first error in file order too.
    text = f"[run]\nmaps = {map_path}\nepisodes = 0\nuavs = x\n"
    config = write(tmp_path, "bad.ini", text)
    assert main(["run", config]) == 1
    err = capsys.readouterr().err
    assert f"{config} line 3: episodes: must be positive, got 0" in err


# One out-of-range value for each field that has a rule.
OUT_OF_RANGE = {
    "uavs": "12",
    "modes": "loco",
    "seeds": "-1",
    "episodes": "0",
    "step_budget": "-1",
    "output": "out/",
    "parallelism": "0",
    "epsilon": "1.5",
    "epsilon_decay": "0",
    "epsilon_min": "-0.1",
    "gamma": "1.01",
    "memory_size": "0",
    "learning_rate": "inf",
    "batch_size": "0",
}


def test_every_rule_has_an_out_of_range_case():
    ruled = {key for (_, key), f in cli._SETTINGS.items() if f.metadata["rule"]}
    assert set(OUT_OF_RANGE) == ruled


@pytest.mark.parametrize("key, value", OUT_OF_RANGE.items())
def test_out_of_range_value_reports_line_and_key(tmp_path, capsys, key, value):
    f = next(f for (_, known), f in cli._SETTINGS.items() if known == key)
    map_path = write(tmp_path, "tiny.txt", TINY_MAP)
    text, line = f"[run]\nmaps = {map_path}\n", 3
    if f.metadata["section"] == "training":
        text, line = text + "[training]\n", 4
    config = write(tmp_path, "bad.ini", f"{text}{key} = {value}\n")
    assert main(["run", config]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config} line {line}: {key}: ")

    if f in dataclasses.fields(SweepOptions):  # the settings that have a flag
        valid, _ = tiny_config(tmp_path)
        assert main(["run", valid, f"--{key.replace('_', '-')}={value}"]) == 1
        assert capsys.readouterr().err.startswith(f"error: --{key}: ")


@pytest.mark.parametrize(
    "key, value",
    [
        ("uavs", "1, 01"),
        ("modes", "local, LOCAL"),
        ("maps", "MAP, MAP"),
        ("seeds", "3, 3"),
    ],
)
def test_repeated_value_rejected(tmp_path, monkeypatch, capsys, key, value):
    monkeypatch.setattr(cli, "run_sweep", None)  # nothing may train
    map_path = write(tmp_path, "tiny.txt", TINY_MAP)
    maps = "\n" if key == "maps" else f"maps = {map_path}\n"
    text = f"[run]\n{maps}{key} = {value.replace('MAP', map_path)}\n"
    config = write(tmp_path, "dup.ini", text)
    assert main(["run", config]) == 1
    err = capsys.readouterr().err
    assert f"{config} line 3: {key}: " in err
    if key == "seeds":
        assert "seeds: must be one or more distinct" in err


def test_second_spelling_of_a_map_file_rejected(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_sweep", None)  # nothing may train
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "two.txt", TINY_MAP)
    config = write(tmp_path, "dup.ini", "[run]\nmaps = two.txt, ./two.txt\n")
    assert main(["run", config]) == 1
    assert "maps: two.txt and ./two.txt name the same file" in capsys.readouterr().err


def test_hard_linked_map_file_rejected(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_sweep", None)  # nothing may train
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "a.txt", TINY_MAP)
    os.link(tmp_path / "a.txt", tmp_path / "b.txt")
    config = write(tmp_path, "dup.ini", "[run]\nmaps = a.txt, b.txt\n")
    assert main(["run", config]) == 1
    assert "maps: a.txt and b.txt name the same file" in capsys.readouterr().err


def test_empty_required_value_reports_line_number(tmp_path, capsys):
    config = write(tmp_path, "bad.ini", "[run]\nmaps =\n")
    assert main(["run", config]) == 1
    assert "line 2: maps: empty value" in capsys.readouterr().err

    # An empty value of a key with a default keeps the default.
    map_path = write(tmp_path, "tiny.txt", TINY_MAP)
    text = f"[run]\nmaps = {map_path}\nseeds = 1\nepisodes =\nuavs = x\n"
    config = write(tmp_path, "default.ini", text)
    assert main(["run", config]) == 1
    assert "line 5: uavs:" in capsys.readouterr().err


NAME = st.text("abcdeXYZ_0123456789", min_size=1, max_size=8)
VALUE = st.text("ab c,%#;:=[]/.-_", max_size=12)
# Lines that set no section or key: blank ones, and comments at any indent.
FILLER = st.one_of(
    st.sampled_from(["", "  ", "\t"]),
    st.tuples(st.sampled_from(["", " ", "\t  "]), st.sampled_from("#;"), VALUE).map("".join),
)
# A line indented deeper than its option line, however it reads.
CONTINUATION = st.tuples(
    st.sampled_from([" ", "  ", "\t"]), st.sampled_from(["{}", "[{}]", "{} = x"]), NAME
).map(lambda parts: parts[0] + parts[1].format(parts[2]))


@st.composite
def numbered_configs(draw):
    """A config text and the line of each header, keyed (None, section), and
    of each option, keyed (section, key), as it was emitted."""
    lines, where = [], {}

    def emit(line):
        lines.append(line)
        return len(lines)

    lines += draw(st.lists(FILLER, max_size=2))
    for section in draw(st.lists(NAME, min_size=1, max_size=3, unique=True)):
        where[None, section] = emit(f"[{section}]")
        lines += draw(st.lists(FILLER, max_size=2))
        for key in draw(st.lists(NAME, max_size=4, unique_by=str.lower)):
            delimiter = draw(st.sampled_from(["=", " = ", ":", " : ", " ="]))
            where[section, key.lower()] = emit(f"{key}{delimiter}{draw(VALUE)}")
            # Deeper-indented lines continue the value; blank and comment
            # lines between them do not end it.
            lines += draw(st.lists(st.one_of(FILLER, CONTINUATION), max_size=3))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"])), where


@settings(max_examples=200, deadline=None)
@given(numbered_configs())
def test_read_config_numbers_each_header_and_key_where_emitted(tmp_path_factory, config):
    text, where = config
    path = tmp_path_factory.mktemp("numbered") / "run.ini"
    path.write_bytes(text.encode())
    parser, lines = cli._read_config(str(path))
    read = {(None, section): cli._line(lines, section) for section in parser.sections()}
    for section in parser.sections():
        read.update(
            {(section, key): cli._line(lines, section, key) for key in parser[section]}
        )
    assert read == where


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


def test_bad_map_file_names_itself(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_sweep", None)  # nothing may train
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "trail.txt", "..\n..\n\n")  # ends in a blank line
    config = write(tmp_path, "run.ini", "[run]\nmaps = trail.txt\n")
    assert main(["run", config]) == 1
    err = capsys.readouterr().err
    assert err == "error: trail.txt: line 3 has 0 characters, expected 2\n"


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


def test_config_file_not_utf8_exits_one(tmp_path, capsys):
    config = tmp_path / "latin.ini"
    config.write_bytes(b"[run]\nmaps = grove_5x5 # \xff\n")
    assert main(["run", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config file {config}: ")
    assert "Traceback" not in err


def test_map_file_not_utf8_exits_one(tmp_path, capsys):
    map_path = tmp_path / "latin.txt"
    map_path.write_bytes(b"1.\n.\xff\n")
    config = write(tmp_path, "run.ini", f"[run]\nmaps = {map_path}\n")
    assert main(["run", config]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: '{map_path}' is neither a bundled map id nor a readable")
    assert "Traceback" not in err


def test_byte_order_mark_is_accepted(tmp_path, capsys):
    # A UTF-8 file saved with a byte-order mark reads as the same text
    # without it, and its lines keep their numbers.
    config, map_path = tiny_config(tmp_path)
    for path in (Path(config), Path(map_path)):
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    assert main(["run", config]) == 0
    capsys.readouterr()

    config = tmp_path / "bad.ini"
    config.write_bytes(codecs.BOM_UTF8 + b"[plotting]\nx = 1\n")
    assert main(["run", str(config)]) == 1
    assert f"{config} line 1: unknown section [plotting]" in capsys.readouterr().err


def test_diverged_pooled_run_names_itself(tmp_path, capsys):
    map_path = write(tmp_path, "tiny.txt", TINY_MAP)
    config = write(
        tmp_path,
        "diverge.ini",
        f"[run]\nmaps = {map_path}\noutput = {tmp_path}/out.csv\nepisodes = 5\n"
        "seeds = 1, 2\n[training]\nlearning_rate = 0.05\n",
    )
    assert main(["run", config, "--parallelism", "2"]) == 2
    err = capsys.readouterr().err
    assert re.match(rf"error: {re.escape(map_path)}, 1 UAV, local, seed [12], episode \d+: ", err)


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
    documented = set()
    row = r"^\| (run|training) \| ([^|]+) \|[^|]+\| ([^|]+) \|$"
    for section, keys, defaults in re.findall(row, reference, re.M):
        keys = [key.strip() for key in keys.split("/")]
        documented.update((section, key) for key in keys)
        if defaults in ("required", "100 × free cells"):
            continue  # no literal default to compare
        for key, default in zip(keys, defaults.split("/"), strict=True):
            expected = cli._default_text(cli._SETTINGS[section, key])
            assert f" (default: {default.strip()})" == expected, key
    assert documented == cli._SETTINGS.keys()


def test_readme_example_config_builds_its_sweep(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    example = re.search(r"`sweep\.ini` such as:\n\n```ini\n(.*?)```", text, re.S).group(1)
    config = write(tmp_path, "sweep.ini", example)
    built = []

    class Trained(Exception):
        pass

    def run_sweep(specs, parallelism):
        built.extend(specs)
        raise Trained

    monkeypatch.setattr(cli, "run_sweep", run_sweep)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(Trained):
        status = main(["run", config])
        pytest.fail(f"exit {status}: {capsys.readouterr().err}")
    assert [(spec.map_id, spec.n_uavs, spec.mode) for spec in built] == [
        ("grove_5x5", n_uavs, mode) for n_uavs in (1, 2, 3) for mode in ("local", "global")
    ]


def test_readme_maps_table_lists_every_bundled_map():
    text = README.read_text(encoding="utf-8")
    table = text[text.index("`swarmcover maps` lists the bundled maps:") :].split("\n\n")[1]
    rows = re.findall(r"^\| (\w+) \| (\d+×\d+) \| (\d+) \|", table, re.M)
    assert [map_id for map_id, _, _ in rows] == list(BUNDLED_MAP_NOTES)
    for map_id, size, free in rows:
        grid = load_bundled_map(map_id)
        assert (f"{grid.rows}×{grid.cols}", grid.free_count) == (size, int(free)), map_id


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


def test_render_notes_other_matching_runs(tmp_path, capsys):
    # Four runs share (map, seed); render draws the first in the sidecar and
    # says how to pick another.
    config, map_path = tiny_config(
        tmp_path, extra_run="uavs = 1, 2\nmodes = local, global\nlog_traces = true\n"
    )
    assert main(["run", config]) == 0
    csv_path = str(tmp_path / "results.csv")
    first = json.loads(Path(csv_path + cli.TRACE_SUFFIX).read_text())["traces"][0]
    assert (first["n_uavs"], first["mode"]) == (1, "local")
    capsys.readouterr()
    assert main(["render", csv_path, "--map", map_path, "--seed", "1"]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[0] == (
        f"{map_path}  seed 1  1 uav local  best episode {first['best_episode']}: "
        f"{first['total_actions']} actions"
    )
    assert err == "note: 4 runs match; rendering 1 uav local (narrow with --uavs/--mode)\n"


def test_render_mode_takes_the_spellings_of_the_modes_key(tmp_path, capsys):
    # The config lowercases `modes`, so `--mode GLOBAL` selects as `global` does.
    config, map_path = tiny_config(
        tmp_path, extra_run="modes = local, global\nlog_traces = true\n"
    )
    assert main(["run", config]) == 0
    capsys.readouterr()
    csv_path = str(tmp_path / "results.csv")
    argv = ["render", csv_path, "--map", map_path, "--seed", "1", "--mode", "GLOBAL"]
    assert main(argv) == 0
    assert " 1 uav global " in capsys.readouterr().out.splitlines()[0]


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
    err = capsys.readouterr().err
    assert "matches map=" in err and "log_traces" not in err  # the sidecar has traces


def test_render_without_sidecar_exits_two(tmp_path, capsys):
    csv_path, map_path = run_with_traces(tmp_path)
    os.remove(csv_path + cli.TRACE_SUFFIX)  # a CSV copied without its sidecar
    assert main(["render", csv_path, "--map", map_path, "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: no trace sidecar at")
    assert "moved or copied without it" in err and "log_traces" not in err


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


def map_not_text(entry):
    entry["map"] = 5


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
        (map_not_text, "AttributeError: 'int' object has no attribute 'splitlines'"),
    ],
)
def test_render_refuses_trace_that_does_not_replay(tmp_path, capsys, edit, message):
    csv_path, map_path = run_with_traces(tmp_path)
    edit_sidecar(tmp_path, edit)
    capsys.readouterr()
    assert main(["render", csv_path, "--map", map_path, "--seed", "1"]) == 2
    assert message in capsys.readouterr().err


def test_render_refuses_more_uavs_than_digits(tmp_path, capsys):
    # Ten UAVs fill an open 4x3 map but for two cells, which UAV 10 covers.
    entry = {
        "map_id": "open_4x3", "n_uavs": 10, "mode": "local", "seed": 1,
        "map": "...\n...\n...\n...\n", "allow_shared_cells": False,
        "best_episode": 0, "total_actions": 2, "moves": [[9, 1], [9, 1]],
    }
    write(tmp_path, "results.csv.traces.json", json.dumps({"traces": [entry]}))
    argv = ["render", str(tmp_path / "results.csv"), "--map", "open_4x3", "--seed", "1"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: malformed trace sidecar")
    assert "cannot draw 10 UAVs" in err


@pytest.mark.parametrize("text", ['{"traces": [', "{}", "[]", '{"traces": 5}'])
def test_render_refuses_malformed_sidecar(tmp_path, capsys, text):
    csv_path = str(tmp_path / "results.csv")
    write(tmp_path, "results.csv.traces.json", text)
    assert main(["render", csv_path, "--map", "grove_5x5", "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed trace sidecar")
    assert "results.csv.traces.json" in err


def test_unusable_output_path_fails_before_training(tmp_path, monkeypatch, capsys):
    config, _ = tiny_config(tmp_path)
    write(tmp_path, "blocker", "")  # a file where the output directory should be
    trained = []
    def run_sweep(specs, parallelism):
        trained.append(specs)
        return [[] for _ in specs]

    monkeypatch.setattr(cli, "run_sweep", run_sweep)
    output = str(tmp_path / "blocker" / "results.csv")
    assert main(["run", config, "--output", output]) == 2
    assert trained == []
    assert "blocker" in capsys.readouterr().err

    # A directory where the CSV or its sidecar should be.
    (tmp_path / "outdir").mkdir()
    (tmp_path / "r.csv.traces.json").mkdir()
    traced, _ = tiny_config(tmp_path, extra_run="log_traces = true\n", name="traced.ini")
    for argv, directory in [
        ([config, "--output", str(tmp_path / "outdir")], "outdir"),
        ([traced, "--output", str(tmp_path / "r.csv")], "r.csv.traces.json"),
    ]:
        assert main(["run", *argv]) == 2
        assert trained == []
        assert f"{directory} is a directory" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()

    # An empty path, or one that ends in a separator, "." or "..", names no
    # file even before it exists: a configuration error, refused before any
    # directory is made.
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    for output in ["", "newdir/", "a/b/c/", "out/.", "o2/.."]:
        assert main(["run", config, "--output", output]) == 1
        assert trained == []
        assert capsys.readouterr().err == f"error: --output: must name a file, got {output!r}\n"
        assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize(
    "maps, output, source",
    [
        ("tiny.txt", "run.ini", "run.ini"),  # the config file
        ("m.txt", "./m.txt", "m.txt"),  # a map, spelled another way
        ("out.csv.traces.json", "out.csv", "out.csv.traces.json"),  # untraced: the sidecar
        ("m.txt", "hard.csv", "m.txt"),  # a hard link to a map
    ],
)
def test_output_never_replaces_an_input(tmp_path, monkeypatch, capsys, maps, output, source):
    monkeypatch.chdir(tmp_path)
    (tmp_path / maps).write_text(TINY_MAP)
    (tmp_path / "run.ini").write_text(f"[run]\nmaps = {maps}\noutput = {output}\nseeds = 1\n")
    if output == "hard.csv":
        os.link(maps, output)
    before = (tmp_path / source).read_bytes()
    monkeypatch.setattr(cli, "run_sweep", lambda specs, parallelism: pytest.fail("trained"))
    assert main(["run", "run.ini"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: output path {output}") and err.endswith(f"input file {source}\n")
    assert (tmp_path / source).read_bytes() == before


def test_dead_worker_exits_two(tmp_path, monkeypatch, capsys):
    config, _ = tiny_config(tmp_path)

    def run_sweep(specs, parallelism):
        raise BrokenProcessPool("a worker process was killed")

    monkeypatch.setattr(cli, "run_sweep", run_sweep)
    assert main(["run", config]) == 2
    assert capsys.readouterr().err == "error: a worker process was killed\n"


# --- atomic output ----------------------------------------------------------------


def test_failed_write_leaves_earlier_output(tmp_path, monkeypatch, capsys):
    csv_path, _ = run_with_traces(tmp_path)
    # Fewer episodes than the earlier run, so a new CSV would differ.
    config, _ = tiny_config(
        tmp_path, extra_run="log_traces = true\n", name="short.ini", episodes=2
    )
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}

    def failing_write_traces(handle, entries):
        handle.write('{"traces": [')
        raise OSError("disk full")

    monkeypatch.setattr(cli, "write_traces", failing_write_traces)
    assert main(["run", config]) == 2
    assert "disk full" in capsys.readouterr().err
    after = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    assert after == before

    # The first file, the CSV, failing leaves no temporary file either.
    def failing_write_results_csv(handle, rows):
        handle.write("map_id,")
        raise OSError("disk full")

    monkeypatch.undo()
    monkeypatch.setattr(cli, "write_results_csv", failing_write_results_csv)
    assert main(["run", config]) == 2
    assert "disk full" in capsys.readouterr().err
    after = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    assert after == before


def test_untraced_run_replaces_sidecar_with_an_empty_one(tmp_path, monkeypatch, capsys):
    csv_path, map_path = run_with_traces(tmp_path)
    sidecar = csv_path + cli.TRACE_SUFFIX
    untraced, _ = tiny_config(tmp_path, name="untraced.ini", episodes=2)
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}

    # A failed sidecar write exits 2 and leaves both earlier files and no
    # temporary file.
    def failing_write_traces(handle, entries):
        handle.write('{"traces": [')
        raise OSError("disk full")

    monkeypatch.setattr(cli, "write_traces", failing_write_traces)
    assert main(["run", untraced]) == 2
    assert "disk full" in capsys.readouterr().err
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before
    monkeypatch.undo()

    assert main(["run", untraced]) == 0
    assert capsys.readouterr().out.endswith(f"wrote {csv_path}\nwrote {sidecar}\n")
    assert Path(sidecar).read_bytes() == b'{\n "traces": []\n}\n'  # write_traces([])
    assert main(["render", csv_path, "--map", map_path, "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: no logged best episode matches") and "log_traces" in err


def test_untraced_run_refuses_directory_at_sidecar_path(tmp_path, monkeypatch, capsys):
    config, _ = tiny_config(tmp_path)
    (tmp_path / "results.csv.traces.json").mkdir()
    monkeypatch.setattr(cli, "run_sweep", lambda specs, parallelism: pytest.fail("trained"))
    assert main(["run", config]) == 2
    assert "results.csv.traces.json is a directory" in capsys.readouterr().err
    assert not (tmp_path / "results.csv").exists()


def test_missing_output_directory_at_write_exits_two(tmp_path, monkeypatch, capsys):
    # An unwritable output is a runtime error whichever OSError the write
    # raises, FileNotFoundError too; a bad map reference raises MapError.
    config, _ = tiny_config(tmp_path, extra_run="log_traces = true\n")
    out_dir = tmp_path / "out"
    run_sweep = cli.run_sweep

    def run_sweep_then_remove_output(specs, parallelism):
        results = run_sweep(specs, parallelism)
        shutil.rmtree(out_dir)
        return results

    monkeypatch.setattr(cli, "run_sweep", run_sweep_then_remove_output)
    assert main(["run", config, "--output", str(out_dir / "r.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno 2] No such file or directory: ")
    assert not out_dir.exists()
    assert sorted(path.name for path in tmp_path.iterdir()) == ["run.ini", "tiny.txt"]
