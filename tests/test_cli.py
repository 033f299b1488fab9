import argparse
import gc
import importlib
import io
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cellless
from cellless import (ExperimentReport, IoFailure, MtEnergyCurve, ScenarioConfig,
                      cli, config_lines, load_config, parse_csv, render_csv, validation)

GOLDEN = Path(__file__).parent / "golden"

# Each golden file is the report of one small run; the mt-energy CSV was
# written before bs-energy became a closed form, and the JSON files before
# the report writers were merged. Two declared changes have moved golden
# bytes since: bs-energy.json gained its "n_users" line when the CSV and the
# JSON came to be written from one table, and both coverage files moved when
# the busy stations came to be the smallest raw words (scenario.busy_mask).
# No other byte may move. README's "Tests and benchmark" section lists the
# command that rebuilds each file, and a failed comparison names it.
GOLDEN_ARGS = {
    "coverage": ["coverage", "--n_trials", "40", "--seed", "3"],
    "mt-energy": ["mt-energy", "--n_trials", "40", "--seed", "3"],
    "bs-energy": ["bs-energy", "--n_trials", "200", "--seed", "3"],
}


def _rebuild_command(command, fmt):
    """README's command that rebuilds the golden ``fmt`` report of ``command``."""
    flags = " ".join(GOLDEN_ARGS[command] + (["--format", "json"] if fmt == "json" else []))
    return (f"PYTHONPATH=src python -m cellless.cli {flags} "
            f"--output tests/golden/{command}.{fmt}")


def _assert_golden(out, command, fmt):
    assert out.read_bytes() == (GOLDEN / f"{command}.{fmt}").read_bytes(), (
        f"the report differs from tests/golden/{command}.{fmt}; a change that "
        f"declares this byte change rebuilds it with: {_rebuild_command(command, fmt)}")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", sorted(GOLDEN_ARGS))
def test_readme_lists_the_golden_rebuild_commands(command, fmt):
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    assert _rebuild_command(command, fmt) in readme.splitlines()


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("command", sorted(GOLDEN_ARGS))
def test_report_matches_golden_bytes(tmp_path, capsys, command, workers):
    out = tmp_path / "out.csv"
    argv = GOLDEN_ARGS[command] + ["--workers", workers, "--output", str(out)]
    assert cli.main(argv) == 0
    _assert_golden(out, command, "csv")
    assert "FAIL" not in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(GOLDEN_ARGS))
def test_json_report_matches_golden_bytes(tmp_path, command):
    out = tmp_path / "out.json"
    assert cli.main(GOLDEN_ARGS[command] + ["--format", "json", "--output", str(out)]) == 0
    _assert_golden(out, command, "json")


@pytest.mark.parametrize("command", sorted(GOLDEN_ARGS))
def test_json_holds_what_the_csv_holds(tmp_path, capsys, command):
    for fmt in ("csv", "json"):
        out = tmp_path / f"out.{fmt}"
        assert cli.main(GOLDEN_ARGS[command] + ["--format", fmt, "--output", str(out)]) == 0
    meta, columns = parse_csv(tmp_path / "out.csv")
    report = json.loads((tmp_path / "out.json").read_text())
    echo = {k.removeprefix("config."): v for k, v in meta.items() if k.startswith("config.")}
    scalars = {k: v for k, v in meta.items() if not k.startswith("config.")}
    assert list(report) == list(scalars) + ["config", "columns", "rows"]
    assert {k: str(report[k]) for k in scalars} == scalars
    assert report["config"] == echo
    assert report["columns"] == list(columns)
    assert [[float(format(v, ".9g")) for v in row] for row in report["rows"]] == [
        list(row) for row in zip(*columns.values())]


def test_parse_csv_round_trips_render_csv():
    cfg = ScenarioConfig(n_trials=17, seed=9)
    curve = MtEnergyCurve((1, 2, 3), (0.0, 0.25, 1 / 3), (0.0, 0.01, 0.125), 17)
    meta, columns = parse_csv(io.StringIO(render_csv(ExperimentReport(cfg, curve))))
    assert meta["experiment"] == "mt-energy"
    assert meta["seed"] == "9" and meta["n_trials"] == "17"
    assert meta["config.n_bs"] == "50"
    assert meta["config.state_power_mw"] == "10.0,50.0,80.0,200.0"
    assert columns == {
        "group_size": [1.0, 2.0, 3.0],
        "saving": [0.0, 0.25, float(format(1 / 3, ".9g"))],
        "saving_ci95": [0.0, 0.01, 0.125],
    }


@st.composite
def valid_configs(draw):
    n_bs = draw(st.integers(1, 60))
    n_candidates = draw(st.integers(1, n_bs))
    powers = draw(st.lists(st.floats(1e-3, 1e4), min_size=4, max_size=4, unique=True))
    return ScenarioConfig(
        area_side_m=draw(st.floats(1.0, 1e3)), n_bs=n_bs,
        n_busy_bs=draw(st.integers(0, n_bs)), n_candidates=n_candidates,
        max_group_size=draw(st.integers(1, n_candidates)),
        state_power_mw=tuple(sorted(powers)),
        bs_tx_power_mw=draw(st.floats(1e-3, 1e6)),
        mt_tx_power_mw=draw(st.floats(1e-3, 1e6)),
        path_loss_exponent=draw(st.floats(1.0, 6.0)),
        reference_distance_m=draw(st.floats(0.1, 10.0)),
        noise_power_mw=draw(st.floats(1e-12, 1.0)),
        min_distance_m=draw(st.floats(1e-3, 10.0)),
        n_trials=draw(st.integers(1, 10 ** 6)),
        seed=draw(st.integers(0, 2 ** 64 - 1)))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(cfg=valid_configs())
def test_file_text_overrides_and_flags_load_the_same_config(tmp_path_factory, cfg):
    text = dict(line.split(" = ", 1) for line in config_lines(cfg))
    path = tmp_path_factory.mktemp("cfg") / "scenario.cfg"
    path.write_text("\n".join(config_lines(cfg)) + "\n")
    flags = [arg for key, value in text.items() for arg in (f"--{key}", value)]
    args = cli.build_parser().parse_args(["coverage"] + flags)
    for loaded in (load_config(path), load_config(overrides=text),
                   load_config(args.config, cli._collect_overrides(args))):
        assert loaded == cfg and hash(loaded) == hash(cfg)


def test_config_flags_come_from_the_fields(capsys):
    assert all(f.metadata["help"] for f in fields(ScenarioConfig))
    with pytest.raises(SystemExit):
        cli.main(["bs-energy", "--help"])
    assert "10.0,50.0,80.0,200.0)" in capsys.readouterr().out


def test_bad_flag_value_reads_as_the_bad_file_line(tmp_path, capsys):
    config = tmp_path / "scenario.cfg"
    config.write_text("n_bs = abc\n")
    assert cli.main(["coverage", "--n_bs", "abc"]) == 2
    from_flag = capsys.readouterr().err
    assert cli.main(["coverage", "--config", str(config)]) == 2
    assert capsys.readouterr().err == from_flag
    assert from_flag.startswith("config error: bad value for 'n_bs': ")


@pytest.mark.parametrize("content,message", [
    (b"n_bs = 20\nseed = \xff\n", ": not UTF-8 text: "),
    (b"n_bs = 40\nn_bs = 30\n", ":2: 'n_bs' already set on line 1"),
])
def test_bad_config_file_exits_2(tmp_path, capsys, content, message):
    config = tmp_path / "scenario.cfg"
    config.write_bytes(content)
    assert cli.main(["coverage", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {config}{message}")


def test_unsorted_thresholds_run_sorted(tmp_path, capsys):
    reports = []
    for thresholds in ("0,-5", "-5,0"):
        out = tmp_path / "out.csv"
        assert cli.main(["coverage", "--n_trials", "30", "--thresholds_db", thresholds,
                         "--output", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert parse_csv(io.StringIO(reports[0].decode()))[1]["threshold_db"] == [-5.0, 0.0]


def test_unknown_config_key_exits_2(tmp_path, capsys):
    config = tmp_path / "scenario.cfg"
    config.write_text("n_bs = 20\nbogus_key = 1\n")
    assert cli.main(["coverage", "--config", str(config)]) == 2
    assert "unknown config key 'bogus_key'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["coverage", "bs-energy", "mt-energy", "validate"])
def test_workers_below_one_exit_2(capsys, command):
    assert cli.main([command, "--workers", "0"]) == 2
    assert "--workers must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [
    ("--area_side_m", "inf"),
    ("--reference_distance_m", "inf"),
    ("--path_loss_exponent", "inf"),
    ("--state_power_mw", "10,50,80,inf"),
    ("--min_distance_m", "40"),
    ("--path_loss_exponent", "500"),
    ("--bs_tx_power_mw", "1e308"),
])
def test_bad_scenario_exits_2(capsys, flag, value):
    assert cli.main(["coverage", "--n_trials", "5", flag, value]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize("flag,value", [
    ("--mt_tx_power_mw", "1e308"),
    ("--noise_power_mw", "5e-324"),
])
def test_overflowing_uplink_snr_exits_2_before_validating(capsys, flag, value):
    assert cli.main(["validate", flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "uplink SNR" in err


@pytest.mark.parametrize("flag,name", [
    ("--output", "missing/x.csv"),
    ("--output", ""),                   # the directory itself
    ("--config", "missing.cfg"),
    ("--event-log", "missing/e.log"),
])
def test_unusable_path_exits_2_before_any_trial(tmp_path, monkeypatch, capsys, flag, name):
    def no_run(*args, **kwargs):
        raise AssertionError("the simulation ran")

    monkeypatch.setattr(cli, "run_coverage", no_run)
    assert cli.main(["coverage", flag, str(tmp_path / name)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_failed_run_leaves_report_path_alone(tmp_path, capsys):
    old = tmp_path / "old.csv"
    old.write_text("earlier report\n")
    new = tmp_path / "new.csv"
    for out in (old, new):
        assert cli.main(["coverage", "--n_trials", "5", "--min_distance_m", "40",
                         "--output", str(out)]) == 2
    assert old.read_text() == "earlier report\n"
    assert not new.exists()


def test_failed_run_leaves_an_earlier_event_log_alone(tmp_path, capsys):
    old = tmp_path / "old.log"
    old.write_text("earlier log\n")
    new = tmp_path / "new.log"
    for log in (old, new):
        assert cli.main(["coverage", "--n_trials", "5", "--min_distance_m", "40",
                         "--event-log", str(log), "--output", str(tmp_path / "x.csv")]) == 2
    assert old.read_text() == "earlier log\n"
    assert not new.exists()


def test_report_write_failure_exits_2(tmp_path, monkeypatch, capsys):
    def failing_write(report, destination):
        raise IoFailure("could not write report: disk full")

    monkeypatch.setattr(cli, "emit_csv", failing_write)
    assert cli.main(["coverage", "--n_trials", "5", "--output", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == "error: could not write report: disk full\n"


@pytest.mark.parametrize("argv,message", [
    (["coverage", "--thresholds_db", "0:inf"], "sweep values must be finite"),
    (["coverage", "--thresholds_db", "-5,nan"], "sweep values must be finite"),
    (["coverage", "--thresholds_db", "0:1:1e-12"], "a sweep takes at most 10000 points"),
    (["bs-energy", "--sleeping_counts", "inf"], "sweep values must be finite"),
])
def test_unbounded_sweep_exits_2(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"error: argument {argv[1]}: {message}\n")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,bad", [
    (["bs-energy", "--sleeping_counts", "0.5,1.5,2.5"], "0.5"),
    (["bs-energy", "--group_sizes", "2,3.5"], "3.5"),
    (["mt-energy", "--group_sizes=1:3:0.5"], "1.5"),
    (["mt-energy", "--group_sizes", "1,2.0000001"], "2.0000001"),
])
def test_fractional_integer_sweep_exits_2(capsys, argv, bad):
    # rounding would run 0.5,1.5,2.5 as the two rows 0 and 2
    assert cli.main(argv) == 2
    sweep = argv[1].partition("=")[0][2:]
    assert capsys.readouterr().err == (
        f"config error: {sweep} takes whole numbers, not {bad}\n")


@pytest.mark.parametrize("text,want", [
    ("0:10", list(range(11))),
    ("1:5:2", [1, 3, 5]),
    ("2,3.0,4e0", [2, 3, 4]),
])
def test_whole_integer_sweeps_pass(tmp_path, capsys, text, want):
    out = tmp_path / "out.csv"
    assert cli.main(["bs-energy", "--sleeping_counts", text, "--output", str(out)]) == 0
    rows = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    assert [row.split(",")[0] for row in rows[1:]] == [str(s) for s in want]


@pytest.mark.parametrize("threshold,covered", [("4000", "0"), ("-4000", "1")])
def test_thresholds_beyond_the_float_range(tmp_path, capsys, threshold, covered):
    # 10 ** 400 overflows a float and no SINR clears it; 10 ** -400 rounds to 0
    out = tmp_path / "out.csv"
    assert cli.main(["coverage", f"--thresholds_db={threshold}", "--n_trials", "20",
                     "--output", str(out)]) == 0
    assert out.read_text().splitlines()[-1] == f"{threshold},{covered},0,{covered},0"


@pytest.mark.parametrize("argv,code", [
    (["coverage", "--thresholds_db", "-15:5:1"], 0),
    (["coverage", "--thresholds_db", "-5,0"], 0),
    (["bs-energy", "--sleeping_counts", "-1:3"], 2),
    (["bs-energy", "--state_power_mw", "-1,50,80,200"], 2),
])
def test_flag_value_may_begin_with_a_dash(tmp_path, capsys, argv, code):
    runs = []
    for form in (argv, argv[:1] + [f"{argv[1]}={argv[2]}"]):
        out = tmp_path / "out.csv"
        assert cli.main(form + ["--n_trials", "20", "--output", str(out)]) == code
        err = capsys.readouterr().err
        runs.append(out.read_bytes() if code == 0 else err)
        out.unlink(missing_ok=True)
    assert runs[0] == runs[1]
    if code:
        assert runs[0].startswith("config error: ")
    else:
        thresholds = parse_csv(io.StringIO(runs[0].decode()))[1]["threshold_db"]
        assert thresholds == cli._sweep(argv[2])


def test_only_a_value_taking_flag_takes_a_dash_value():
    assert cli._attach_dash_values(["coverage", "--seed", "-1", "--output", "-", "--help"]) == [
        "coverage", "--seed=-1", "--output=-", "--help"]
    assert cli._attach_dash_values(["--help", "-h", "--output", "-h", "--workers=2", "-3"]) == [
        "--help", "-h", "--output", "-h", "--workers=2", "-3"]


def test_sweep_point_limit():
    assert cli._sweep("0:9999") == [float(v) for v in range(10000)]
    with pytest.raises(argparse.ArgumentTypeError):
        cli._sweep("0:10000")
    with pytest.raises(argparse.ArgumentTypeError):
        cli._sweep(",".join(["1"] * 10001))


def test_event_log_is_the_same_at_two_workers(tmp_path):
    logs = []
    for workers in ("1", "2"):
        log = tmp_path / f"events-{workers}.log"
        argv = GOLDEN_ARGS["coverage"] + ["--workers", workers, "--event-log", str(log),
                                          "--output", str(tmp_path / "out.csv")]
        assert cli.main(argv) == 0
        logs.append(log.read_bytes())
    assert logs[0].count(b"\n") == 40
    assert logs[1] == logs[0]


@pytest.mark.parametrize("same", ["twice", "relative", "linked"])
def test_event_log_and_report_in_one_file_exit_2_before_any_trial(
        tmp_path, monkeypatch, capsys, same):
    def no_run(*args, **kwargs):
        raise AssertionError("the simulation ran")

    monkeypatch.setattr(cli, "run_coverage", no_run)
    report = tmp_path / "out.txt"
    log = report
    if same == "relative":
        monkeypatch.chdir(tmp_path)
        log = Path("out.txt")
    elif same == "linked":
        report.write_text("earlier report\n")
        log = tmp_path / "link.txt"
        os.link(report, log)
    argv = ["coverage", "--n_trials", "20", "--event-log", str(log), "--output", str(report)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --event-log and --output name one file")
    assert not report.exists() or report.read_text() == "earlier report\n"


def test_placement_failure_reads_the_same_at_two_workers(monkeypatch, capsys):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    errors = []
    for workers in ("1", "2"):
        assert cli.main(["coverage", "--n_trials", "10", "--min_distance_m", "40",
                         "--workers", workers]) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("config error: gave up placing 50 BSs")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("flags", [["--output", "v.out"], ["--format", "json"]])
def test_validate_takes_no_report_flags(tmp_path, monkeypatch, capsys, flags):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["validate"] + flags)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "v.out").exists()


def test_bs_energy_has_no_event_log(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["bs-energy", "--event-log", str(tmp_path / "events.log")])
    assert exc.value.code == 2


def test_failed_validation_exits_1(monkeypatch, capsys):
    # cli imports run_validation when validate runs, so the module's binding is the one used
    monkeypatch.setattr(validation, "run_validation", lambda cfg: [("suite", False, "detail")])
    assert cli.main(["validate"]) == 1
    assert "suite: FAIL (detail)" in capsys.readouterr().out


def test_validate_refuses_more_candidates_than_the_oracle_searches(monkeypatch, capsys):
    def no_suite(*args, **kwargs):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(validation, "grouping_check", no_suite)
    assert cli.main(["validate", "--n_candidates", "13"]) == 2
    err = capsys.readouterr().err
    assert err == ("config error: validate checks grouping against an exhaustive search "
                   "of at most 12 candidates, not n_candidates=13\n")


def _tasks_after_import(env_update):
    """Threads of a fresh interpreter that has imported cellless, and its OPENBLAS_NUM_THREADS."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(env_update)
    env["PYTHONPATH"] = str(Path(cellless.__file__).parents[1])
    code = ("import os, cellless; print(len(os.listdir('/proc/self/task')), "
            "os.environ.get('OPENBLAS_NUM_THREADS'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    return int(out[0]), out[1]


@pytest.mark.skipif(not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2,
                    reason="counts threads in /proc; a BLAS pool needs two CPUs")
def test_import_starts_no_blas_thread():
    assert _tasks_after_import({}) == (1, "1")
    assert _tasks_after_import({"OPENBLAS_NUM_THREADS": "2"})[1] == "2"


def test_import_loads_no_process_pool():
    env = dict(os.environ, PYTHONPATH=str(Path(cellless.__file__).parents[1]))
    code = ("import sys, cellless.cli; "
            "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


def test_curve_commands_load_neither_controller_nor_validation():
    # a host that writes no bytecode compiles every imported module on each
    # start, and only validate runs the controller and the oracles
    env = dict(os.environ, PYTHONPATH=str(Path(cellless.__file__).parents[1]))
    guarded = "('cellless.controller', 'cellless.validation')"
    code = ("import sys, cellless.cli; "
            f"print(sorted(set({guarded}) & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"
    validate = subprocess.run([sys.executable, "-m", "cellless.cli", "validate"], env=env,
                              capture_output=True, text=True)
    assert validate.returncode == 0, validate.stderr
    rows = validate.stdout.splitlines()
    assert [row.split(":")[0] for row in rows] == [
        "grouping-oracle", "power-solve", "state-machine", "bs-energy-ledger", "determinism"]
    assert all(": PASS (" in row for row in rows)


def test_engine_import_loads_only_the_engine():
    # the scalar network model and its references stay out of the engine
    env = dict(os.environ, PYTHONPATH=str(Path(cellless.__file__).parents[1]))
    code = ("import sys, cellless.experiments; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'cellless'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == str(["cellless", "cellless.config", "cellless.errors",
                       "cellless.experiments", "cellless.scenario"]) + "\n"


def test_every_export_resolves_to_the_module_the_table_names():
    env = dict(os.environ, PYTHONPATH=str(Path(cellless.__file__).parents[1]))
    code = ("import cellless; "
            "print(sorted(n for n in cellless.__all__ if getattr(cellless, n).__module__ "
            "!= 'cellless.' + cellless._EXPORTS[n]))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


def _numpy_loaded_after(code):
    """What a fresh interpreter that runs ``code`` prints, then whether it loaded numpy."""
    env = dict(os.environ, PYTHONPATH=str(Path(cellless.__file__).parents[1]))
    code += "\nimport sys; print('numpy' in sys.modules)"
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.split()


@pytest.mark.parametrize("module", ["cellless", "cellless.cli"])
def test_import_loads_no_numpy(module):
    assert _numpy_loaded_after(f"import {module}") == ["False"]


@pytest.mark.parametrize("argv,code", [
    (["bs-energy"], 0),
    (["bs-energy", "--n_bs", "0"], 2),
    (["--help"], 0),
    (["coverage", "--help"], 0),
    (["bs-energy", "--help"], 0),
    (["mt-energy", "--help"], 0),
    (["validate", "--help"], 0),
])
def test_commands_that_run_no_trial_load_no_numpy(argv, code):
    # the command's own output is dropped; its exit code and the number of
    # objects it froze are printed
    run = ("import contextlib, gc, io, cellless.cli as cli\n"
           "with contextlib.redirect_stdout(io.StringIO()), "
           "contextlib.redirect_stderr(io.StringIO()):\n"
           "    try:\n"
           f"        code = cli.main({argv!r})\n"
           "    except SystemExit as exc:\n"
           "        code = exc.code\n"
           "print(code, gc.get_freeze_count())")
    assert _numpy_loaded_after(run) == [str(code), "0", "False"]


@pytest.mark.parametrize("command", ["coverage", "mt-energy"])
def test_trial_commands_freeze_their_start_up_once(tmp_path, command):
    # a fresh process, with forked trial children: the first trial command
    # freezes what its start-up loaded, a second one freezes nothing more,
    # and the collector stays on
    out = tmp_path / "out.csv"
    argv = GOLDEN_ARGS[command] + ["--workers", "2", "--output", str(out)]
    run = ("import contextlib, gc, io, cellless.cli as cli\n"
           "with contextlib.redirect_stderr(io.StringIO()):\n"
           f"    assert cli.main({argv!r}) == 0\n"
           "    first = gc.get_freeze_count()\n"
           f"    assert cli.main({argv!r}) == 0\n"
           "    second = gc.get_freeze_count()\n"
           "print(first, second, gc.isenabled())")
    first, second, enabled, numpy_loaded = _numpy_loaded_after(run)
    assert int(first) > 0 and second == first
    assert (enabled, numpy_loaded) == ("True", "True")
    _assert_golden(out, command, "csv")


@pytest.mark.parametrize("command", ["coverage", "mt-energy"])
def test_trial_commands_load_the_engine_before_the_config(tmp_path, monkeypatch, capsys,
                                                          command):
    # unload the engine, as in a fresh process; every binding is restored after
    engine = importlib.import_module("cellless.experiments")
    monkeypatch.setattr(cellless, "experiments", engine)
    monkeypatch.delattr(cellless, "experiments")
    monkeypatch.delitem(sys.modules, "cellless.experiments")
    loaded = []
    load_config = cli.load_config

    def watched(*args, **kwargs):
        loaded.append("cellless.experiments" in sys.modules)
        return load_config(*args, **kwargs)

    monkeypatch.setattr(cli, "load_config", watched)
    # loading the engine freezes this process's heap; later tests get the
    # collector back as it was
    frozen = gc.get_freeze_count()
    try:
        assert cli.main([command, "--n_trials", "2", "--output", str(tmp_path / "out.csv")]) == 0
        assert gc.get_freeze_count() > frozen
    finally:
        gc.unfreeze()
    assert loaded == [True]
