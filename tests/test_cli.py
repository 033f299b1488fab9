import argparse
import io
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
                      cli, config_lines, load_config, parse_csv, render_csv)

GOLDEN = Path(__file__).parent / "golden"

# Each golden file is the report of one small run; the coverage and
# mt-energy CSVs were written before bs-energy became a closed form, and the
# JSON files before the report writers were merged; none of them may move.
GOLDEN_ARGS = {
    "coverage": ["coverage", "--n_trials", "40", "--seed", "3"],
    "mt-energy": ["mt-energy", "--n_trials", "40", "--seed", "3"],
    "bs-energy": ["bs-energy", "--n_trials", "200", "--seed", "3"],
}


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("command", sorted(GOLDEN_ARGS))
def test_report_matches_golden_bytes(tmp_path, capsys, command, workers):
    out = tmp_path / "out.csv"
    argv = GOLDEN_ARGS[command] + ["--workers", workers, "--output", str(out)]
    assert cli.main(argv) == 0
    assert out.read_bytes() == (GOLDEN / f"{command}.csv").read_bytes()
    assert "FAIL" not in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(GOLDEN_ARGS))
def test_json_report_matches_golden_bytes(tmp_path, command):
    out = tmp_path / "out.json"
    assert cli.main(GOLDEN_ARGS[command] + ["--format", "json", "--output", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{command}.json").read_bytes()


def test_parse_csv_round_trips_render_csv():
    cfg = ScenarioConfig(n_trials=17, seed=9)
    curve = MtEnergyCurve((1, 2, 3), (0.0, 0.25, 1 / 3), (0.0, 0.01, 0.125), 17)
    meta, columns = parse_csv(io.StringIO(render_csv(ExperimentReport("mt-energy", cfg, curve))))
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
    assert set(cli._FIELD_HELP) == {f.name for f in fields(ScenarioConfig)}
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
        assert thresholds == cli._float_sweep(argv[2])


def test_only_a_value_taking_flag_takes_a_dash_value():
    assert cli._attach_dash_values(["coverage", "--seed", "-1", "--output", "-", "--help"]) == [
        "coverage", "--seed=-1", "--output=-", "--help"]
    assert cli._attach_dash_values(["--help", "-h", "--output", "-h", "--workers=2", "-3"]) == [
        "--help", "-h", "--output", "-h", "--workers=2", "-3"]


def test_sweep_point_limit():
    assert len(cli._float_sweep("0:9999")) == 10000
    with pytest.raises(argparse.ArgumentTypeError):
        cli._float_sweep("0:10000")
    with pytest.raises(argparse.ArgumentTypeError):
        cli._float_sweep(",".join(["1"] * 10001))


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
    monkeypatch.setattr(cli, "run_validation", lambda cfg: [("suite", False, "detail")])
    assert cli.main(["validate"]) == 1
    assert "suite: FAIL (detail)" in capsys.readouterr().out


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
