import io
from pathlib import Path

import pytest

from cellless import (ExperimentReport, MtEnergyCurve, ScenarioConfig, cli,
                      parse_csv, render_csv)

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
])
def test_bad_scenario_exits_2(capsys, flag, value):
    assert cli.main(["coverage", "--n_trials", "5", flag, value]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_bs_energy_has_no_event_log(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["bs-energy", "--event-log", str(tmp_path / "events.log")])
    assert exc.value.code == 2


def test_failed_validation_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_validation", lambda cfg: [("suite", False, "detail")])
    assert cli.main(["validate"]) == 1
    assert "suite: FAIL (detail)" in capsys.readouterr().out
