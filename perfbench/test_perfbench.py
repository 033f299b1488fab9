"""Tests of the benchmark harness itself: span arithmetic, the traced pass,
the output checks and the worker guard. None of them starts a pool."""

import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
if str(HERE.parent / "src") not in sys.path:
    sys.path.insert(0, str(HERE.parent / "src"))

import child  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def ticking_tracer():
    ticks = itertools.count(0, 10)
    return spans.Tracer(clock=lambda: next(ticks))


def test_self_time_is_duration_minus_children():
    tracer = ticking_tracer()
    leaf = tracer.wrap("m.leaf", lambda: None)

    def middle():
        leaf()
        leaf()

    wrapped_middle = tracer.wrap("m.middle", middle)

    def outer():
        wrapped_middle()
        leaf()

    # clock: outer 0..90, middle 10..60 around leaves 20..30 and 40..50,
    # then a leaf 70..80
    tracer.call("m.outer", outer)
    summary = tracer.pass_summary()
    functions = summary["functions"]
    assert summary["root_ns"] == 90
    assert functions["m.outer"] == {"calls": 1, "durations": [90], "self": 30}
    assert functions["m.middle"] == {"calls": 1, "durations": [50], "self": 30}
    assert functions["m.leaf"] == {"calls": 3, "durations": [10, 10, 10], "self": 30}
    assert sum(f["self"] for f in functions.values()) == summary["root_ns"]
    assert tracer.parents == [-1, 0, 1, 1, 0]


def test_trials_run_from_entry_to_next_entry_or_chunk_end():
    tracer = ticking_tracer()
    entry = tracer.wrap("experiments.coverage_instance", lambda: None)

    def chunk():
        entry()
        entry()

    # clock: chunk 0..50, entries 10..20 and 30..40
    tracer.call("experiments._coverage_chunk", chunk)
    assert tracer.trials == [-1, 0, 1]
    assert tracer.pass_summary()["trial_ns"] == [20, 20]


def _bindings():
    owners = {owner for owner, _ in spans.trace_targets()}
    return {owner: dict(vars(owner)) for owner in owners}


@pytest.mark.parametrize("argv", [
    ["coverage", "--n_trials", "6", "--seed", "5", "--workers", "1"],
    ["bs-energy", "--n_trials", "2", "--seed", "5", "--workers", "1"],
    ["mt-energy", "--n_trials", "6", "--seed", "5", "--workers", "1"],
])
def test_traced_pass_keeps_csv_bytes_and_unwraps(tmp_path, argv):
    from cellless import cli

    before = _bindings()
    untraced = tmp_path / "untraced.csv"
    assert cli.main(argv + ["--output", str(untraced)]) == 0
    want = hashlib.sha256(untraced.read_bytes()).hexdigest()

    result = tmp_path / "traced.json"
    traced_csv = tmp_path / "traced.csv"
    assert child.traced(str(result), 0.0, 1, argv + ["--output", str(traced_csv)]) == 0
    outcome = json.loads(result.read_text())

    assert outcome["traced"] == 1
    assert [p["digest"] for p in outcome["passes"]] == [want, want]
    after = _bindings()
    for owner, names in before.items():
        assert all(after[owner][name] is obj for name, obj in names.items()), owner
    declared = {m["name"] for m in json.loads((HERE.parent / "BENCHMARK.json")
                                              .read_text())["per_layer"]}
    assert set(outcome["metrics"]) == declared


def test_counts_match_the_pipeline(tmp_path):
    argv = ["mt-energy", "--n_trials", "4", "--seed", "2", "--workers", "1",
            "--output", str(tmp_path / "out.csv")]
    result = tmp_path / "traced.json"
    child.traced(str(result), 0.0, 1, argv)
    metrics = json.loads(result.read_text())["metrics"]
    assert metrics["scenario.generate_deployment.calls"] == 4
    assert metrics["controller.form_group.calls"] == 0
    assert metrics["controller.group_rate.calls"] == 0


def _report(tmp_path, argv):
    from cellless import cli

    csv_path = tmp_path / "out.csv"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--output", str(csv_path)])
    return code, csv_path, err.getvalue()


def test_output_checks_accept_real_output_and_catch_a_changed_value(tmp_path):
    code, csv_path, err = _report(tmp_path, ["bs-energy", "--n_trials", "2", "--seed", "4"])
    assert run.output_problems("bs-energy", 4, 2, code, csv_path, err) == []
    assert run.output_problems("bs-energy", 4, 3, code, csv_path, err)

    lines = csv_path.read_text().splitlines(keepends=True)
    cells = lines[-1].split(",")
    cells[1] = "0.5"
    lines[-1] = ",".join(cells)
    csv_path.write_text("".join(lines))
    problems = run.output_problems("bs-energy", 4, 2, code, csv_path, err)
    assert any("ledger" in p for p in problems)
    assert run.output_problems("bs-energy", 4, 2, code, csv_path,
                               err.replace("PASS", "FAIL"))


def test_worker_counts_are_bounded_by_the_host():
    limit = os.cpu_count()
    for workers in (0, -1, limit + 1, 10_000):
        with pytest.raises(ValueError):
            run.check_workers(workers)
        with pytest.raises(ValueError):
            run.cli_args(run.WORKLOADS["coverage"], 1, workers, Path("out.csv"))
    assert run.check_workers(1) == 1
    assert run.check_workers(limit) == limit
    assert run.check_workers(run.nproc()) == run.nproc()
