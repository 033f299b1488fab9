"""Command-line front end.

Binds scenario files and flag overrides to the experiment kernels, writes
CSV/JSON reports, and exposes the built-in validation suites. Exit codes:
0 success, 1 validation failure, 2 configuration or file error.
"""

import argparse
import errno
import io
import math
import os
import sys
import time
from dataclasses import fields

from .errors import ConfigError, InfeasibleConfig, IoFailure, PlacementFailure
from .experiments import run_bs_energy, run_coverage, run_mt_energy, run_validation
from .report import ExperimentReport, emit_csv, emit_json, summarize
from .scenario import ScenarioConfig, config_lines, load_config

_FIELD_HELP = {
    "area_side_m": "side of the square deployment area in meters",
    "n_bs": "number of base stations",
    "n_busy_bs": "BSs pre-committed to other users' groups (interferers)",
    "n_candidates": "nearest BSs eligible for the typical user's group",
    "max_group_size": "cooperative group size cap",
    "state_power_mw": "consumed mW as 'sleeping,listening,ready,transferring'",
    "bs_tx_power_mw": "downlink radiated power of a transferring BS in mW",
    "mt_tx_power_mw": "baseline uplink terminal power in mW",
    "path_loss_exponent": "log-distance path loss exponent (unitless)",
    "reference_distance_m": "path loss reference distance in meters",
    "noise_power_mw": "noise power over the normalized band in mW",
    "min_distance_m": "placement exclusion radius in meters",
    "n_trials": "Monte Carlo trial count",
    "seed": "root seed, 64-bit unsigned integer",
}


_MAX_SWEEP_POINTS = 10_000


def _sweep(text: str, cast):
    """Parse 'start:stop:step' (inclusive) or a comma-separated list.

    Every number must be finite and a sweep holds at most 10 000 points; a
    range's point count is checked before the range is built.
    """
    is_range = ":" in text
    parts = [float(p) for p in text.split(":" if is_range else ",")]
    if not all(math.isfinite(p) for p in parts):
        raise argparse.ArgumentTypeError("sweep values must be finite")
    if is_range:
        if len(parts) == 2:
            start, stop, step = parts[0], parts[1], 1.0
        elif len(parts) == 3:
            start, stop, step = parts
        else:
            raise argparse.ArgumentTypeError("expected start:stop[:step]")
        if step <= 0 or stop < start:
            raise argparse.ArgumentTypeError("need stop >= start and step > 0")
        span = (stop - start) / step + 1e-9
        if span >= _MAX_SWEEP_POINTS:
            raise argparse.ArgumentTypeError(
                f"a sweep takes at most {_MAX_SWEEP_POINTS} points")
        parts = [start + i * step for i in range(int(span) + 1)]
    elif len(parts) > _MAX_SWEEP_POINTS:
        raise argparse.ArgumentTypeError(
            f"a sweep takes at most {_MAX_SWEEP_POINTS} points")
    return [cast(v) for v in parts]


def _float_sweep(text):
    return _sweep(text, float)


def _int_sweep(text):
    return _sweep(text, lambda v: int(round(v)))


def _add_config_flags(sub):
    # plain text flags: load_config parses them as it parses file lines
    for line in config_lines(ScenarioConfig()):
        name, _, default = line.partition(" = ")
        sub.add_argument(f"--{name}", help=f"{_FIELD_HELP[name]} (default: {default})")


def _add_common(sub, report: bool = True):
    sub.add_argument("--config", default=None,
                     help="scenario file with one 'key = value' per line")
    if report:
        sub.add_argument("--output", default=None,
                         help="report destination (default: stdout)")
        sub.add_argument("--format", choices=("csv", "json"), default="csv",
                         help="report format (default: csv)")
    sub.add_argument("--workers", type=int, default=1,
                     help="trial processes for coverage and mt-energy, at most one "
                          "per CPU in all: this process runs the first chunk of "
                          "trials and forks one child per other chunk; never "
                          "changes any emitted number")
    _add_config_flags(sub)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cellless",
        description="Monte Carlo simulator of SDN-controlled cooperative "
                    "cell-less radio networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    cov = sub.add_parser("coverage",
                         help="coverage probability vs SINR threshold, "
                              "cellular baseline vs cell-less grouping")
    cov.add_argument("--thresholds_db", type=_float_sweep, default=None,
                     help="SINR thresholds in dB, 'start:stop:step' or comma "
                          "list (default: -15:5:1)")
    cov.add_argument("--event-log", dest="event_log", default=None,
                     help="write one line per grouping decision")
    _add_common(cov)

    bse = sub.add_parser("bs-energy",
                         help="fractional BS power saving vs sleeping count")
    bse.add_argument("--sleeping_counts", type=_int_sweep, default=None,
                     help="sleeping BS counts, 'start:stop[:step]' or comma "
                          "list (default: 0:10)")
    bse.add_argument("--group_sizes", type=_int_sweep, default=None,
                     help="cooperative group sizes (default: 2,3,4)")
    bse.add_argument("--n_users", type=int, default=10,
                     help="terminals served per trial (default: 10)")
    _add_common(bse)

    mte = sub.add_parser("mt-energy",
                         help="fractional terminal power saving vs joint-"
                              "reception group size")
    mte.add_argument("--group_sizes", type=_int_sweep, default=None,
                     help="joint-reception group sizes (default: 1,2,3,4,5)")
    _add_common(mte)

    val = sub.add_parser("validate",
                         help="run the built-in oracle suites and exit "
                              "nonzero on any failure")
    _add_common(val, report=False)
    return parser


def _attach_dash_values(argv) -> list:
    """Join '--flag -5,0' into '--flag=-5,0', so the value reaches its flag.

    argparse reads a token that starts with '-' as a flag unless it is a
    plain negative number, so '--thresholds_db -15:5:1' would fail with
    'expected one argument'. Every option but --help is long and takes one
    value, so a token with a single leading '-' (other than -h) that follows
    one is that option's value.
    """
    joined = []
    for arg in argv:
        prev = joined[-1] if joined else ""
        if (arg.startswith("-") and not arg.startswith("--") and arg != "-h"
                and prev.startswith("--") and len(prev) > 2 and "=" not in prev
                and prev != "--help"):
            joined[-1] = f"{prev}={arg}"
        else:
            joined.append(arg)
    return joined


def _collect_overrides(args) -> dict:
    given = vars(args)
    return {f.name: given[f.name] for f in fields(ScenarioConfig) if given[f.name] is not None}


def _check_report_path(path: str) -> None:
    """Raise the OSError a report write to ``path`` would hit, before the run.

    Nothing is created or truncated here, so an earlier report survives a
    run that fails; a write that still fails later raises ``IoFailure``.
    """
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise FileNotFoundError(errno.ENOENT, "no such directory", directory)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, "is a directory", path)
    target = path if os.path.exists(path) else directory
    if not os.access(target, os.W_OK):
        raise PermissionError(errno.EACCES, "not writable", target)


def _emit(report, args) -> None:
    writer = emit_csv if args.format == "csv" else emit_json
    if args.output is None:
        writer(report, sys.stdout)
    else:
        writer(report, args.output)
    print(summarize(report), file=sys.stderr)


def _dispatch(args, cfg) -> int:
    if args.command == "validate":
        rows = run_validation(cfg)
        for name, passed, detail in rows:
            print(f"{name}: {'PASS' if passed else 'FAIL'} ({detail})")
        return 0 if all(passed for _, passed, _ in rows) else 1

    event_log = getattr(args, "event_log", None)
    for path in (args.output, event_log):
        if path is not None:
            _check_report_path(path)
    started = time.perf_counter()
    if args.command == "coverage":
        # the log is written after the scan, so it is held until the run
        # returns: a run that fails leaves an earlier log alone
        events = io.StringIO() if event_log else None
        payload = run_coverage(cfg, thresholds_db=args.thresholds_db,
                               workers=args.workers, event_log=events)
        if events is not None:
            with open(event_log, "w") as fh:
                fh.write(events.getvalue())
    elif args.command == "bs-energy":
        payload = run_bs_energy(cfg, sleeping_counts=args.sleeping_counts,
                                group_sizes=args.group_sizes, n_users=args.n_users)
    else:
        payload = run_mt_energy(cfg, group_sizes=args.group_sizes, workers=args.workers)
    report = ExperimentReport(args.command, cfg, payload,
                              time.perf_counter() - started)
    _emit(report, args)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(_attach_dash_values(sys.argv[1:] if argv is None else argv))
    try:
        if args.workers < 1:
            raise ConfigError("--workers must be at least 1")
        cfg = load_config(args.config, _collect_overrides(args))
        return _dispatch(args, cfg)
    except (ConfigError, InfeasibleConfig, PlacementFailure) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, IoFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
