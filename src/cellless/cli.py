"""Command-line front end.

Binds scenario files and flag overrides to the experiment kernels, writes
CSV/JSON reports, and exposes the built-in validation suites. Exit codes:
0 success, 1 validation failure, 2 configuration error.
"""

import argparse
import sys
import time
from dataclasses import fields

from .errors import ConfigError, InfeasibleConfig, PlacementFailure
from .experiments import (DEFAULT_BS_GROUP_SIZES, DEFAULT_MT_GROUP_SIZES,
                          run_bs_energy, run_coverage, run_mt_energy,
                          run_validation)
from .report import ExperimentReport, emit_csv, emit_json, summarize
from .scenario import (_INT_FIELDS, STATE_ORDER, ScenarioConfig, load_config,
                       parse_state_powers)

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


def _sweep(text: str, cast):
    """Parse 'start:stop:step' (inclusive) or a comma-separated list."""
    if ":" in text:
        parts = [float(p) for p in text.split(":")]
        if len(parts) == 2:
            start, stop, step = parts[0], parts[1], 1.0
        elif len(parts) == 3:
            start, stop, step = parts
        else:
            raise argparse.ArgumentTypeError("expected start:stop[:step]")
        if step <= 0 or stop < start:
            raise argparse.ArgumentTypeError("need stop >= start and step > 0")
        count = int((stop - start) / step + 1e-9) + 1
        return [cast(start + i * step) for i in range(count)]
    return [cast(float(p)) for p in text.split(",")]


def _float_sweep(text):
    return _sweep(text, float)


def _int_sweep(text):
    return _sweep(text, lambda v: int(round(v)))


def _add_config_flags(sub):
    defaults = ScenarioConfig()
    for f in fields(ScenarioConfig):
        if f.name == "state_power_mw":
            default_text = ",".join(f"{defaults.state_power_mw[s]:g}" for s in STATE_ORDER)
            sub.add_argument("--state_power_mw", type=str, default=None,
                             help=f"{_FIELD_HELP[f.name]} (default: {default_text})")
            continue
        kind = int if f.name in _INT_FIELDS else float
        sub.add_argument(f"--{f.name}", type=kind, default=None,
                         help=f"{_FIELD_HELP[f.name]} (default: {getattr(defaults, f.name)})")


def _add_common(sub):
    sub.add_argument("--config", default=None,
                     help="scenario file with one 'key = value' per line")
    sub.add_argument("--output", default=None,
                     help="report destination (default: stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv",
                     help="report format (default: csv)")
    sub.add_argument("--workers", type=int, default=1,
                     help="parallel trial processes for coverage and mt-energy, "
                          "at most one per CPU; never changes any emitted number")
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
                     help="write one line per grouping decision (workers=1 only)")
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
    _add_common(val)
    return parser


def _collect_overrides(args) -> dict:
    overrides = {}
    for f in fields(ScenarioConfig):
        value = getattr(args, f.name, None)
        if value is None:
            continue
        if f.name == "state_power_mw":
            value = parse_state_powers(value)
        overrides[f.name] = value
    return overrides


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

    started = time.perf_counter()
    event_fh = None
    try:
        if getattr(args, "event_log", None):
            event_fh = open(args.event_log, "w")
        if args.command == "coverage":
            payload = run_coverage(cfg, thresholds_db=args.thresholds_db,
                                   workers=args.workers, event_log=event_fh)
        elif args.command == "bs-energy":
            payload = run_bs_energy(
                cfg, sleeping_counts=args.sleeping_counts,
                group_sizes=args.group_sizes or DEFAULT_BS_GROUP_SIZES,
                n_users=args.n_users)
        elif args.command == "mt-energy":
            payload = run_mt_energy(
                cfg, group_sizes=args.group_sizes or DEFAULT_MT_GROUP_SIZES,
                workers=args.workers)
        else:  # unreachable: argparse restricts the choices
            raise ConfigError(f"unknown command {args.command}")
    finally:
        if event_fh is not None:
            event_fh.close()
    report = ExperimentReport(args.command, cfg, payload,
                              time.perf_counter() - started)
    _emit(report, args)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.workers < 1:
            raise ConfigError("--workers must be at least 1")
        cfg = load_config(args.config, _collect_overrides(args))
        return _dispatch(args, cfg)
    except (ConfigError, InfeasibleConfig, PlacementFailure) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
