"""Deterministic report artifacts: CSV with a metadata header, a nested
JSON payload, and a one-paragraph verdict summary.

The CSV is the canonical machine-readable output: '#'-prefixed metadata
(experiment, config hash, seed, trial count, full config echo) followed by
one row per curve point, numbers at 9 significant digits, '\\n' endings.
Identical runs emit byte-identical files.
"""

import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

from .errors import IoFailure
from .experiments import BsEnergyCurve, CoverageCurve, MtEnergyCurve
from .scenario import ScenarioConfig, config_lines


def config_hash(cfg: ScenarioConfig) -> str:
    """Digest of the canonical config echo; changes iff any field changes."""
    text = "\n".join(config_lines(cfg))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True)
class ExperimentReport:
    """One experiment's aggregated curve plus everything needed to rerun it."""

    experiment: str
    config: ScenarioConfig
    payload: CoverageCurve | BsEnergyCurve | MtEnergyCurve
    duration_s: float = 0.0

    @property
    def seed(self) -> int:
        return self.config.seed

    @property
    def n_trials(self) -> int:
        return self.payload.n_trials


def _fmt(value) -> str:
    """Numbers at 9 significant digits; integral values print without a dot."""
    if isinstance(value, bool):
        raise TypeError("not a numeric cell")
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".9g")


def _rows(payload):
    """Column names and row tuples for one curve type, sweep ascending."""
    if isinstance(payload, CoverageCurve):
        header = ("threshold_db", "cellular", "cellular_ci95",
                  "cellless", "cellless_ci95")
        rows = list(zip(payload.thresholds_db, payload.cellular_prob,
                        payload.cellular_ci95, payload.cellless_prob,
                        payload.cellless_ci95))
        return header, rows
    if isinstance(payload, BsEnergyCurve):
        header = ["sleeping_count"]
        for k in payload.group_sizes:
            header += [f"saving_k{k}", f"saving_k{k}_ci95"]
        rows = []
        for si, s in enumerate(payload.sleeping_counts):
            row = [s]
            for k in payload.group_sizes:
                row += [payload.saving_fraction[k][si], payload.ci95[k][si]]
            rows.append(tuple(row))
        return tuple(header), rows
    if isinstance(payload, MtEnergyCurve):
        header = ("group_size", "saving", "saving_ci95")
        rows = list(zip(payload.group_sizes, payload.saving_fraction, payload.ci95))
        return header, rows
    raise TypeError(f"unknown payload type {type(payload).__name__}")


def render_csv(report: ExperimentReport) -> str:
    """The CSV text for a report; a pure function of its content."""
    out = io.StringIO()
    out.write(f"# experiment = {report.experiment}\n")
    out.write(f"# config_hash = {config_hash(report.config)}\n")
    out.write(f"# seed = {report.seed}\n")
    out.write(f"# n_trials = {report.n_trials}\n")
    if isinstance(report.payload, BsEnergyCurve):
        out.write(f"# n_users = {report.payload.n_users}\n")
    for line in config_lines(report.config):
        out.write(f"# config.{line}\n")
    header, rows = _rows(report.payload)
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(_fmt(v) for v in row) + "\n")
    return out.getvalue()


def _write(text: str, destination) -> None:
    """Write report text to a path or text handle."""
    try:
        if hasattr(destination, "write"):
            destination.write(text)
        else:
            with open(destination, "w", newline="") as fh:
                fh.write(text)
    except OSError as exc:
        raise IoFailure(f"could not write report: {exc}") from exc


def emit_csv(report: ExperimentReport, destination) -> None:
    """Write the report CSV to a path or text handle."""
    _write(render_csv(report), destination)


def parse_csv(source) -> tuple:
    """Read an emitted CSV back into (metadata dict, column dict).

    Metadata keys keep their '# key = value' names (config echo keys are
    prefixed 'config.'); columns parse to floats at the printed precision.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = Path(source).read_text()
    meta = {}
    header = None
    columns = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
            continue
        cells = line.split(",")
        if header is None:
            header = cells
            columns = {name: [] for name in header}
            continue
        for name, cell in zip(header, cells):
            columns[name].append(float(cell))
    return meta, columns


def to_dict(report: ExperimentReport) -> dict:
    """Nested structured-object form of the report (same content as the CSV)."""
    header, rows = _rows(report.payload)
    return {
        "experiment": report.experiment,
        "config_hash": config_hash(report.config),
        "seed": report.seed,
        "n_trials": report.n_trials,
        "config": {line.split(" = ")[0]: line.split(" = ")[1]
                   for line in config_lines(report.config)},
        "columns": list(header),
        "rows": [[float(v) for v in row] for row in rows],
    }


def emit_json(report: ExperimentReport, destination) -> None:
    """Write the structured-object report as deterministic JSON."""
    _write(json.dumps(to_dict(report), indent=2) + "\n", destination)


def summarize(report: ExperimentReport) -> str:
    """One-paragraph digest with pass/fail verdicts for the run's claims."""
    payload = report.payload
    if isinstance(payload, CoverageCurve):
        if not payload.thresholds_db:
            return "no data"
        offenders = [
            t for t, cell, cl, ci_a, ci_b in zip(
                payload.thresholds_db, payload.cellular_prob, payload.cellless_prob,
                payload.cellular_ci95, payload.cellless_ci95)
            if cl < cell - (ci_a + ci_b)
        ]
        verdict = "PASS" if not offenders else "FAIL"
        max_ci = max(payload.cellular_ci95 + payload.cellless_ci95)
        text = (f"coverage over {len(payload.thresholds_db)} thresholds, "
                f"{payload.n_trials} trials, max CI half-width {max_ci:.4g}; "
                f"cell-less ≥ cellular at all thresholds: {verdict}")
        if offenders:
            text += " (at " + ", ".join(f"{t:g} dB" for t in offenders) + ")"
        return text + f"; completed in {report.duration_s:.2f} s."
    if isinstance(payload, BsEnergyCurve):
        if not payload.sleeping_counts or not payload.group_sizes:
            return "no data"
        label = "≥".join(f"k={k}" for k in payload.group_sizes)
        bad_s = []
        for si, s in enumerate(payload.sleeping_counts):
            if s == 0:
                continue  # every group size saves exactly nothing at s=0
            values = [payload.saving_fraction[k][si] for k in payload.group_sizes]
            if any(a <= b for a, b in zip(values, values[1:])):
                bad_s.append(s)
        order_verdict = "PASS" if not bad_s else "FAIL"
        rising = all(
            all(a < b for a, b in zip(payload.saving_fraction[k],
                                      payload.saving_fraction[k][1:]))
            for k in payload.group_sizes)
        mono_verdict = "PASS" if rising else "FAIL"
        max_ci = max(v for k in payload.group_sizes for v in payload.ci95[k])
        text = (f"BS energy saving over s={payload.sleeping_counts[0]}..."
                f"{payload.sleeping_counts[-1]}, {payload.n_trials} trials, "
                f"max CI half-width {max_ci:.4g}; "
                f"saving increasing in sleeping count: {mono_verdict}; "
                f"ordering {label}: {order_verdict}")
        if bad_s:
            text += " (at s=" + ", ".join(str(s) for s in bad_s) + ")"
        return text + f"; completed in {report.duration_s:.2f} s."
    if isinstance(payload, MtEnergyCurve):
        if not payload.group_sizes:
            return "no data"
        rising = all(a <= b for a, b in zip(payload.saving_fraction,
                                            payload.saving_fraction[1:]))
        mono_verdict = "PASS" if rising else "FAIL"
        zero_ok = all(v == 0.0 for n, v in zip(payload.group_sizes,
                                               payload.saving_fraction) if n == 1)
        zero_verdict = "PASS" if zero_ok else "FAIL"
        max_ci = max(payload.ci95)
        return (f"terminal energy saving over group sizes "
                f"{payload.group_sizes[0]}...{payload.group_sizes[-1]}, "
                f"{payload.n_trials} trials, max CI half-width {max_ci:.4g}; "
                f"saving non-decreasing in group size: {mono_verdict}; "
                f"zero saving at size 1: {zero_verdict}; "
                f"completed in {report.duration_s:.2f} s.")
    return "no data"
