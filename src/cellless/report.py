"""Deterministic report artifacts: CSV with a metadata header, a nested
JSON payload, and a one-paragraph verdict summary.

One table (:func:`_table`) holds a report's content: the metadata pairs
(experiment, config hash, seed, trial count, and for bs-energy the user
count), the column names and the rows. The experiment name comes from the
curve type. The CSV writes the pairs as '#'-prefixed lines, then the full
config echo, then one row per curve point, numbers at 9 significant
digits, '\\n' endings; the JSON writes the same pairs as top-level keys,
the config echo as ``config``, then ``columns`` and ``rows``. Identical
runs emit byte-identical files.
"""

import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

from .config import ScenarioConfig, config_lines
from .curves import BsEnergyCurve, CoverageCurve, MtEnergyCurve
from .errors import IoFailure


def config_hash(cfg: ScenarioConfig) -> str:
    """Digest of the canonical config echo; changes iff any field changes."""
    text = "\n".join(config_lines(cfg))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True)
class ExperimentReport:
    """One experiment's aggregated curve plus everything needed to rerun it."""

    config: ScenarioConfig
    payload: CoverageCurve | BsEnergyCurve | MtEnergyCurve
    duration_s: float = 0.0


def _fmt(value) -> str:
    """Numbers at 9 significant digits; integral values print without a dot."""
    if isinstance(value, bool):
        raise TypeError("not a numeric cell")
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".9g")


def _table(report: ExperimentReport) -> tuple:
    """(metadata pairs, column names, row tuples) of a report, sweep ascending."""
    payload = report.payload
    extra = []
    if isinstance(payload, CoverageCurve):
        name = "coverage"
        header = ("threshold_db", "cellular", "cellular_ci95",
                  "cellless", "cellless_ci95")
        rows = list(zip(payload.thresholds_db, payload.cellular_prob,
                        payload.cellular_ci95, payload.cellless_prob,
                        payload.cellless_ci95))
    elif isinstance(payload, BsEnergyCurve):
        name = "bs-energy"
        extra = [("n_users", payload.n_users)]
        header = ["sleeping_count"]
        for k in payload.group_sizes:
            header += [f"saving_k{k}", f"saving_k{k}_ci95"]
        rows = []
        for si, s in enumerate(payload.sleeping_counts):
            row = [s]
            for k in payload.group_sizes:
                row += [payload.saving_fraction[k][si], payload.ci95[k][si]]
            rows.append(tuple(row))
    elif isinstance(payload, MtEnergyCurve):
        name = "mt-energy"
        header = ("group_size", "saving", "saving_ci95")
        rows = list(zip(payload.group_sizes, payload.saving_fraction, payload.ci95))
    else:
        raise TypeError(f"unknown payload type {type(payload).__name__}")
    meta = [("experiment", name), ("config_hash", config_hash(report.config)),
            ("seed", report.config.seed), ("n_trials", payload.n_trials), *extra]
    return meta, header, rows


def render_csv(report: ExperimentReport) -> str:
    """The CSV text for a report; a pure function of its content."""
    meta, header, rows = _table(report)
    out = io.StringIO()
    for key, value in meta:
        out.write(f"# {key} = {value}\n")
    for line in config_lines(report.config):
        out.write(f"# config.{line}\n")
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
    meta, header, rows = _table(report)
    return {
        **dict(meta),
        "config": dict(line.split(" = ", 1) for line in config_lines(report.config)),
        "columns": list(header),
        "rows": [[float(v) for v in row] for row in rows],
    }


def emit_json(report: ExperimentReport, destination) -> None:
    """Write the structured-object report as deterministic JSON."""
    _write(json.dumps(to_dict(report), indent=2) + "\n", destination)


def summarize(report: ExperimentReport) -> str:
    """One-paragraph digest with pass/fail verdicts for the run's claims."""
    text = _verdicts(report.payload)
    return "no data" if text is None else f"{text}; completed in {report.duration_s:.2f} s."


def _verdicts(payload):
    """The claims a curve supports, with their verdicts; None for an empty curve."""
    if isinstance(payload, CoverageCurve):
        if not payload.thresholds_db:
            return None
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
        return text
    if isinstance(payload, BsEnergyCurve):
        if not payload.sleeping_counts or not payload.group_sizes:
            return None
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
        return text
    if isinstance(payload, MtEnergyCurve):
        if not payload.group_sizes:
            return None
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
                f"zero saving at size 1: {zero_verdict}")
    return None
