"""Monte Carlo simulator of SDN-controlled cooperative cell-less networks."""

import importlib
import os

# No code path here calls BLAS or LAPACK, but numpy's bundled OpenBLAS
# (pthreads build) starts one worker per extra CPU when numpy is imported,
# and that worker busy-waits for about 80 ms of CPU in every command. One
# thread starts none. It must be set before the first import of numpy;
# setdefault keeps a value the user chose.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# Each public name and the module that defines it. A name is imported on
# first access (PEP 562), so `import cellless` loads no numpy; a name from
# channel or scenario loads it. The controller, the scalar references, the
# oracles and the validation suites are not listed: import them from
# cellless.controller and cellless.validation.
_EXPORTS = {
    **dict.fromkeys(("ChannelSample", "downlink_sinr", "path_loss", "sample_channel",
                     "spectral_efficiency", "uplink_joint_snr"), "channel"),
    **dict.fromkeys(("BsPowerState", "ScenarioConfig", "config_lines", "load_config"),
                    "config"),
    **dict.fromkeys(("BsEnergyCurve", "CoverageCurve", "MtEnergyCurve", "bs_energy_ledger",
                     "run_bs_energy", "run_coverage", "run_mt_energy"), "curves"),
    **dict.fromkeys(("BusyBs", "CelllessError", "ConfigError", "DomainError", "EmptyGroup",
                     "IllegalTransition", "InfeasibleConfig", "IoFailure", "NoBsAvailable",
                     "PlacementFailure"), "errors"),
    **dict.fromkeys(("ExperimentReport", "config_hash", "emit_csv", "emit_json", "parse_csv",
                     "render_csv", "summarize", "to_dict"), "report"),
    **dict.fromkeys(("Deployment", "Placement", "RandomStream", "generate_deployment",
                     "nearest_candidates", "total_power_mw"), "scenario"),
}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value     # later lookups skip this function
    return value
