"""Monte Carlo simulator of SDN-controlled cooperative cell-less networks."""

import os

# No code path here calls BLAS or LAPACK, but numpy's bundled OpenBLAS
# (pthreads build) starts one worker per extra CPU when numpy is imported,
# and that worker busy-waits for about 80 ms of CPU in every command. One
# thread starts none. It must be set before the first import of numpy;
# setdefault keeps a value the user chose.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .channel import (ChannelSample, downlink_sinr, path_loss, sample_channel,
                      spectral_efficiency, uplink_joint_snr)
from .errors import (BusyBs, CelllessError, ConfigError, DomainError, EmptyGroup,
                     IllegalTransition, InfeasibleConfig, IoFailure,
                     NoBsAvailable, PlacementFailure)
# The controller, the scalar references, the oracles and the validation suites
# are not re-exported: the curve commands never run them, and importing them
# here would compile them on every start. Import them from cellless.controller
# and cellless.validation.
from .experiments import (BsEnergyCurve, CoverageCurve, MtEnergyCurve,
                          bs_energy_ledger, run_bs_energy, run_coverage,
                          run_mt_energy)
from .report import (ExperimentReport, config_hash, emit_csv, emit_json,
                     parse_csv, render_csv, summarize, to_dict)
from .scenario import (BsPowerState, Deployment, Placement, RandomStream, ScenarioConfig,
                       config_lines, generate_deployment, load_config,
                       nearest_candidates, total_power_mw)

__version__ = "0.1.0"
