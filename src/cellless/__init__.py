"""Monte Carlo simulator of SDN-controlled cooperative cell-less networks."""

from .channel import (ChannelSample, LinkBudget, downlink_budget, downlink_sinr,
                      draw_fading, path_loss, sample_channel, spectral_efficiency,
                      uplink_joint_snr)
from .controller import (CoopGroup, form_group, group_rate, nearest_awake,
                         start_service, transition, transition_many)
from .errors import (BusyBs, CelllessError, ConfigError, DomainError, EmptyGroup,
                     IllegalTransition, InfeasibleConfig, IoFailure,
                     NoBsAvailable, PlacementFailure)
from .experiments import (BsEnergyCurve, CoverageCurve, MtEnergyCurve,
                          bs_energy_ledger, bs_energy_trial, coverage_instance,
                          coverage_trial, mt_energy_trial, oracle_min_group,
                          oracle_power_solve, run_bs_energy, run_coverage,
                          run_mt_energy, run_validation)
from .report import (ExperimentReport, config_hash, emit_csv, emit_json,
                     parse_csv, render_csv, summarize, to_dict)
from .scenario import (BsPowerState, Deployment, RandomStream, ScenarioConfig,
                       config_lines, generate_deployment, load_config,
                       nearest_candidates, total_power_mw)

__version__ = "0.1.0"
