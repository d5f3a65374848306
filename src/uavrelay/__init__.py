"""Cellular-network simulator and DP trajectory planner for a UAV relay."""

from .antenna import (AntennaMode, CrossedDipole, G_MAX, LinkGeometry, Omni,
                      backhaul_combined_gain, polarization_loss_factor, tx_gain)
from .config import ConfigError, RunConfig, from_json_dict, load_config
from .metrics import (RunMetrics, SweepResult, monte_carlo_sweep,
                      outage_probability, time_averaged_capacity)
from .pathloss import (BackhaulUmaAvModel, BuildingModel, FsplModel,
                       HataCoefficients, LinkModels, MplmModel, OhplmModel,
                       backhaul_path_loss, fspl, hata_coefficients,
                       hata_path_loss, los_probability, mixture_path_gain)
from .planner import (ActionSet, FeasibilityReport, StateGrid, Trajectory,
                      UnreachableFinishError, enumerate_paths,
                      feasibility_check, solve_dp)
from .radio import (AssociationSnapshot, AntennaSetup, LinkBudget, RewardMap,
                    associate, build_reward_map, build_reward_maps,
                    criterion_reward, relay_end_to_end_sir, stage_rates)
from .scenario import (Mission, PhysicalConfig, Scenario, generate_scenario,
                       t_min)
from .smoothing import (BezierCurve, SmoothedTrajectory, bernstein,
                        evaluate_smoothed, smooth)

__version__ = "0.1.0"
