"""Cellular-network simulator and DP trajectory planner for a UAV relay."""

from .antenna import AntennaMode, CrossedDipole, G_MAX, Omni, combined_gain
from .config import ConfigError, RunConfig, from_json_dict, load_config
from .metrics import (SweepResult, monte_carlo_sweep, outage_probability,
                      time_averaged_capacity)
from .pathloss import (BackhaulUmaAvModel, BuildingModel, FsplModel,
                       HataCoefficients, MplmModel, OhplmModel,
                       backhaul_path_loss, fspl, hata_coefficients,
                       hata_path_loss, los_probability, mixture_path_gain)
from .planner import (ActionSet, StateGrid, Trajectory, UnreachableFinishError,
                      min_stages, solve_dp)
from .radio import (AssociationSnapshot, RewardMap, associate,
                    build_reward_maps, criterion_reward, max_sir_map,
                    relay_end_to_end_sir, stage_rates)
from .scenario import Mission, PhysicalConfig, Scenario, generate_scenario
from .smoothing import SmoothedTrajectory, evaluate_smoothed, smooth

__version__ = "0.1.0"
