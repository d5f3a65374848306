"""Cellular-network simulator and DP trajectory planner for a UAV relay."""

from .antenna import (AntennaMode, CrossedDipole, G_MAX, LinkGeometry, Omni,
                      combined_gain, polarization_loss_factor, tx_gain)
from .config import ConfigError, RunConfig, from_json_dict, load_config
from .metrics import (SweepResult, monte_carlo_sweep, outage_probability,
                      time_averaged_capacity)
from .pathloss import (BackhaulUmaAvModel, BuildingModel, FsplModel,
                       HataCoefficients, LinkModels, MplmModel, OhplmModel,
                       backhaul_path_loss, fspl, hata_coefficients,
                       hata_path_loss, los_probability, mixture_path_gain)
from .planner import (ActionSet, StateGrid, Trajectory, UnreachableFinishError,
                      enumerate_paths, min_stages, solve_dp)
from .radio import (AssociationSnapshot, AntennaSetup, RewardMap, associate,
                    build_reward_maps, criterion_reward, max_sir_map,
                    relay_end_to_end_sir, stage_rates)
from .scenario import (Mission, PhysicalConfig, Scenario, generate_scenario,
                       t_min)
from .smoothing import (BezierCurve, SmoothedTrajectory, bernstein,
                        evaluate_smoothed, smooth)

__version__ = "0.1.0"
