"""Time-averaged capacity, outage, and seeded Monte Carlo sweeps.

A sweep point is one (mission duration, expected MBS count) pair; for each
of the `realizations` seeds it runs the full pipeline (scenario, reward map,
DP, Bezier smoothing, per-UE capacities) for every configured combination of
criterion, mode, UAV-UE path-loss model and antenna setup, evaluating both
the discrete and the smoothed trajectory. Realization j uses seed
master_seed + j, so all combinations and all durations are paired on the
same networks, as are reruns.
"""
from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import radio, smoothing
from .config import RunConfig
from .planner import ActionSet, StateGrid, check_trajectory, solve_dp
from .scenario import generate_scenario

EVALUATIONS = ("discrete", "smoothed")


def time_averaged_capacity(stage_rates, duration_t: float) -> np.ndarray:
    """Per-UE capacity (sum_i R_k(i) * dt) / T over the N stage intervals."""
    rates = np.asarray(stage_rates, dtype=float)
    if rates.ndim != 2 or rates.shape[0] == 0:
        raise ValueError("need at least one stage of per-UE rates")
    dt = duration_t / rates.shape[0]
    return rates.sum(axis=0) * dt / duration_t


def outage_probability(capacities, threshold: float) -> float:
    """Fraction of UEs whose capacity is strictly below the threshold."""
    caps = np.asarray(capacities, dtype=float)
    if caps.size == 0:
        raise ValueError("outage undefined for an empty UE set")
    return float(np.count_nonzero(caps < threshold) / caps.size)


@dataclass(frozen=True)
class ComboKey:
    criterion: str
    mode: str
    uav_ue_model: str
    antenna: str


@dataclass(eq=False)
class RunMetrics:
    """Outcome of one realization for one combination and one evaluation."""

    seed: int
    t_s: float
    n_mbs: float
    combo: ComboKey
    evaluation: str
    per_ue_capacity: np.ndarray
    mean_capacity: float
    outage: float


@dataclass(eq=False)
class SweepPoint:
    t_s: float
    n_mbs: float
    combo: ComboKey
    evaluation: str
    capacity_samples: list[float]
    outage_samples: list[float]

    @staticmethod
    def _agg(samples: list[float]) -> tuple[float, float, int]:
        arr = np.asarray(samples, dtype=float)
        arr = arr[np.isfinite(arr)]
        if arr.size == 0:
            return float("nan"), float("nan"), 0
        mean = float(arr.mean())
        stderr = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
        return mean, stderr, int(arr.size)

    @property
    def capacity(self) -> tuple[float, float, int]:
        return self._agg(self.capacity_samples)

    @property
    def outage(self) -> tuple[float, float, int]:
        return self._agg(self.outage_samples)


CSV_COLUMNS = [
    "t_s", "n_mbs", "criterion", "mode", "uav_ue_model", "antenna", "evaluation",
    "mean_capacity_bps_hz", "stderr_capacity", "mean_outage", "stderr_outage",
    "n_realizations",
]


@dataclass(eq=False)
class SweepResult:
    points: list[SweepPoint]
    realizations: int
    trajectory_violations: int = 0
    mbs_rejections: int = 0

    def find(self, t_s=None, n_mbs=None, criterion=None, mode=None,
             uav_ue_model=None, antenna=None, evaluation=None) -> SweepPoint:
        hits = [
            p for p in self.points
            if (t_s is None or p.t_s == t_s)
            and (n_mbs is None or p.n_mbs == n_mbs)
            and (criterion is None or p.combo.criterion == criterion)
            and (mode is None or p.combo.mode == mode)
            and (uav_ue_model is None or p.combo.uav_ue_model == uav_ue_model)
            and (antenna is None or p.combo.antenna == antenna)
            and (evaluation is None or p.evaluation == evaluation)
        ]
        if len(hits) != 1:
            raise KeyError(f"{len(hits)} sweep points match the given tags")
        return hits[0]

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(CSV_COLUMNS)
            for p in self.points:
                cap, cap_se, n = p.capacity
                out, out_se, _ = p.outage
                w.writerow([
                    repr(float(p.t_s)), repr(float(p.n_mbs)),
                    p.combo.criterion, p.combo.mode, p.combo.uav_ue_model,
                    p.combo.antenna, p.evaluation,
                    repr(cap), repr(cap_se), repr(out), repr(out_se), n,
                ])

    def to_json_dict(self) -> dict:
        rows = []
        for p in self.points:
            cap, cap_se, n = p.capacity
            out, out_se, _ = p.outage
            rows.append({
                "t_s": p.t_s, "n_mbs": p.n_mbs,
                "criterion": p.combo.criterion, "mode": p.combo.mode,
                "uav_ue_model": p.combo.uav_ue_model, "antenna": p.combo.antenna,
                "evaluation": p.evaluation,
                "mean_capacity_bps_hz": cap, "stderr_capacity": cap_se,
                "mean_outage": out, "stderr_outage": out_se,
                "n_realizations": n,
                "capacity_samples": p.capacity_samples,
                "outage_samples": p.outage_samples,
            })
        return {
            "realizations": self.realizations,
            "trajectory_violations": self.trajectory_violations,
            "mbs_rejections": self.mbs_rejections,
            "points": rows,
        }


def realization_seed(master_seed: int, j: int) -> int:
    return master_seed + j


def run_realization(cfg: RunConfig, t_values, n_mbs: float, j: int):
    """Full pipeline for one network realization at one MBS density.

    Returns (list[RunMetrics], trajectory_violations, mbs_rejections). The
    reward map is reused across durations: nodes are static, so the map only
    depends on the network, the combination, and the grid geometry.
    """
    seed = realization_seed(cfg.master_seed, j)
    t_values = tuple(t_values)
    physical = cfg.physical_for(n_mbs)
    scn = generate_scenario(physical, cfg.mission_for(max(t_values)), seed,
                            min_mbs=cfg.min_mbs)
    actions = ActionSet.standard(cfg.cell_m, scn.mission.stage_dt, physical.v_max)

    # durations share the grid geometry and differ only in their stage count
    grids = {t: StateGrid.from_mission(cfg.mission_for(t), cfg.cell_m) for t in t_values}
    results: list[RunMetrics] = []
    violations = 0
    for model_name, antenna_name, mode, models, ants in cfg.combinations():
        maps = radio.build_reward_maps(scn, cfg.criteria, mode, models, ants,
                                       grids[t_values[0]], cfg.relay_rule)
        for t in t_values:
            grid = grids[t]
            for criterion in cfg.criteria:
                combo = ComboKey(criterion, mode, model_name, antenna_name)
                traj = solve_dp(maps[criterion], grid, actions,
                                stage_dt=scn.mission.stage_dt)
                violations += len(check_trajectory(traj, grid, actions, physical.v_max))
                sm = smoothing.smooth(traj, v_max=physical.v_max)
                violations += len(sm.speed_violations)

                # trajectory positions are cell centres: gather the map's rates
                disc_rates = maps[criterion].rates_at(traj.cells[:-1])
                _, sm_rates = smoothing.evaluate_smoothed(
                    sm, scn, criterion, mode, models, ants, cfg.relay_rule)
                for evaluation, rates in (("discrete", disc_rates),
                                          ("smoothed", sm_rates)):
                    if scn.n_ue:
                        caps = time_averaged_capacity(rates, t)
                        mean_cap = float(caps.mean())
                        outage = outage_probability(caps, physical.outage_threshold)
                    else:
                        caps = np.zeros(0)
                        mean_cap = float("nan")
                        outage = float("nan")
                    results.append(RunMetrics(
                        seed=seed, t_s=t, n_mbs=n_mbs, combo=combo,
                        evaluation=evaluation, per_ue_capacity=caps,
                        mean_capacity=mean_cap, outage=outage,
                    ))
    return results, violations, scn.mbs_rejections


def _realization_task(args):
    cfg, t_values, n_mbs, j = args
    return n_mbs, j, run_realization(cfg, t_values, n_mbs, j)


def monte_carlo_sweep(cfg: RunConfig, axes=None, criteria=None, modes=None,
                      realizations: int | None = None, jobs: int = 1) -> SweepResult:
    """Run the configured sweep; deterministic for a fixed master seed.

    Results are reduced in (n_mbs, realization) order regardless of worker
    scheduling, so outputs are byte-stable for any `jobs`.
    """
    if axes is not None:
        cfg = replace(cfg, sweep_t=tuple(axes["t_values"]),
                      sweep_n_mbs=tuple(axes["n_mbs_values"]))
    if criteria is not None:
        cfg = replace(cfg, criteria=tuple(criteria))
    if modes is not None:
        cfg = replace(cfg, modes=tuple(modes))
    if realizations is not None:
        cfg = replace(cfg, realizations=int(realizations))
    if cfg.realizations < 1:
        raise ValueError("realizations must be >= 1")

    tasks = [(cfg, cfg.sweep_t, n_mbs, j)
             for n_mbs in cfg.sweep_n_mbs
             for j in range(cfg.realizations)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            raw = list(pool.map(_realization_task, tasks))
    else:
        raw = [_realization_task(t) for t in tasks]
    raw.sort(key=lambda r: (cfg.sweep_n_mbs.index(r[0]), r[1]))

    samples: dict[tuple, SweepPoint] = {}
    violations = 0
    rejections = 0
    for n_mbs, j, (metrics_list, viol, rej) in raw:
        violations += viol
        rejections += rej
        for m in metrics_list:
            key = (m.t_s, m.n_mbs, m.combo, m.evaluation)
            if key not in samples:
                samples[key] = SweepPoint(t_s=m.t_s, n_mbs=m.n_mbs, combo=m.combo,
                                          evaluation=m.evaluation,
                                          capacity_samples=[], outage_samples=[])
            samples[key].capacity_samples.append(m.mean_capacity)
            samples[key].outage_samples.append(m.outage)

    def order(point: SweepPoint):
        c = point.combo
        return (cfg.sweep_t.index(point.t_s), cfg.sweep_n_mbs.index(point.n_mbs),
                cfg.uav_ue_models.index(c.uav_ue_model),
                cfg.antenna_modes.index(c.antenna), cfg.modes.index(c.mode),
                cfg.criteria.index(c.criterion), EVALUATIONS.index(point.evaluation))

    points = sorted(samples.values(), key=order)
    return SweepResult(points=points, realizations=cfg.realizations,
                       trajectory_violations=violations, mbs_rejections=rejections)
