"""Time-averaged capacity, outage, and seeded Monte Carlo sweeps.

A sweep point is one value of the seven key columns of sweep.csv: mission
duration, expected MBS count, criterion, mode, UAV-UE path-loss model,
antenna setup and evaluation (discrete or smoothed trajectory). For each of
the `realizations` seeds at each expected MBS count, the full pipeline
(scenario, reward map, DP, Bezier smoothing, per-UE capacities) runs once
and adds one sample to every point at that count. Realization j uses seed
master_seed + j, so all combinations and all durations are paired on the
same networks, as are reruns.

The pipeline exists once: scenario_for draws a realization and
plan_combinations plans it (reward maps, DP, smoothing) per combination,
with one backward DP pass per reward map serving every duration.
run_realization adds the re-evaluation for the sweep. The showcase is
realization 0 at the showcase MBS count and duration: when that is a sweep
point, the sweep task that plans it also returns its showcase plan (a list
of showcase_entries), else plan_showcase plans it on its own at that
duration.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import repeat

import numpy as np

from . import output, radio, smoothing
from .config import RunConfig
from .planner import ActionSet, StateGrid, backward_pass, check_trajectory, solve_dp
from .scenario import Scenario, generate_scenario

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


@dataclass(eq=False)
class SweepPoint:
    # the sweep key: the leading sweep.csv columns, in their order
    t_s: float
    n_mbs: float
    criterion: str
    mode: str
    uav_ue_model: str
    antenna: str
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
KEY_COLUMNS = CSV_COLUMNS[:7]


@dataclass(eq=False)
class SweepResult:
    points: list[SweepPoint]
    realizations: int
    trajectory_violations: int = 0
    mbs_rejections: int = 0
    # realization 0's showcase plan when the showcase point is a sweep point;
    # not part of to_json_dict
    showcase: list | None = field(default=None, repr=False)

    def find(self, **tags) -> SweepPoint:
        """The one point whose key columns equal the given tags; None matches any value."""
        unknown = tags.keys() - KEY_COLUMNS
        if unknown:
            raise TypeError(f"find() got unknown tags {sorted(unknown)}")
        hits = [p for p in self.points
                if all(v is None or getattr(p, k) == v for k, v in tags.items())]
        if len(hits) != 1:
            raise KeyError(f"{len(hits)} sweep points match the given tags")
        return hits[0]

    def write(self, csv_path, json_path) -> None:
        """sweep.csv and sweep.json, both from one to_json_dict() document."""
        doc = self.to_json_dict()
        output.write_csv(csv_path, CSV_COLUMNS, ([row[c] for c in CSV_COLUMNS]
                                                 for row in doc["points"]))
        output.write_json(json_path, doc)

    def to_json_dict(self) -> dict:
        rows = []
        for p in self.points:
            cap, cap_se, n = p.capacity
            out, out_se, _ = p.outage
            cells = [getattr(p, c) for c in KEY_COLUMNS] + [cap, cap_se, out, out_se, n]
            rows.append({**dict(zip(CSV_COLUMNS, cells, strict=True)),
                         "capacity_samples": p.capacity_samples,
                         "outage_samples": p.outage_samples})
        return {
            "realizations": self.realizations,
            "trajectory_violations": self.trajectory_violations,
            "mbs_rejections": self.mbs_rejections,
            "points": rows,
        }


def realization_seed(master_seed: int, j: int) -> int:
    return master_seed + j


def scenario_for(cfg: RunConfig, n_mbs: float, j: int) -> Scenario:
    """Realization j at n_mbs; its nodes serve every mission duration."""
    return generate_scenario(cfg.physical, cfg.mission, realization_seed(cfg.master_seed, j),
                             n_mbs=n_mbs, min_mbs=cfg.min_mbs)


def plan_combinations(cfg: RunConfig, scn: Scenario, t_values):
    """Yield (combination, grid, reward maps, runs) per cfg.combinations() item.

    runs holds (T, criterion, trajectory, smoothed curve, violation count) in
    solve order: criterion first, then T. The maps serve every duration: nodes
    are static and the durations share the grid geometry. So does one backward
    DP pass per map, to the longest duration: the value-to-go with r stages
    left does not depend on T, and each duration backtracks from the same policy.
    """
    t_values = tuple(t_values)
    v_max = scn.config.v_max
    stage_dt = scn.mission.stage_dt
    actions = ActionSet.standard(cfg.cell_m, stage_dt, v_max)
    # durations share the grid geometry and differ only in their stage count
    grids = [StateGrid.from_mission(cfg.mission_for(t), cfg.cell_m) for t in t_values]
    grid = grids[0]
    n_max = max(g.n_stages for g in grids)
    for combination in cfg.combinations():
        _, _, mode, uav_ue, antenna = combination
        maps = radio.build_reward_maps(scn, cfg.criteria, mode, uav_ue, antenna, grid)
        runs = []
        for criterion in cfg.criteria:
            backward = backward_pass(maps[criterion].rewards, grid, actions, n_max)
            for t, grid_t in zip(t_values, grids):
                traj = solve_dp(maps[criterion], grid_t, actions, stage_dt=stage_dt,
                                backward=backward)
                violations = len(check_trajectory(traj, grid_t, actions, v_max))
                sm = smoothing.smooth(traj, v_max=v_max)
                runs.append((t, criterion, traj, sm, violations + len(sm.speed_violations)))
            # freed before the next pass: peak memory is one longest-duration policy
            del backward
        yield combination, grid, maps, runs


def showcase_entries(scn: Scenario, plan, t: float, max_sir_maps: dict) -> list:
    """One plan_combinations item's showcase at duration t: a (file tag, heat
    map, trajectory, smoothed curve) entry per criterion.

    The heat map is the criterion's reward map with max_sir_map's map and
    without per-UE rates, so entries are small enough to cross the process
    pool. max_sir_maps caches the SIR maps of scn by (uav_ue_model, antenna):
    the SIR probe depends on the links and antennas, not the mode.
    """
    (model_name, antenna_name, mode, uav_ue, antenna), grid, maps, runs = plan
    key = model_name, antenna_name
    if key not in max_sir_maps:
        max_sir_maps[key] = radio.max_sir_map(scn, uav_ue, antenna, grid)
    return [(f"{criterion}_{mode}_{model_name}_{antenna_name}",
             replace(maps[criterion], rates=None, max_sir_db=max_sir_maps[key]), traj, sm)
            for run_t, criterion, traj, sm, _ in runs if run_t == t]


def plan_showcase(cfg: RunConfig) -> list:
    """The showcase planned on its own: realization 0 at showcase_n_mbs, planned at
    (showcase_t,), as the showcase_entries of each combination in order."""
    scn = scenario_for(cfg, cfg.showcase_n_mbs, 0)
    max_sir_maps: dict = {}
    return [entry for plan in plan_combinations(cfg, scn, (cfg.showcase_t,))
            for entry in showcase_entries(scn, plan, cfg.showcase_t, max_sir_maps)]


def run_realization(cfg: RunConfig, t_values, n_mbs: float, j: int,
                    showcase_t: float | None = None):
    """Full pipeline for one network realization at one MBS density.

    Returns (samples, trajectory_violations, mbs_rejections, showcase), where
    samples maps each sweep point's key (its KEY_COLUMNS values) to this
    realization's (mean capacity, outage). showcase holds the
    showcase_entries of each combination at showcase_t, one of t_values, or
    is None without a showcase_t.
    """
    scn = scenario_for(cfg, n_mbs, j)
    samples: dict[tuple, tuple[float, float]] = {}
    violations = 0
    showcase = None if showcase_t is None else []
    max_sir_maps: dict = {}
    for plan in plan_combinations(cfg, scn, t_values):
        (model_name, antenna_name, mode, uav_ue, antenna), _, maps, runs = plan
        if showcase is not None:
            showcase += showcase_entries(scn, plan, showcase_t, max_sir_maps)
        # one association batch over the smoothed samples of every (T, criterion)
        sm_rates = smoothing.evaluate_smoothed([sm for _, _, _, sm, _ in runs], scn, mode,
                                               uav_ue, antenna)
        for (t, criterion, traj, _, viol), smoothed_rates in zip(runs, sm_rates, strict=True):
            violations += viol
            # trajectory positions are cell centres: gather the map's rates
            disc_rates = maps[criterion].rates_at(traj.cells[:-1])
            for evaluation, rates in (("discrete", disc_rates), ("smoothed", smoothed_rates)):
                if scn.n_ue:
                    caps = time_averaged_capacity(rates, t)
                    sample = (float(caps.mean()),
                              outage_probability(caps, scn.config.outage_threshold))
                else:
                    sample = (float("nan"), float("nan"))
                samples[t, n_mbs, criterion, mode, model_name, antenna_name,
                        evaluation] = sample
    return samples, violations, scn.mbs_rejections, showcase


def monte_carlo_sweep(cfg: RunConfig, jobs: int = 1) -> SweepResult:
    """Run the configured sweep; deterministic for a fixed master seed.

    Points are created in output order (T, n_mbs, combination, criterion,
    evaluation) and samples appended in (n_mbs, realization) task order,
    which `pool.map` keeps, so outputs are byte-stable for any `jobs`. When
    (showcase_n_mbs, showcase_t) is a sweep point, the task of realization 0
    at showcase_n_mbs also returns its showcase plan, kept in
    SweepResult.showcase: the longest-duration DP pass gives every shorter
    duration the bits of a pass of its own.
    """
    if cfg.realizations < 1:
        raise ValueError("realizations must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    keys = [(float(t), float(n_mbs), criterion, mode, model_name, antenna_name, evaluation)
            for t in cfg.sweep_t
            for n_mbs in cfg.sweep_n_mbs
            for model_name, antenna_name, mode, _, _ in cfg.combinations()
            for criterion in cfg.criteria
            for evaluation in EVALUATIONS]
    points = {key: SweepPoint(*key, capacity_samples=[], outage_samples=[]) for key in keys}

    n_mbs_column = [n_mbs for n_mbs in cfg.sweep_n_mbs for _ in range(cfg.realizations)]
    showcase_column = [None] * len(n_mbs_column)
    if cfg.showcase_t in cfg.sweep_t and cfg.showcase_n_mbs in cfg.sweep_n_mbs:
        showcase_column[n_mbs_column.index(cfg.showcase_n_mbs)] = cfg.showcase_t
    # run_realization's positional arguments, one column each, in task order
    tasks = (repeat(cfg), repeat(cfg.sweep_t), n_mbs_column,
             [j for _ in cfg.sweep_n_mbs for j in range(cfg.realizations)], showcase_column)
    # a worker per task at most: the pool starts all of its workers at once
    workers = min(jobs, len(n_mbs_column))
    if workers > 1:
        # imported here: the process pool costs serial runs import time and nothing else.
        # numpy loads numpy.random lazily, at the first draw; loaded before the fork,
        # the workers inherit it instead of each importing it again
        from concurrent.futures import ProcessPoolExecutor
        import numpy.random  # noqa: F401
        with ProcessPoolExecutor(max_workers=workers) as pool:
            raw = list(pool.map(run_realization, *tasks))
    else:
        raw = list(map(run_realization, *tasks))

    result = SweepResult(points=list(points.values()), realizations=cfg.realizations)
    for samples, viol, rej, showcase in raw:
        result.trajectory_violations += viol
        result.mbs_rejections += rej
        if showcase is not None:
            result.showcase = showcase
        for key, (capacity, outage) in samples.items():
            points[key].capacity_samples.append(capacity)
            points[key].outage_samples.append(outage)
    return result
