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
realization 0 at the showcase MBS count and duration: the run_realization
task of that realization, at durations that include the showcase duration,
also returns its showcase plan. A showcase that is not a sweep point is one
more such task, planned at that duration alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cache
from itertools import repeat

import numpy as np

from . import output, radio, smoothing
from .config import RunConfig
from .planner import ActionSet, StateGrid, backward_pass, check_trajectory, solve_dp
from .scenario import Scenario, generate_scenario

EVALUATIONS = ("discrete", "smoothed")
# glibc's mallopt parameters
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3


def time_averaged_capacity(rate_sums, n_stages: int, duration_t: float) -> np.ndarray:
    """Per-UE capacity (sum_i R_k(i) * dt) / T from each UE's rate sum over the N stages."""
    if n_stages < 1:
        raise ValueError("need at least one stage of per-UE rates")
    dt = duration_t / n_stages
    return np.asarray(rate_sums, dtype=float) * dt / duration_t


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
    # run_realization's showcase plan when the showcase point is a sweep point;
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


@cache
def _retain_heap() -> None:
    """Keep freed association planes in the heap, once per process.

    glibc's dynamic thresholds give a freed heap top back to the kernel after
    almost every radio.associate call, so the next call faults the same pages in
    again. Where libc exports mallopt (glibc), this pins both thresholds at the
    values that rule climbs to: an mmap threshold of 32 MiB (its
    DEFAULT_MMAP_THRESHOLD_MAX) and a trim threshold of twice that. Both, since
    setting either one turns the dynamic rule off: the trim threshold alone
    leaves every plane above the 128 KiB default mmapped, and a smaller mmap
    threshold mmaps the DP's per-stage argmax copy on fine grids.
    """
    import ctypes
    libc = ctypes.CDLL(None)
    if not hasattr(libc, "mallopt"):
        return
    mallopt = libc.mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, 32 * 2**20)
    mallopt(M_TRIM_THRESHOLD, 64 * 2**20)


def plan_combinations(cfg: RunConfig, scn: Scenario, t_values):
    """Yield (combination, grid, reward maps, runs, smoothed) per cfg.combinations() item.

    runs holds (T, criterion, trajectory, smoothed curve, violation count) in
    solve order: criterion first, then T. The maps serve every duration: nodes
    are static and the durations share the grid geometry. So does one backward
    DP pass per map, to the longest duration: the value-to-go with r stages
    left does not depend on T, and each duration backtracks from the same policy.
    Every trajectory of the combination is solved first, and then one
    smoothing.smooth call smooths them all: smoothed is its SmoothedPaths, whose
    curves are the runs' smoothed curves, in the same order. Those curves stay
    frozen views of smoothed.positions, so evaluate_smoothed's one flight-area
    check of the stacked samples covers every sample it evaluates.
    """
    _retain_heap()
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
        solved = []
        for criterion in cfg.criteria:
            backward = backward_pass(maps[criterion].rewards, grid, actions, n_max)
            for t, grid_t in zip(t_values, grids):
                traj = solve_dp(maps[criterion], grid_t, actions, stage_dt=stage_dt,
                                backward=backward)
                solved.append((t, criterion, traj,
                               len(check_trajectory(traj, grid_t, actions, v_max))))
            # freed before the next pass: peak memory is one longest-duration policy
            del backward
        smoothed = smoothing.smooth([traj for _, _, traj, _ in solved], v_max=v_max)
        runs = [(t, criterion, traj, sm, violations + len(sm.speed_violations))
                for (t, criterion, traj, violations), sm in zip(solved, smoothed, strict=True)]
        yield combination, grid, maps, runs, smoothed


def run_realization(cfg: RunConfig, t_values, n_mbs: float, j: int):
    """Full pipeline for one network realization at one MBS density.

    Returns (samples, trajectory_violations, mbs_rejections, showcase), where
    samples maps each sweep point's key (its KEY_COLUMNS values) to this
    realization's (mean capacity, outage). For the showcase realization (j 0 at
    showcase_n_mbs, showcase_t among t_values), showcase holds a (file tag, heat
    map, trajectory, smoothed curve) entry per combination and criterion at
    showcase_t, else it is None. A heat map is a copy of its reward map with the
    max_sir_map of its links and antennas, which serves both modes.
    """
    scn = scenario_for(cfg, n_mbs, j)
    samples: dict[tuple, tuple[float, float]] = {}
    violations = 0
    showcase = ([] if j == 0 and n_mbs == cfg.showcase_n_mbs and cfg.showcase_t in t_values
                else None)
    max_sir_maps: dict = {}  # by (uav_ue_model, antenna)
    for (model_name, antenna_name, mode, uav_ue, antenna), grid, maps, runs, smoothed in (
            plan_combinations(cfg, scn, t_values)):
        if showcase is not None:
            key = model_name, antenna_name
            if key not in max_sir_maps:
                max_sir_maps[key] = radio.max_sir_map(scn, uav_ue, antenna, grid)
            showcase += [(f"{criterion}_{mode}_{model_name}_{antenna_name}",
                          replace(maps[criterion], max_sir_db=max_sir_maps[key]), traj, sm)
                         for t, criterion, traj, sm, _ in runs if t == cfg.showcase_t]
        # one re-evaluation, in radio's tiles, sums every (T, criterion)'s rates both ways
        evaluated = smoothing.evaluate_smoothed([traj for _, _, traj, _, _ in runs], smoothed,
                                                scn, mode, uav_ue, antenna)
        for (t, criterion, traj, _, viol), *both in zip(runs, *evaluated, strict=True):
            violations += viol
            for evaluation, rate_sums in zip(EVALUATIONS, both):
                if scn.n_ue:
                    caps = time_averaged_capacity(rate_sums, traj.n_stages, t)
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
    at showcase_n_mbs returns its showcase plan, kept in SweepResult.showcase:
    the longest-duration DP pass gives every shorter duration the bits of a
    pass of its own.
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
    # run_realization's positional arguments, one column each, in task order
    tasks = (repeat(cfg), repeat(cfg.sweep_t), n_mbs_column,
             [j for _ in cfg.sweep_n_mbs for j in range(cfg.realizations)])
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
