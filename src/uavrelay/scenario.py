"""Network realizations: node placement, mission geometry, physical constants."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# (xmin, ymin, xmax, ymax) in meters
Rect = tuple[float, float, float, float]

# Rejection-resample guard for the zero-MBS case; at the default densities a
# single redraw is already rare.
MAX_MBS_REDRAWS = 100_000
# largest Poisson mean whose exp(-mean) start term stays a normal double
MAX_POISSON_MEAN = 700.0
# Transmit powers from 1 uW to 10 kW. Far outside this range (beyond about +-3000 dBm)
# 10**(p/10) overflows or the received power rounds to 0 mW. Well before that, a
# 140 dB gap between the two powers can let one received power swallow the
# interference sum it is part of, which makes its SIR infinite.
TX_POWER_DBM_RANGE = (-30.0, 70.0)
# Heights stay below the 20 km of stratospheric platforms; far above it the squared
# link distances overflow.
MAX_HEIGHT_M = 20_000.0


def area_km2(rect: Rect) -> float:
    xmin, ymin, xmax, ymax = rect
    return (xmax - xmin) * (ymax - ymin) / 1e6


def rect_contains(rect: Rect, xy, tol: float = 1e-9) -> bool:
    xy = np.asarray(xy, dtype=float).reshape(-1, 2)
    xmin, ymin, xmax, ymax = rect
    return bool(
        np.all(xy[:, 0] >= xmin - tol)
        and np.all(xy[:, 0] <= xmax + tol)
        and np.all(xy[:, 1] >= ymin - tol)
        and np.all(xy[:, 1] <= ymax + tol)
    )


def _check_rect(rect: Rect, name: str) -> None:
    xmin, ymin, xmax, ymax = rect
    # a positive extent can still have an area that rounds to 0 km^2
    if not (xmax > xmin and ymax > ymin and 0 < area_km2(rect) < math.inf):
        raise ValueError(f"{name} must have finite, positive extent and area, got {rect}")


@dataclass(frozen=True)
class PhysicalConfig:
    """Transmit powers, geometry heights and the UE density (downlink defaults);
    generate_scenario takes the expected MBS count of each draw as an argument."""

    p_mbs_dbm: float = 46.0
    p_uav_dbm: float = 30.0
    v_max: float = 17.7          # m/s
    h_uav: float = 120.0         # m
    h_bs: float = 30.0           # m
    h_ue: float = 2.0            # m
    f_c_mhz: float = 1500.0
    alpha_los: float = 2.09
    alpha_nlos: float = 3.75
    lambda_ue: float = 100.0     # nodes per km^2
    outage_threshold: float = 0.05  # bps/Hz

    def __post_init__(self) -> None:
        for name in self.__dataclass_fields__:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        lo, hi = TX_POWER_DBM_RANGE
        for name in ("p_mbs_dbm", "p_uav_dbm"):
            if not lo <= getattr(self, name) <= hi:
                raise ValueError(f"{name}={getattr(self, name)} must lie in [{lo}, {hi}] dBm")
        if self.v_max <= 0:
            raise ValueError("v_max must be positive")
        if not (self.h_uav > self.h_bs > self.h_ue > 0):
            raise ValueError("heights must satisfy h_uav > h_bs > h_ue > 0")
        if self.h_uav > MAX_HEIGHT_M:
            raise ValueError(f"h_uav={self.h_uav} m is above the {MAX_HEIGHT_M:g} m ceiling")
        if self.f_c_mhz <= 0:
            raise ValueError("f_c_mhz must be positive")
        if self.lambda_ue < 0:
            raise ValueError("lambda_ue must be >= 0")
        if self.alpha_los <= 0 or self.alpha_nlos <= 0:
            raise ValueError("path-loss exponents must be positive")
        if self.outage_threshold <= 0:
            raise ValueError("outage_threshold must be positive")


@dataclass(frozen=True)
class Mission:
    """Start/finish points, timing discretization and the two flight areas.

    The node area (area_ue) sits centered inside the larger UAV flight
    area (area_uav) by default, so the planner may overshoot the node
    square by one grid cell on every side.
    """

    start: tuple[float, float] = (0.0, 0.0)
    finish: tuple[float, float] = (1000.0, 1000.0)
    duration_t: float = 240.0    # s
    stage_dt: float = 8.0        # s
    area_ue: Rect = (0.0, 0.0, 1000.0, 1000.0)
    area_uav: Rect = (-100.0, -100.0, 1100.0, 1100.0)

    def __post_init__(self) -> None:
        if not 0 < self.stage_dt < math.inf:
            raise ValueError("stage_dt must be finite and positive")
        if not 0 < self.duration_t < math.inf:
            raise ValueError("duration_t must be finite and positive")
        n = self.duration_t / self.stage_dt
        if abs(n - round(n)) > 1e-9:
            raise ValueError(
                f"duration_t={self.duration_t} is not an integer multiple of "
                f"stage_dt={self.stage_dt}"
            )
        _check_rect(self.area_ue, "area_ue")
        _check_rect(self.area_uav, "area_uav")

    @property
    def n_stages(self) -> int:
        return round(self.duration_t / self.stage_dt)


@dataclass(eq=False)
class Scenario:
    """One frozen network realization. Treated as immutable once built."""

    config: PhysicalConfig
    mission: Mission
    mbs_xy: np.ndarray   # (M, 2) meters
    ue_xy: np.ndarray    # (K, 2) meters
    seed: int
    mbs_rejections: int = 0

    @property
    def n_mbs(self) -> int:
        return self.mbs_xy.shape[0]

    @property
    def n_ue(self) -> int:
        return self.ue_xy.shape[0]


def _uniform_in_rect(rng: np.random.Generator, rect: Rect, n: int) -> np.ndarray:
    xmin, ymin, xmax, ymax = rect
    return rng.uniform((xmin, ymin), (xmax, ymax), size=(n, 2))


def _poisson_icdf(mean: float, u: float) -> int:
    """Smallest k with Poisson(mean) CDF >= u, by direct summation."""
    if mean > MAX_POISSON_MEAN:
        raise ValueError(f"Poisson inversion supports means up to {MAX_POISSON_MEAN:g}")
    pmf = math.exp(-mean)
    cdf = pmf
    k = 0
    while cdf < u:
        k += 1
        pmf *= mean / k
        cdf += pmf
        if k > 1_000_000:  # unreachable for u < 1; guards degenerate input
            raise RuntimeError("Poisson inversion failed to converge")
    return k


def log_mbs_shortfall_chance(mean: float, min_mbs: int) -> float:
    """log of the chance that all MAX_MBS_REDRAWS + 1 Poisson(mean) draws are < min_mbs.

    The log CDF at min_mbs - 1, -mean + log(sum of mean**k / k! for k < min_mbs),
    keeps its digits for tiny means, where the CDF itself rounds to 1.
    """
    tail = sum(mean ** k / math.factorial(k) for k in range(1, min_mbs))
    return (MAX_MBS_REDRAWS + 1) * (math.log1p(tail) - mean)


def generate_scenario(config: PhysicalConfig, mission: Mission, seed: int,
                      n_mbs: float = 4.0, min_mbs: int = 1) -> Scenario:
    """Draw one homogeneous-PPP realization of MBS and UE positions.

    Counts are Poisson with means n_mbs (the expected MBS count over the node
    area) and lambda_ue * area (drawn by inverse-CDF from one uniform each),
    positions are uniform given the count. Randomness comes from four
    documented jumped() substreams of numpy's PCG64 keyed by the 64-bit seed
    (MBS count, MBS positions, UE count, UE positions), so a given seed
    reproduces the realization bit for bit on any platform, and two scenarios
    with the same seed but different n_mbs are coupled: the sparser MBS set
    is a prefix of the denser one and the UE layout is shared, which keeps
    density comparisons paired. A draw with fewer than min_mbs MBSs leaves the
    interference-limited model undefined and is redrawn (count recorded in
    mbs_rejections); relay pipelines need min_mbs=2 so the backhaul keeps an
    interferer. A zero-UE draw is kept. The draw reads only n_mbs, lambda_ue,
    the node area and the seed, so one realization serves every duration.
    """
    if min_mbs < 1:
        raise ValueError("min_mbs must be >= 1")
    # a mean of 0 would spend every redraw before it fails
    if not n_mbs > 0:
        raise ValueError(f"n_mbs={n_mbs} must be positive")

    root = np.random.PCG64(seed)
    rng_mbs_count = np.random.Generator(root)
    rng_mbs_pos = np.random.Generator(root.jumped(1))
    rng_ue_count = np.random.Generator(root.jumped(2))
    rng_ue_pos = np.random.Generator(root.jumped(3))
    area = area_km2(mission.area_ue)

    rejections = 0
    count = _poisson_icdf(n_mbs, rng_mbs_count.random())
    while count < min_mbs:
        rejections += 1
        if rejections > MAX_MBS_REDRAWS:
            raise RuntimeError("could not draw an acceptable MBS realization")
        count = _poisson_icdf(n_mbs, rng_mbs_count.random())
    mbs_xy = _uniform_in_rect(rng_mbs_pos, mission.area_ue, count)

    n_ue = _poisson_icdf(config.lambda_ue * area, rng_ue_count.random())
    ue_xy = _uniform_in_rect(rng_ue_pos, mission.area_ue, n_ue)

    return Scenario(
        config=config,
        mission=mission,
        mbs_xy=mbs_xy,
        ue_xy=ue_xy,
        seed=int(seed),
        mbs_rejections=rejections,
    )
