"""Bezier smoothing of DP waypoint paths and batched off-grid re-evaluation."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import output, radio
from .antenna import AntennaMode
from .planner import Trajectory
from .scenario import Scenario, rect_contains


def de_casteljau(control: np.ndarray, t) -> np.ndarray:
    """Curve points by repeated linear interpolation: t (...) -> points (..., 2).

    The control points are broadcast into a (levels, 2, samples) block with
    the samples on the last, contiguous axis, and each level is interpolated
    in place as (1 - t) * p + t * q.
    """
    t = np.asarray(t, dtype=float)
    samples = t.reshape(-1)
    control = np.asarray(control, dtype=float).reshape(-1, 2)
    pts = np.repeat(control[:, :, None], samples.size, axis=2)
    scaled = np.empty_like(pts[1:])
    one_minus_t = 1.0 - samples
    for k in range(pts.shape[0] - 1, 0, -1):
        np.multiply(samples, pts[1:k + 1], out=scaled[:k])
        pts[:k] *= one_minus_t
        pts[:k] += scaled[:k]
    # a copy, so the result does not hold the whole block
    return pts[0].T.reshape(t.shape + (2,)).copy()


@dataclass(eq=False)
class SmoothedTrajectory:
    """A DP path smoothed by one global Bezier of the same degree.

    Curve parameter maps linearly to mission time, so clusters of hover
    waypoints compress arc length and the UAV slows down near them. Samples
    are taken at the N+1 stage times; speeds implied between samples are
    reported (speed_violations) but never repaired here.
    """

    positions: np.ndarray      # (N+1, 2) meters
    speeds: np.ndarray         # (N,) m/s between consecutive samples
    speed_violations: list[int]
    stage_dt: float

    def to_csv(self, path) -> None:
        speeds = [*self.speeds, 0.0]  # no speed after the last sample
        output.write_csv(path, ["t_s", "x_m", "y_m", "v_mps"],
                         ((j * self.stage_dt, x, y, speeds[j])
                          for j, (x, y) in enumerate(self.positions)))


def smooth(traj: Trajectory, v_max: float | None = None) -> SmoothedTrajectory:
    """Fit one Bezier with the DP waypoints as control points and resample.

    De Casteljau's (1 - t) p + t q returns the start/finish exactly at t = 0
    and 1; interior samples live in the convex hull of the waypoints.
    """
    waypoints = np.asarray(traj.positions, dtype=float)
    if waypoints.shape[0] < 2:
        raise ValueError("need at least 2 waypoints to smooth")
    n = waypoints.shape[0] - 1
    positions = de_casteljau(waypoints, np.arange(n + 1) / n)
    dx, dy = np.diff(positions, axis=0).T
    speeds = np.sqrt(dx * dx + dy * dy) / traj.stage_dt
    violations = []
    if v_max is not None:
        violations = [int(j) for j in np.nonzero(speeds > v_max + 1e-9)[0]]
    return SmoothedTrajectory(positions=positions, speeds=speeds,
                              speed_violations=violations, stage_dt=traj.stage_dt)


def evaluate_smoothed(smoothed: list[SmoothedTrajectory], scn: Scenario, mode: str,
                      uav_ue, antenna: AntennaMode) -> list[np.ndarray]:
    """Per-UE rates along each smoothed trajectory; one (N, K) array per trajectory.

    Every sampled position of every trajectory is re-associated in one
    batch. Positions are taken at the start of each stage interval, matching
    the discrete-path convention, with no grid snapping.
    """
    starts = []
    for sm in smoothed:
        if not rect_contains(scn.mission.area_uav, sm.positions):
            raise ValueError("smoothed trajectory leaves the flight area")
        starts.append(sm.positions[:-1])
    rates = radio.stage_rates(np.concatenate(starts), scn, mode, uav_ue, antenna)
    return np.split(rates, np.cumsum([len(s) for s in starts[:-1]]))
