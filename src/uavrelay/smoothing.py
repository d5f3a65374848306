"""Bezier smoothing of DP waypoint paths and their batched re-evaluation."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import output, radio
from .antenna import AntennaMode
from .planner import Trajectory
from .scenario import Scenario, rect_contains

# Curves share one de Casteljau block while it holds at most this many (level, sample)
# elements: its first, longest curve's control points times the samples of all its curves.
# A curve that alone holds more is a block of its own, and every block is updated in bands
# of at most this many elements per level. On a 2-core Xeon (numpy 2.4.6), one
# block of two same-degree curves beat two blocks by 1.2-1.6x up to 29 k elements, by
# 1.07x at 46 k, and lost (0.79x) at 81 k.
CHUNK_ELEMENTS = 2**15
# The most stages validate accepts for one curve. De Casteljau's time grows as the cube of
# the stage count: one 2000-stage curve takes about 11 s, and 13 s at the cap (2-core
# Xeon, numpy 2.4.6).
MAX_STAGES = 2047


def bezier_chunks(levels: Sequence[int], samples: Sequence[int]) -> list[list[int]]:
    """Curve indices grouped into de Casteljau blocks, longest curve first.

    Curve i has levels[i] control points and samples[i] parameters. Curves are
    taken by falling control-point count (stable), and each joins the current
    block while the block's first curve's levels times its samples stay within
    CHUNK_ELEMENTS.
    """
    chunks: list[list[int]] = []
    top = width = 0
    for i in sorted(range(len(levels)), key=lambda i: -levels[i]):
        if not chunks or top * (width + samples[i]) > CHUNK_ELEMENTS:
            chunks.append([])
            top, width = levels[i], 0
        chunks[-1].append(i)
        width += samples[i]
    return chunks


def _interpolate(controls: list[np.ndarray], params: list[np.ndarray]) -> np.ndarray:
    """(samples, 2) curve points of one chunk whose curves come longest first.

    The active curves' samples are the columns of one contiguous (levels,
    samples, 2) block, interpolated in place level by level from the longest
    curve's degree down. A curve of degree n joins the block at level n: the
    block's rows 0..n are copied out with the curve's control points beside
    them, so no level is computed for a curve that lacks it. Each level walks
    its rows in bands of at most CHUNK_ELEMENTS (level, sample) elements,
    from row 0 up, so a band reads the next band's first row before it is
    overwritten; a chunk within the floor is one band per level.
    """
    pts = np.empty((len(controls[0]), 0, 2))
    t = np.empty(0)
    joined = 0
    for k in range(len(controls[0]) - 1, -1, -1):
        if joined < len(controls) and len(controls[joined]) > k:
            parts, ts = [pts[:k + 1]], [t]
            while joined < len(controls) and len(controls[joined]) > k:
                parts.append(np.broadcast_to(controls[joined][:, None, :],
                                             (k + 1, params[joined].size, 2)))
                # each sample's t, once for x and once for y
                ts.append(np.repeat(params[joined], 2))
                joined += 1
            pts, t = np.concatenate(parts, axis=1), np.concatenate(ts)
            rows = pts.reshape(k + 1, -1)
            band = max(1, min(k, CHUNK_ELEMENTS // max(pts.shape[1], 1)))
            # written out, t and 1 - t make each band's operands one contiguous run, which
            # numpy walks in one inner loop instead of one per row; a band of a long
            # curve stays in cache where a written-out block would not
            t_band = np.broadcast_to(t, (band, t.size)).copy()
            u_band = np.broadcast_to(1.0 - t, (band, t.size)).copy()
            scaled = np.empty_like(t_band)
        for r in range(0, k, band):
            n = min(band, k - r)
            p = rows[r:r + n]
            np.multiply(t_band[:n], rows[r + 1:r + n + 1], out=scaled[:n])
            np.multiply(p, u_band[:n], out=p)
            np.add(p, scaled[:n], out=p)
    return pts[0]


def de_casteljau(controls: Sequence, params: Sequence) -> np.ndarray:
    """Points of many Bezier curves by repeated linear interpolation, stacked.

    controls[i] holds curve i's control points, (n_i + 1, 2), and params[i]
    its parameters t (any shape, flattened). Returns the (S, 2) points of every
    curve in input order, S being the total parameter count. The curves are
    evaluated in the blocks of bezier_chunks; every element gets exactly the
    (1 - t) * p + t * q of a level-by-level evaluation of its own curve, so a
    batch has the bits of its curves evaluated one at a time.
    """
    controls = [np.asarray(c, dtype=float).reshape(-1, 2) for c in controls]
    params = [np.asarray(t, dtype=float).reshape(-1) for t in params]
    if any(len(c) == 0 for c in controls):
        raise ValueError("a Bezier curve needs at least one control point")
    sizes = [t.size for t in params]
    starts = np.cumsum([0] + sizes)
    out = np.empty((starts[-1], 2))
    for chunk in bezier_chunks([len(c) for c in controls], sizes):
        rows = np.concatenate([np.arange(starts[i], starts[i + 1]) for i in chunk])
        out[rows] = _interpolate([controls[i] for i in chunk], [params[i] for i in chunk])
    return out


@dataclass(eq=False, frozen=True)
class SmoothedTrajectory:
    """A DP path smoothed by one global Bezier of the same degree.

    Curve parameter maps linearly to mission time, so clusters of hover
    waypoints compress arc length and the UAV slows down near them. Samples
    are taken at the N+1 stage times; speeds implied between samples are
    reported (speed_violations) but never repaired here. Frozen: positions and
    speeds are views of its SmoothedPaths' stacked arrays, so the one
    flight-area check of evaluate_smoothed covers every sample a curve holds.
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


class SmoothedPaths(tuple):
    """The SmoothedTrajectory of each trajectory of one smooth call, in order.

    positions stacks every curve's samples in that order, (S, 2); each
    curve's positions and speeds are views of the stacked arrays.
    """

    def __new__(cls, curves, positions: np.ndarray):
        paths = super().__new__(cls, curves)
        paths.positions = positions
        return paths


def smooth(trajs: Sequence[Trajectory], v_max: float | None = None) -> SmoothedPaths:
    """Fit each trajectory one Bezier with its DP waypoints as control points, and resample.

    De Casteljau's (1 - t) p + t q returns the start/finish exactly at t = 0
    and 1; interior samples live in the convex hull of the waypoints. All the
    curves are evaluated by one de_casteljau call and their speeds computed
    once over the stacked samples; each curve audits its own slice of them.
    """
    waypoints = [np.asarray(traj.positions, dtype=float) for traj in trajs]
    if any(w.shape[0] < 2 for w in waypoints):
        raise ValueError("need at least 2 waypoints to smooth")
    sizes = [w.shape[0] for w in waypoints]
    positions = de_casteljau(waypoints, [np.arange(n) / (n - 1) for n in sizes])
    dx, dy = np.diff(positions, axis=0).T
    # the step from a curve's last sample to the next curve's first lands in no slice
    speeds = np.sqrt(dx * dx + dy * dy) / np.repeat([traj.stage_dt for traj in trajs],
                                                    sizes)[:-1]
    curves, start = [], 0
    for traj, n in zip(trajs, sizes):
        own = speeds[start:start + n - 1]
        violations = [] if v_max is None else np.flatnonzero(own > v_max + 1e-9).tolist()
        curves.append(SmoothedTrajectory(positions=positions[start:start + n], speeds=own,
                                         speed_violations=violations, stage_dt=traj.stage_dt))
        start += n
    return SmoothedPaths(curves, positions)


def evaluate_smoothed(trajs: Sequence[Trajectory], smoothed: SmoothedPaths, scn: Scenario,
                      mode: str, uav_ue, antenna: AntennaMode
                      ) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-UE rate sums along each DP path and along its smoothed curve.

    trajs are the trajectories smoothed, in smoothed's order. Returns
    (discrete, smoothed), each one (K,) array per trajectory: its rates summed
    over its N stage starts (cell centres or smoothed samples, no grid
    snapping). Every smoothed sample is checked against the flight area. The
    starts are associated in radio's tiles, each distinct start of a tile
    once, and each row is added to its path's sum in stage order.
    """
    if len(trajs) != len(smoothed) or any(
            len(traj.positions) != len(sm.positions) for traj, sm in zip(trajs, smoothed)):
        raise ValueError("the trajectories do not pair with the smoothed curves")
    if not rect_contains(scn.mission.area_uav, smoothed.positions):
        raise ValueError("smoothed trajectory leaves the flight area")
    # the DP paths, then the curves; a path's or curve's last point starts no stage
    starts = [path.positions[:-1] for path in (*trajs, *smoothed)]
    points, k = np.concatenate(starts), scn.n_ue
    # each stage's first element in the flat (path, UE) sums
    first = np.repeat(np.arange(len(starts)) * k, [len(xy) for xy in starts])
    sums = np.zeros((len(starts), k))
    for run in radio._tiles(len(points), k + scn.n_mbs + 1):
        # each distinct start's row in the tile, by dict: np.unique maps 0.25 MiB more of numpy
        row: dict = {}
        index = [row.setdefault(xy, len(row)) for xy in map(tuple, points[run].tolist())]
        rates = radio.stage_rates(np.array(list(row)), scn, mode, uav_ue, antenna)
        # into a flat view: np.add.at walks a 1-D index several times faster than a 2-D one
        np.add.at(sums.ravel(), (first[run, None] + np.arange(k)).ravel(), rates[index].ravel())
    return list(sums[:len(trajs)]), list(sums[len(trajs):])
