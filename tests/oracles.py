"""Reference implementations the tests check the package against.

No command runs these. Each is a brute-force or closed-form counterpart of a
package kernel: exhaustive path search for the DP, the Bernstein sum for de
Casteljau, a point-to-point link geometry for the batched UE-link gain, the
row-by-row loop for the LoS probability's building-row product, and the
interleaved-axis forms of the antenna gains and the link geometry, which the
package computes on coordinate planes with the same bits, and the
copyto(where=) running maximum over per-transmitter SIRs.
"""
import math
from dataclasses import dataclass

import numpy as np

from uavrelay.antenna import AntennaMode, Omni, ue_link_gain
from uavrelay.pathloss import BuildingModel
from uavrelay.planner import (NEG_INF, ActionSet, GridAction, StateGrid, Trajectory,
                              UnreachableFinishError, _finish_trajectory)
from uavrelay.radio import RewardMap, dbm_to_mw
from uavrelay.smoothing import de_casteljau


def min_stages_between(grid: StateGrid, actions: ActionSet,
                       source: tuple[int, int]) -> np.ndarray:
    """(ny, nx) stage counts from `source` to every cell: the Chebyshev distance."""
    iy, ix = np.ogrid[:grid.ny, :grid.nx]
    return np.maximum(np.abs(ix - source[0]), np.abs(iy - source[1]))


def enumerate_paths(reward_map: RewardMap, grid: StateGrid, actions: ActionSet,
                    max_states: int = 2_000_000, stage_dt: float = 8.0) -> Trajectory:
    """Exhaustive search over action sequences; exact but exponential.

    Prunes only on grid bounds and on reachability of the finish, never on
    value, and applies the same first-is-best tie rule as solve_dp. Stage
    sums are folded right-to-left so values match the recursion bit for bit.
    """
    n = grid.n_stages
    if len(actions) ** n > max_states:
        raise ValueError(
            f"search space {len(actions)}^{n} exceeds max_states={max_states}"
        )
    reward = reward_map.rewards
    dist = min_stages_between(grid, actions, grid.finish_cell)

    best: dict = {"value": NEG_INF, "acts": None, "cells": None}
    acts_buf: list[GridAction] = []
    cells_buf: list[tuple[int, int]] = [grid.start_cell]

    def rec(cell: tuple[int, int], stage: int) -> None:
        if dist[cell[1], cell[0]] > n - stage:
            return
        if stage == n:
            total = 0.0
            for c in reversed(cells_buf[:-1]):
                total = reward[c[1], c[0]] + total
            if total > best["value"]:
                best["value"] = total
                best["acts"] = list(acts_buf)
                best["cells"] = list(cells_buf)
            return
        for act in actions:
            jx, jy = cell[0] + act.dx, cell[1] + act.dy
            if not (0 <= jx < grid.nx and 0 <= jy < grid.ny):
                continue
            acts_buf.append(act)
            cells_buf.append((jx, jy))
            rec((jx, jy), stage + 1)
            acts_buf.pop()
            cells_buf.pop()

    rec(grid.start_cell, 0)
    if best["acts"] is None:
        raise UnreachableFinishError(
            f"finish cell unreachable within {n} stages"
        )
    return _finish_trajectory(reward_map.criterion, stage_dt, grid, reward,
                              best["cells"], best["acts"], best["value"])


def bernstein(i: int, n: int, t: float) -> float:
    """Bernstein weight C(n,i) (1-t)^(n-i) t^i; closed form, small n only."""
    if not 0 <= i <= n:
        raise ValueError(f"index i={i} outside 0..{n}")
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    return math.comb(n, i) * (1.0 - t) ** (n - i) * t ** i


def loop_los_probability(z, h_uav: float, h_ue: float,
                         building: BuildingModel | None = None):
    """los_probability with the building-row product taken one row at a time."""
    if h_uav <= 0 or h_ue <= 0 or h_uav <= h_ue:
        raise ValueError("heights must satisfy h_uav > h_ue > 0")
    bm = building or BuildingModel()
    z = np.asarray(z, dtype=float)
    if np.any(z < 0):
        raise ValueError("horizontal distance must be non-negative")

    m = np.floor(z * math.sqrt(bm.a_hat * bm.b_hat) / 1000.0 - 1.0).astype(int)
    ms = np.arange(-1, (int(m.max()) if m.size else -1) + 1)
    rows = np.maximum(ms, 0) + 1
    table = np.ones(ms.shape)
    dh = h_uav - h_ue
    two_c2 = 2.0 * bm.c_hat ** 2
    for n in range(0, int(ms[-1]) + 1):
        active = ms >= n
        h_ray = h_uav - (n + 0.5) * dh / rows
        # a no-op clip: the package leaves it out, and the tests require equal bits
        factor = np.clip(1.0 - np.exp(-(h_ray ** 2) / two_c2), 0.0, 1.0)
        table = np.where(active, table * factor, table)
    tau = table[m + 1]
    return tau if tau.ndim else float(tau)


@dataclass(eq=False)
class BezierCurve:
    """A Bezier curve over its control points, evaluated by the package's de_casteljau."""

    control: np.ndarray  # (n+1, 2)

    def __post_init__(self) -> None:
        self.control = np.asarray(self.control, dtype=float).reshape(-1, 2)
        if self.control.shape[0] < 2:
            raise ValueError("a Bezier curve needs at least 2 control points")

    def point(self, t: float) -> np.ndarray:
        return de_casteljau([self.control], [t]).reshape(np.shape(t) + (2,))

    def points(self, ts) -> np.ndarray:
        return de_casteljau([self.control], [ts]).reshape(np.shape(ts) + (2,))


@dataclass(frozen=True)
class LinkGeometry:
    tx_position: tuple[float, float, float]
    rx_position: tuple[float, float, float]
    tx_mode: AntennaMode = Omni()
    rx_mode: AntennaMode = Omni()


def tx_gain(geom: LinkGeometry) -> float:
    """Transmitter-side power gain for one link terminating at a UE."""
    d = np.asarray(geom.rx_position, dtype=float) - np.asarray(geom.tx_position, dtype=float)
    return float(ue_link_gain(*d, geom.tx_mode))


def on_planes(gain):
    """`gain` of the package, which takes direction planes, called on (..., 3) directions."""
    return lambda directions, *modes: gain(*np.moveaxis(np.asarray(directions), -1, 0), *modes)


# --- interleaved-axis forms: reductions over the last axis of (..., 2)/(..., 3)

def _unit(directions) -> np.ndarray:
    d = np.asarray(directions, dtype=float)
    norm = np.sqrt(np.sum(d * d, axis=-1, keepdims=True))
    if np.any(norm == 0):
        raise ValueError("zero-length link direction")
    return d / norm


def interleaved_radiation_gain(directions, mode: AntennaMode):
    u = _unit(directions)
    if isinstance(mode, Omni):
        out = np.ones(u.shape[:-1])
    else:
        out = 0.75 * (1.0 + u[..., 0] ** 2)
    return out if out.ndim else float(out)


def interleaved_ue_link_gain(directions, mode: AntennaMode):
    u = _unit(directions)
    if isinstance(mode, Omni):
        out = np.ones(u.shape[:-1])
    else:
        a2 = 1.0 - u[..., 2] ** 2
        c2 = (u[..., 1] * u[..., 2]) ** 2
        out = 0.75 * (a2 ** 2 + c2)
    return out if out.ndim else float(out)


def interleaved_combined_gain(directions, tx_mode: AntennaMode, rx_mode: AntennaMode):
    u = np.asarray(directions, dtype=float)
    return interleaved_radiation_gain(u, tx_mode) * interleaved_radiation_gain(-u, rx_mode)


def interleaved_received_mw(tx_xy, h_tx: float, rx_xy, h_rx: float, p_dbm: float, model,
                            f_c_mhz: float, gain=None) -> np.ndarray:
    """Received power (mW) with the ground distance as the norm of a (..., 2) block."""
    shape = np.broadcast_shapes(np.shape(tx_xy), np.shape(rx_xy))
    direction = np.empty(shape[:-1] + (3,))
    np.subtract(rx_xy, tx_xy, out=direction[..., :2])
    direction[..., 2] = h_rx - h_tx
    g = None if gain is None else gain(direction)
    z = np.linalg.norm(direction[..., :2], axis=-1)
    loss = model.loss_db(np.sqrt(z ** 2 + (h_tx - h_rx) ** 2), z, f_c_mhz=f_c_mhz,
                         h_tx=h_tx, h_rx=h_rx)
    p = dbm_to_mw(p_dbm) * 10.0 ** (-loss / 10.0)
    return p if g is None else p * g


# --- the best SIR as a running first maximum with np.copyto(where=)

def first_max(values):
    """(maximum, index) over a stream of equal-shaped arrays; a tie keeps the lowest index.

    The first array is updated in place into the maximum.
    """
    values = iter(values)
    best = next(values)
    index = np.zeros(best.shape, dtype=np.intp)
    for i, v in enumerate(values, start=1):
        better = v > best
        np.copyto(best, v, where=better)
        np.copyto(index, i, where=better)
    return best, index


def best_sir(powers, candidates: int | None = None):
    """(SIR, index) of the best of the first `candidates` broadcastable power arrays.

    The sum over all transmitters is np.sum over the last axis of their
    stacked block, and each SIR p / (total - p) is a fresh array.
    """
    total = np.sum(np.stack(np.broadcast_arrays(*powers), axis=-1), axis=-1)
    with np.errstate(divide="ignore"):
        return first_max(p / (total - p) for p in powers[:candidates])
