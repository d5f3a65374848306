"""Backward dynamic programming over the discretized flight area.

States are grid cells held for one stage of duration stage_dt; the nine
actions are hover plus the eight compass moves that land exactly on a
neighboring cell. The stage reward is earned at the cell occupied during the
interval, and the endpoint constraint is encoded as a -inf terminal value
everywhere but the finish cell. backward_pass solves the recursion once to a
given stage count, and solve_dp backtracks any horizon up to it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import output
from .scenario import Mission, whole_steps

if TYPE_CHECKING:  # pragma: no cover
    from .radio import RewardMap

NEG_INF = float("-inf")


class UnreachableFinishError(ValueError):
    pass


@dataclass(frozen=True)
class GridAction:
    name: str
    dx: int
    dy: int
    speed: float        # m/s
    heading: float      # radians, CCW from +x

    @property
    def is_hover(self) -> bool:
        return self.dx == 0 and self.dy == 0


class ActionSet(tuple):
    """Hover plus eight 45-degree moves, in the fixed tie-break order."""

    @classmethod
    def standard(cls, cell_m: float = 100.0, stage_dt: float = 8.0,
                 v_max: float = 17.7) -> "ActionSet":
        v_card = cell_m / stage_dt
        # exact lattice value; Table-style 17.7 m/s is this rounded to 0.1
        v_diag = cell_m * math.sqrt(2.0) / stage_dt
        if v_diag > v_max + 1e-9:
            raise ValueError(
                f"diagonal speed {v_diag:.4f} m/s exceeds v_max={v_max} m/s "
                f"for cell={cell_m} m, dt={stage_dt} s"
            )
        q = math.pi / 2
        acts = (
            GridAction("hover", 0, 0, 0.0, 0.0),
            GridAction("E", 1, 0, v_card, 0.0),
            GridAction("N", 0, 1, v_card, q),
            GridAction("W", -1, 0, v_card, 2 * q),
            GridAction("S", 0, -1, v_card, 3 * q),
            GridAction("NE", 1, 1, v_diag, q / 2),
            GridAction("NW", -1, 1, v_diag, 3 * q / 2),
            GridAction("SW", -1, -1, v_diag, 5 * q / 2),
            GridAction("SE", 1, -1, v_diag, 7 * q / 2),
        )
        return cls(acts)


def _axis_cells(lo: float, hi: float, cell_m: float, name: str) -> int:
    span = hi - lo
    return whole_steps(span / cell_m,
                       f"{name} extent {span} m is not a multiple of {cell_m} m cells") + 1


@dataclass(frozen=True)
class StateGrid:
    """Cell lattice covering the flight area, plus mission anchoring."""

    x0: float
    y0: float
    cell_m: float
    nx: int
    ny: int
    start_cell: tuple[int, int]
    finish_cell: tuple[int, int]
    n_stages: int

    @classmethod
    def from_mission(cls, mission: Mission, cell_m: float = 100.0) -> "StateGrid":
        if not cell_m > 0:
            raise ValueError(f"cell_m={cell_m} m must be positive")
        x0, y0, x1, y1 = mission.area_uav
        nx = _axis_cells(x0, x1, cell_m, "area_uav x")
        ny = _axis_cells(y0, y1, cell_m, "area_uav y")
        start = cls._snap(mission.start, x0, y0, cell_m, nx, ny, "start")
        finish = cls._snap(mission.finish, x0, y0, cell_m, nx, ny, "finish")
        return cls(x0=x0, y0=y0, cell_m=cell_m, nx=nx, ny=ny,
                   start_cell=start, finish_cell=finish,
                   n_stages=mission.n_stages)

    @staticmethod
    def _snap(point, x0, y0, cell_m, nx, ny, name) -> tuple[int, int]:
        fx = (point[0] - x0) / cell_m
        fy = (point[1] - y0) / cell_m
        # a point within half a cell of an in-range index goes on to the lattice test
        if not (-0.5 < fx < nx - 0.5 and -0.5 < fy < ny - 0.5):
            raise ValueError(f"mission {name} {point} lies outside the flight area")
        off = f"mission {name} {point} is not on the grid lattice"
        return whole_steps(fx, off), whole_steps(fy, off)

    def axis_x(self) -> np.ndarray:
        return self.x0 + self.cell_m * np.arange(self.nx)

    def axis_y(self) -> np.ndarray:
        return self.y0 + self.cell_m * np.arange(self.ny)

    def centres(self, run: slice) -> np.ndarray:
        """(n, 2) centres of a run of cells in flat row order."""
        iy, ix = np.divmod(np.arange(run.start, run.stop), self.nx)
        return np.column_stack([self.axis_x()[ix], self.axis_y()[iy]])

    def cell_xy(self, cell: tuple[int, int]) -> tuple[float, float]:
        return (self.x0 + cell[0] * self.cell_m, self.y0 + cell[1] * self.cell_m)


_COMPASS = {(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)} - {(0, 0)}


def min_stages(grid: StateGrid, actions: ActionSet) -> int:
    """Fewest stages from the start cell to the finish cell, in O(1): max(|dx|, |dy|)."""
    moves = {(a.dx, a.dy) for a in actions if not a.is_hover}
    if moves != _COMPASS:
        raise ValueError(f"stage counts need the eight unit compass moves, got {sorted(moves)}")
    (sx, sy), (fx, fy) = grid.start_cell, grid.finish_cell
    return max(abs(sx - fx), abs(sy - fy))


@dataclass(eq=False)
class Trajectory:
    """A DP (or oracle) solution: N+1 cells, N actions, total value."""

    criterion: str
    stage_dt: float
    cells: list[tuple[int, int]]       # length N+1
    positions: np.ndarray              # (N+1, 2) meters
    actions: list[GridAction]          # length N
    stage_rewards: np.ndarray          # (N,)
    value: float

    @property
    def n_stages(self) -> int:
        return len(self.actions)

    def hover_stages(self) -> list[int]:
        return [i for i, a in enumerate(self.actions) if a.is_hover]

    def to_csv(self, path) -> None:
        moves = [(a.speed, a.heading, r) for a, r in zip(self.actions, self.stage_rewards)]
        moves.append((0.0, 0.0, 0.0))  # no move out of the finish position
        output.write_csv(path, ["stage", "t_s", "x_m", "y_m", "v_mps", "heading_rad",
                                "stage_reward"],
                         ((i, i * self.stage_dt, x, y, *moves[i])
                          for i, (x, y) in enumerate(self.positions)))

    def to_json_dict(self) -> dict:
        return {
            "criterion": self.criterion,
            "stage_dt": self.stage_dt,
            "value": self.value,
            "cells": [list(c) for c in self.cells],
            "positions": self.positions.tolist(),
            "actions": [a.name for a in self.actions],
            "stage_rewards": self.stage_rewards.tolist(),
        }

    def to_json(self, path) -> None:
        output.write_json(path, self.to_json_dict())


def _finish_trajectory(criterion, stage_dt, grid, reward, cells, acts, value) -> Trajectory:
    positions = np.array([grid.cell_xy(c) for c in cells], dtype=float)
    stage_rewards = np.array([reward[c[1], c[0]] for c in cells[:-1]], dtype=float)
    return Trajectory(criterion=criterion, stage_dt=stage_dt, cells=cells,
                      positions=positions, actions=acts,
                      stage_rewards=stage_rewards, value=value)


def backward_pass(rewards: np.ndarray, grid: StateGrid, actions: ActionSet,
                  n_stages: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact backward recursion J_r = reward + max_a J_{r-1}(cell + a), r = 1..n_stages.

    Returns (policy, start_values): policy[r-1] is the (ny, nx) int8 action
    index with r stages left, start_values[r] the start cell's value-to-go
    with r stages left. Neither depends on the mission duration, so one pass
    to the longest duration serves every shorter one.

    The value-to-go lives inside a -inf border as wide as the longest move,
    so each action's successor values are one fixed view of it. argmax over
    the views, in action order, returns the first maximum: ties resolve to
    the smallest action index, which makes the recovered action sequence the
    lexicographically first optimum.
    """
    ny, nx = rewards.shape
    b = max(max(abs(a.dx), abs(a.dy)) for a in actions)
    padded = np.full((1, ny + 2 * b, nx + 2 * b), NEG_INF)
    value = padded[0, b:b + ny, b:b + nx]
    value[grid.finish_cell[1], grid.finish_cell[0]] = 0.0
    # a leading axis of length 1 lets one concatenate fill the candidate buffer
    moves = [padded[:, b + a.dy:b + a.dy + ny, b + a.dx:b + a.dx + nx] for a in actions]
    cand = np.empty((len(moves), ny, nx))
    best = np.empty((ny, nx))
    policy = np.empty((n_stages, ny, nx), dtype=np.int8)
    start_values = np.empty(n_stages + 1)
    sx, sy = grid.start_cell
    start_values[0] = value[sy, sx]
    for r in range(n_stages):
        np.concatenate(moves, out=cand)
        cand.argmax(axis=0, out=policy[r])
        cand.max(axis=0, out=best)
        np.add(rewards, best, out=value)
        start_values[r + 1] = value[sy, sx]
    return policy, start_values


def solve_dp(reward_map: RewardMap, grid: StateGrid, actions: ActionSet,
             stage_dt: float = 8.0, backward=None) -> Trajectory:
    """The optimal grid.n_stages-stage trajectory, backtracked from a backward pass.

    `backward` is backward_pass's (policy, start_values) for this reward map
    and grid geometry to at least grid.n_stages stages; without one, the pass
    runs here. Stage i of the backtrack takes the action of policy[n-1-i].
    """
    n = grid.n_stages
    reward = reward_map.rewards
    if reward.shape != (grid.ny, grid.nx):
        raise ValueError("reward map shape does not match the grid")
    if backward is None:
        backward = backward_pass(reward, grid, actions, n)
    policy, start_values = backward

    start_value = float(start_values[n])
    if start_value == NEG_INF:
        need = min_stages(grid, actions)
        raise UnreachableFinishError(f"finish cell unreachable: needs {need} stages, "
                                     f"mission provides {n} (short by {need - n})")

    cells = [grid.start_cell]
    acts: list[GridAction] = []
    for i in range(n):
        ix, iy = cells[-1]
        act = actions[int(policy[n - 1 - i, iy, ix])]
        acts.append(act)
        cells.append((ix + act.dx, iy + act.dy))
    if cells[-1] != grid.finish_cell:
        raise RuntimeError(f"DP backtrack ended at {cells[-1]}, "
                           f"not at the finish cell {grid.finish_cell}")

    return _finish_trajectory(reward_map.criterion, stage_dt, grid, reward,
                              cells, acts, start_value)


def check_trajectory(traj: Trajectory, grid: StateGrid, actions: ActionSet,
                     v_max: float) -> list[str]:
    """Endpoint, connectivity and speed violations; empty list when clean."""
    problems = []
    if traj.cells[0] != grid.start_cell:
        problems.append("trajectory does not start at the mission start")
    if traj.cells[-1] != grid.finish_cell:
        problems.append("trajectory does not end at the mission finish")
    legal = {(a.dx, a.dy) for a in actions}
    for i, act in enumerate(traj.actions):
        step = (traj.cells[i + 1][0] - traj.cells[i][0],
                traj.cells[i + 1][1] - traj.cells[i][1])
        if step != (act.dx, act.dy) or step not in legal:
            problems.append(f"stage {i}: illegal transition {step}")
        if act.speed > v_max + 1e-9:
            problems.append(f"stage {i}: speed {act.speed} exceeds v_max {v_max}")
    return problems
