"""Backward dynamic programming over the discretized flight area.

States are grid cells held for one stage of duration stage_dt; the nine
actions are hover plus the eight compass moves that land exactly on a
neighboring cell. The stage reward is earned at the cell occupied during the
interval, and the endpoint constraint is encoded as a -inf terminal value
everywhere but the finish cell. enumerate_paths is the brute-force oracle
used to verify the recursion on small instances.
"""
from __future__ import annotations

import csv
import json
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .radio import RewardMap
from .scenario import Mission

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


@dataclass(frozen=True)
class ActionSet:
    """Hover plus eight 45-degree moves, in the fixed tie-break order."""

    actions: tuple[GridAction, ...]

    def __len__(self) -> int:
        return len(self.actions)

    def __iter__(self):
        return iter(self.actions)

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
        return cls(actions=acts)


def _axis_cells(lo: float, hi: float, cell_m: float, name: str) -> int:
    span = hi - lo
    n = span / cell_m
    if abs(n - round(n)) > 1e-9:
        raise ValueError(f"{name} extent {span} m is not a multiple of {cell_m} m cells")
    return round(n) + 1


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
        if abs(fx - round(fx)) > 1e-9 or abs(fy - round(fy)) > 1e-9:
            raise ValueError(f"mission {name} {point} is not on the grid lattice")
        ix, iy = round(fx), round(fy)
        if not (0 <= ix < nx and 0 <= iy < ny):
            raise ValueError(f"mission {name} {point} lies outside the flight area")
        return ix, iy

    def axis_x(self) -> np.ndarray:
        return self.x0 + self.cell_m * np.arange(self.nx)

    def axis_y(self) -> np.ndarray:
        return self.y0 + self.cell_m * np.arange(self.ny)

    def cell_xy(self, cell: tuple[int, int]) -> tuple[float, float]:
        return (self.x0 + cell[0] * self.cell_m, self.y0 + cell[1] * self.cell_m)

    def in_bounds(self, ix: int, iy: int) -> bool:
        return 0 <= ix < self.nx and 0 <= iy < self.ny


def min_stages_between(grid: StateGrid, actions: ActionSet,
                       source: tuple[int, int]) -> np.ndarray:
    """BFS stage counts from `source` to every cell under the action set."""
    dist = np.full((grid.ny, grid.nx), -1, dtype=int)
    dist[source[1], source[0]] = 0
    queue = deque([source])
    moves = [(a.dx, a.dy) for a in actions if not a.is_hover]
    while queue:
        ix, iy = queue.popleft()
        for dx, dy in moves:
            jx, jy = ix + dx, iy + dy
            if grid.in_bounds(jx, jy) and dist[jy, jx] < 0:
                dist[jy, jx] = dist[iy, ix] + 1
                queue.append((jx, jy))
    return dist


@dataclass(frozen=True)
class FeasibilityReport:
    min_stages: int
    available_stages: int

    @property
    def slack(self) -> int:
        return self.available_stages - self.min_stages

    @property
    def feasible(self) -> bool:
        return self.min_stages >= 0 and self.slack >= 0


def feasibility_check(mission: Mission, grid: StateGrid, actions: ActionSet) -> FeasibilityReport:
    """Stage budget: shortest action-path to the finish vs. available stages."""
    dist = min_stages_between(grid, actions, grid.finish_cell)
    need = int(dist[grid.start_cell[1], grid.start_cell[0]])
    return FeasibilityReport(min_stages=need, available_stages=mission.n_stages)


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
        with open(path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["stage", "t_s", "x_m", "y_m", "v_mps", "heading_rad", "stage_reward"])
            for i, (x, y) in enumerate(self.positions):
                if i < self.n_stages:
                    act = self.actions[i]
                    w.writerow([i, repr(i * self.stage_dt), repr(float(x)), repr(float(y)),
                                repr(act.speed), repr(act.heading),
                                repr(float(self.stage_rewards[i]))])
                else:
                    w.writerow([i, repr(i * self.stage_dt), repr(float(x)), repr(float(y)),
                                repr(0.0), repr(0.0), repr(0.0)])

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
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(self.to_json_dict(), fh, indent=1)
            fh.write("\n")


def _finish_trajectory(criterion, stage_dt, grid, reward, cells, acts, value) -> Trajectory:
    positions = np.array([grid.cell_xy(c) for c in cells], dtype=float)
    stage_rewards = np.array([reward[c[1], c[0]] for c in cells[:-1]], dtype=float)
    return Trajectory(criterion=criterion, stage_dt=stage_dt, cells=cells,
                      positions=positions, actions=acts,
                      stage_rewards=stage_rewards, value=value)


def solve_dp(reward_map: RewardMap, grid: StateGrid, actions: ActionSet,
             stage_dt: float = 8.0) -> Trajectory:
    """Exact backward recursion J_i = reward + max_a J_{i+1}(cell + a).

    The value-to-go lives inside a -inf border as wide as the longest move,
    so each action's successor values are one fixed view of it. argmax over
    the stacked views returns the first maximum: ties resolve to the
    smallest action index, which makes the recovered action sequence the
    lexicographically first optimum.
    """
    n = grid.n_stages
    reward = reward_map.rewards
    if reward.shape != (grid.ny, grid.nx):
        raise ValueError("reward map shape does not match the grid")

    ny, nx = reward.shape
    b = max(max(abs(a.dx), abs(a.dy)) for a in actions)
    padded = np.full((ny + 2 * b, nx + 2 * b), NEG_INF)
    value = padded[b:b + ny, b:b + nx]
    value[grid.finish_cell[1], grid.finish_cell[0]] = 0.0
    moves = [padded[b + a.dy:b + a.dy + ny, b + a.dx:b + a.dx + nx] for a in actions]
    policy = np.zeros((n, ny, nx), dtype=np.int8)

    for i in range(n - 1, -1, -1):
        cand = np.stack(moves)
        policy[i] = cand.argmax(axis=0)
        value[...] = reward + cand.max(axis=0)

    start_value = float(value[grid.start_cell[1], grid.start_cell[0]])
    if start_value == NEG_INF:
        dist = min_stages_between(grid, actions, grid.finish_cell)
        need = int(dist[grid.start_cell[1], grid.start_cell[0]])
        raise UnreachableFinishError(f"finish cell unreachable: needs {need} stages, "
                                     f"mission provides {n} (short by {need - n})")

    cells = [grid.start_cell]
    acts: list[GridAction] = []
    for i in range(n):
        ix, iy = cells[-1]
        act = actions.actions[int(policy[i, iy, ix])]
        acts.append(act)
        cells.append((ix + act.dx, iy + act.dy))
    if cells[-1] != grid.finish_cell:
        raise RuntimeError(f"DP backtrack ended at {cells[-1]}, "
                           f"not at the finish cell {grid.finish_cell}")

    return _finish_trajectory(reward_map.criterion, stage_dt, grid, reward,
                              cells, acts, start_value)


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
        d = dist[cell[1], cell[0]]
        if d < 0 or d > n - stage:
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
            if not grid.in_bounds(jx, jy):
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
