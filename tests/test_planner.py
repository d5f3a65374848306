import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavrelay.planner import (ActionSet, StateGrid, UnreachableFinishError,
                              backward_pass, check_trajectory, min_stages, solve_dp)
from uavrelay.radio import RewardMap
from uavrelay.scenario import Mission

from oracles import enumerate_paths, min_stages_between

ACTIONS = ActionSet.standard(100.0, 8.0, 17.7)


def toy_grid(nx, ny, start, finish, n):
    return StateGrid(x0=0.0, y0=0.0, cell_m=100.0, nx=nx, ny=ny,
                     start_cell=start, finish_cell=finish, n_stages=n)


def toy_map(grid, rewards):
    rewards = np.asarray(rewards, dtype=float)
    return RewardMap(criterion="pf", xs=grid.axis_x(), ys=grid.axis_y(),
                     rewards=rewards, max_sir_db=np.zeros_like(rewards))


class TestActionSet:
    def test_standard_speeds(self):
        speeds = sorted({a.speed for a in ACTIONS})
        assert speeds[0] == 0.0
        assert speeds[1] == pytest.approx(12.5)
        assert speeds[2] == pytest.approx(100.0 * np.sqrt(2.0) / 8.0)
        assert all(a.speed <= 17.7 for a in ACTIONS)

    def test_lattice_exact_displacements(self):
        for a in ACTIONS:
            assert a.speed * 8.0 == pytest.approx(
                100.0 * np.hypot(a.dx, a.dy), rel=1e-12)

    def test_order_is_the_tie_break_order(self):
        names = [a.name for a in ACTIONS]
        assert names == ["hover", "E", "N", "W", "S", "NE", "NW", "SW", "SE"]

    def test_speed_cap_enforced(self):
        with pytest.raises(ValueError, match="exceeds v_max"):
            ActionSet.standard(cell_m=200.0, stage_dt=8.0, v_max=17.7)


class TestStateGrid:
    def test_from_default_mission(self):
        grid = StateGrid.from_mission(Mission())
        assert (grid.nx, grid.ny) == (13, 13)
        assert grid.start_cell == (1, 1)
        assert grid.finish_cell == (11, 11)
        assert grid.n_stages == 30
        assert grid.cell_xy((1, 1)) == (0.0, 0.0)
        assert grid.cell_xy((11, 11)) == (1000.0, 1000.0)

    def test_off_lattice_endpoint_rejected(self):
        with pytest.raises(ValueError, match="lattice"):
            StateGrid.from_mission(Mission(start=(37.0, 0.0)))


class TestSolveDp:
    def test_uniform_field_value_and_lex_first_actions(self):
        grid = toy_grid(3, 3, (0, 0), (2, 2), 4)
        rm = toy_map(grid, np.full((3, 3), 2.5))
        traj = solve_dp(rm, grid, ACTIONS)
        assert traj.value == pytest.approx(4 * 2.5)
        # lexicographically first optimum: hover while the finish stays in reach
        assert [a.name for a in traj.actions] == ["hover", "hover", "NE", "NE"]

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 40:
            nx, ny = rng.integers(2, 5, size=2)
            n = int(rng.integers(1, 7))
            start = (int(rng.integers(0, nx)), int(rng.integers(0, ny)))
            finish = (int(rng.integers(0, nx)), int(rng.integers(0, ny)))
            if max(abs(start[0] - finish[0]), abs(start[1] - finish[1])) > n:
                continue
            grid = toy_grid(int(nx), int(ny), start, finish, n)
            rm = toy_map(grid, rng.normal(size=(int(ny), int(nx))))
            a = solve_dp(rm, grid, ACTIONS)
            b = enumerate_paths(rm, grid, ACTIONS)
            assert a.value == b.value
            assert [x.name for x in a.actions] == [x.name for x in b.actions]
            checked += 1

    def test_constant_shift_leaves_argmax_invariant(self):
        rng = np.random.default_rng(11)
        grid = toy_grid(4, 4, (0, 0), (3, 2), 6)
        base = rng.normal(size=(4, 4))
        t1 = solve_dp(toy_map(grid, base), grid, ACTIONS)
        t2 = solve_dp(toy_map(grid, base + 10.0), grid, ACTIONS)
        assert t2.value == pytest.approx(t1.value + 6 * 10.0, rel=1e-12)
        assert [a.name for a in t1.actions] == [a.name for a in t2.actions]

    def test_endpoints_and_connectivity(self):
        rng = np.random.default_rng(13)
        grid = toy_grid(4, 3, (0, 2), (3, 0), 8)
        traj = solve_dp(toy_map(grid, rng.normal(size=(3, 4))), grid, ACTIONS)
        assert traj.cells[0] == (0, 2)
        assert traj.cells[-1] == (3, 0)
        assert check_trajectory(traj, grid, ACTIONS, 17.7) == []

    def test_unreachable_names_the_deficit(self):
        grid = toy_grid(5, 5, (0, 0), (4, 4), 2)
        with pytest.raises(UnreachableFinishError, match="needs 4 stages"):
            solve_dp(toy_map(grid, np.zeros((5, 5))), grid, ACTIONS)

    def test_more_stages_never_hurt_nonnegative_rewards(self):
        rng = np.random.default_rng(17)
        rewards = rng.uniform(0.0, 1.0, size=(4, 4))
        values = []
        for n in (6, 8, 10):
            grid = toy_grid(4, 4, (0, 0), (3, 3), n)
            values.append(solve_dp(toy_map(grid, rewards), grid, ACTIONS).value)
        assert values[0] <= values[1] <= values[2]

    def test_single_attraction_cell_gets_hover_stages(self):
        # one standout cell adjacent to the straight path and plenty of time
        grid = toy_grid(4, 4, (0, 0), (3, 3), 6)
        rewards = np.zeros((4, 4))
        rewards[2, 1] = 5.0  # cell (ix=1, iy=2)
        traj = solve_dp(toy_map(grid, rewards), grid, ACTIONS)
        oracle = enumerate_paths(toy_map(grid, rewards), grid, ACTIONS)
        assert traj.value == oracle.value
        hovers = [traj.cells[i] for i in traj.hover_stages()]
        assert len(hovers) > 0
        assert set(hovers) == {(1, 2)}

    def test_backtrack_off_the_finish_is_an_error(self):
        # a policy that only hovers never leaves the start, though its start value is
        # finite; the end-point check must not be an assert
        grid = toy_grid(3, 3, (0, 0), (2, 2), 2)
        hover_only = (np.zeros((2, 3, 3), dtype=np.int8), np.zeros(3))
        with pytest.raises(RuntimeError, match="not at the finish cell"):
            solve_dp(toy_map(grid, np.zeros((3, 3))), grid, ACTIONS, backward=hover_only)


def _solve_or_error(rm, grid, backward=None):
    try:
        return solve_dp(rm, grid, ACTIONS, backward=backward)
    except UnreachableFinishError as exc:
        return str(exc)


class TestBackwardPass:
    def test_one_pass_serves_every_horizon(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            nx, ny = (int(v) for v in rng.integers(1, 7, size=2))
            start = (int(rng.integers(0, nx)), int(rng.integers(0, ny)))
            finish = (int(rng.integers(0, nx)), int(rng.integers(0, ny)))
            n_max = int(rng.integers(1, 13))
            rewards = rng.normal(size=(ny, nx))
            longest = toy_grid(nx, ny, start, finish, n_max)
            rm = toy_map(longest, rewards)
            shared = backward_pass(rewards, longest, ACTIONS, n_max)
            for n in range(1, n_max + 1):
                grid = toy_grid(nx, ny, start, finish, n)
                fresh = _solve_or_error(rm, grid)
                reused = _solve_or_error(rm, grid, backward=shared)
                if isinstance(fresh, str):
                    # below the Chebyshev distance: the same diagnostic either way
                    assert n < max(abs(start[0] - finish[0]), abs(start[1] - finish[1]))
                    assert reused == fresh
                    continue
                assert reused.cells == fresh.cells
                assert [a.name for a in reused.actions] == [a.name for a in fresh.actions]
                assert np.array_equal(reused.stage_rewards, fresh.stage_rewards)
                assert reused.value == fresh.value

    def test_start_values_equal_the_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(12):
            nx, ny = (int(v) for v in rng.integers(1, 4, size=2))
            start = (int(rng.integers(0, nx)), int(rng.integers(0, ny)))
            finish = (int(rng.integers(0, nx)), int(rng.integers(0, ny)))
            rewards = rng.integers(-2, 3, size=(ny, nx)).astype(float)
            policy, start_values = backward_pass(
                rewards, toy_grid(nx, ny, start, finish, 5), ACTIONS, 5)
            assert policy.shape == (5, ny, nx) and policy.dtype == np.int8
            assert start_values.shape == (6,)
            for n in range(6):
                grid = toy_grid(nx, ny, start, finish, n)
                try:
                    value = enumerate_paths(toy_map(grid, rewards), grid, ACTIONS).value
                except UnreachableFinishError:
                    value = float("-inf")
                assert start_values[n] == value


@st.composite
def small_instances(draw):
    """A grid of at most 4 x 4 cells, any endpoints, horizon 0-5, integer rewards."""
    nx, ny = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cell = st.tuples(st.integers(0, nx - 1), st.integers(0, ny - 1))
    grid = toy_grid(nx, ny, draw(cell), draw(cell), draw(st.integers(0, 5)))
    # few distinct integer values make exact ties between paths common
    rewards = draw(st.lists(st.integers(-2, 2), min_size=nx * ny, max_size=nx * ny))
    return grid, np.array(rewards, dtype=float).reshape(ny, nx)


@settings(max_examples=150, deadline=None, database=None)
@given(small_instances())
def test_solve_dp_equals_enumerate_paths(instance):
    grid, rewards = instance
    rm = toy_map(grid, rewards)
    try:
        oracle = enumerate_paths(rm, grid, ACTIONS)
    except UnreachableFinishError:
        with pytest.raises(UnreachableFinishError):
            solve_dp(rm, grid, ACTIONS)
        return
    traj = solve_dp(rm, grid, ACTIONS)
    assert traj.cells == oracle.cells
    assert [a.name for a in traj.actions] == [a.name for a in oracle.actions]
    assert traj.value == oracle.value


class TestEnumeratePaths:
    def test_degenerate_horizon(self):
        grid = toy_grid(2, 2, (1, 1), (1, 1), 0)
        traj = enumerate_paths(toy_map(grid, np.ones((2, 2))), grid, ACTIONS)
        assert traj.actions == []
        assert traj.value == 0.0

    def test_two_by_two_hand_enumeration(self):
        # N=2 from (0,0) to (1,1): reward collected at stages 0 and 1
        grid = toy_grid(2, 2, (0, 0), (1, 1), 2)
        rewards = np.array([[1.0, 4.0], [2.0, 8.0]])
        traj = enumerate_paths(toy_map(grid, rewards), grid, ACTIONS)
        # best: NE to the 8-cell then hover = 1 + 8
        assert traj.value == pytest.approx(9.0)
        assert [a.name for a in traj.actions] == ["NE", "hover"]

    def test_search_bound_guard(self):
        grid = toy_grid(4, 4, (0, 0), (3, 3), 25)
        with pytest.raises(ValueError, match="max_states"):
            enumerate_paths(toy_map(grid, np.zeros((4, 4))), grid, ACTIONS,
                            max_states=10_000)

    def test_unreachable(self):
        grid = toy_grid(4, 4, (0, 0), (3, 3), 2)
        with pytest.raises(UnreachableFinishError):
            enumerate_paths(toy_map(grid, np.zeros((4, 4))), grid, ACTIONS)


class TestFeasibility:
    def test_diagonal_kilometer_needs_ten_stages(self):
        grid = StateGrid.from_mission(Mission())
        assert min_stages(grid, ACTIONS) == 10
        assert grid.n_stages == 30

    def test_start_equals_finish(self):
        mission = Mission(finish=(0.0, 0.0), duration_t=240.0)
        grid = StateGrid.from_mission(mission)
        assert min_stages(grid, ACTIONS) == 0

    def test_million_cell_wide_lattice_counts_at_once(self):
        grid = toy_grid(10**6, 2, (0, 1), (10**6 - 1, 0), 30)
        t0 = time.perf_counter()
        assert min_stages(grid, ACTIONS) == 10**6 - 1
        assert time.perf_counter() - t0 < 0.1

    def test_cardinal_moves_alone_are_refused(self):
        cardinal = ActionSet(tuple(a for a in ACTIONS if a.dx == 0 or a.dy == 0))
        with pytest.raises(ValueError, match="eight unit compass moves"):
            min_stages(toy_grid(3, 3, (0, 0), (2, 2), 4), cardinal)

    def test_bfs_matches_chebyshev_on_open_grid(self):
        grid = toy_grid(13, 13, (1, 1), (11, 11), 30)
        dist = min_stages_between(grid, ACTIONS, grid.finish_cell)
        for ix in range(13):
            for iy in range(13):
                assert dist[iy, ix] == max(abs(ix - 11), abs(iy - 11))


def test_trajectory_csv_round_trip(tmp_path):
    grid = toy_grid(3, 3, (0, 0), (2, 2), 4)
    traj = solve_dp(toy_map(grid, np.ones((3, 3))), grid, ACTIONS)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "stage,t_s,x_m,y_m,v_mps,heading_rad,stage_reward"
    assert len(lines) == 1 + 5  # N+1 rows
    jpath = tmp_path / "traj.json"
    traj.to_json(jpath)
    import json
    doc = json.loads(jpath.read_text())
    assert doc["value"] == traj.value
    assert len(doc["actions"]) == 4
