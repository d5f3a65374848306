import math

import numpy as np
import pytest
from scipy.spatial import Delaunay

from uavrelay import radio
from uavrelay.antenna import Omni
from uavrelay.pathloss import BackhaulUmaAvModel, LinkModels, OhplmModel
from uavrelay.planner import ActionSet, StateGrid, solve_dp
from uavrelay.radio import AntennaSetup
from uavrelay.scenario import Mission, PhysicalConfig, generate_scenario
from uavrelay.smoothing import de_casteljau, evaluate_smoothed, smooth

from oracles import BezierCurve, bernstein

OMNI = AntennaSetup(mbs=Omni(), uav=Omni())
MODELS = LinkModels(mbs_ue=OhplmModel(), uav_ue=OhplmModel())
ACTIONS = ActionSet.standard(100.0, 8.0, 17.7)


class TestBernstein:
    def test_linear_midpoint(self):
        assert bernstein(0, 1, 0.5) == 0.5

    def test_partition_of_unity_degree_24(self):
        for t in (0.0, 0.3, 0.7, 1.0):
            total = sum(bernstein(i, 24, t) for i in range(25))
            assert abs(total - 1.0) < 1e-12

    def test_symmetry_identity(self):
        for i in range(6):
            for t in (0.1, 0.4, 0.9):
                assert bernstein(i, 5, t) == pytest.approx(
                    bernstein(5 - i, 5, 1.0 - t), rel=1e-12)

    def test_nonnegative(self):
        for t in np.linspace(0, 1, 21):
            for i in range(8):
                assert bernstein(i, 7, float(t)) >= 0.0

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            bernstein(6, 5, 0.5)
        with pytest.raises(ValueError):
            bernstein(-1, 5, 0.5)

    def test_parameter_out_of_range(self):
        with pytest.raises(ValueError):
            bernstein(0, 3, 1.5)


class TestBezierCurve:
    def test_endpoint_interpolation_exact(self):
        rng = np.random.default_rng(0)
        control = rng.uniform(-500, 1500, size=(31, 2))
        curve = BezierCurve(control)
        assert np.array_equal(curve.point(0.0), control[0])
        assert np.array_equal(curve.point(1.0), control[-1])

    def test_de_casteljau_matches_bernstein_sum(self):
        rng = np.random.default_rng(1)
        control = rng.uniform(0, 100, size=(6, 2))
        curve = BezierCurve(control)
        for t in (0.2, 0.5, 0.8):
            direct = sum(bernstein(i, 5, t) * control[i] for i in range(6))
            assert np.allclose(curve.point(t), direct, rtol=1e-12)

    def test_samples_stay_in_convex_hull(self):
        rng = np.random.default_rng(2)
        control = rng.uniform(0, 1000, size=(12, 2))
        curve = BezierCurve(control)
        hull = Delaunay(control)
        pts = curve.points(np.linspace(0, 1, 101))
        assert np.all(hull.find_simplex(pts) >= 0)

    def test_needs_two_control_points(self):
        with pytest.raises(ValueError):
            BezierCurve(np.array([[0.0, 0.0]]))


def de_casteljau_by_levels(control, t):
    """The (..., 2)-layout de Casteljau the in-place kernel must match bit for bit."""
    t = np.asarray(t, dtype=float)[..., None]
    pts = np.asarray(control, dtype=float).reshape((-1,) + (1,) * (t.ndim - 1) + (2,))
    while pts.shape[0] > 1:
        pts = (1.0 - t) * pts[:-1] + t * pts[1:]
    return pts[0]


class TestDeCasteljau:
    @pytest.mark.parametrize("degree", [*range(1, 61), 300])
    def test_equals_the_level_by_level_oracle(self, degree):
        rng = np.random.default_rng(degree)
        control = rng.uniform(-500, 1500, size=(degree + 1, 2))
        samples = np.arange(degree + 1) / degree
        for t in (0.0, 1.0, float(rng.uniform()), samples,
                  rng.uniform(size=(3, 4)), rng.uniform(size=(0,))):
            got = de_casteljau(control, t)
            want = de_casteljau_by_levels(control, t)
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    def test_ends_are_the_end_control_points_exactly(self):
        rng = np.random.default_rng(19)
        steps = np.array([(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)])
        for _ in range(200):
            start = rng.integers(0, 13, 2)
            cells = start + np.cumsum(steps[rng.integers(0, 9, rng.integers(1, 60))], axis=0)
            control = 100.0 * np.vstack([start, cells]) + 50.0
            assert np.array_equal(de_casteljau(control, [0.0, 1.0]), control[[0, -1]])

    def test_result_owns_its_memory(self):
        control = np.random.default_rng(4).uniform(size=(41, 2))
        got = de_casteljau(control, np.linspace(0, 1, 41))
        assert got.base is None and got.flags.c_contiguous


def lattice_trajectory(cells, criterion="pf", stage_dt=8.0):
    from uavrelay.planner import GridAction, Trajectory

    grid = StateGrid.from_mission(Mission())
    positions = np.array([grid.cell_xy(c) for c in cells], dtype=float)
    acts = []
    for a, b in zip(cells[:-1], cells[1:]):
        dx, dy = b[0] - a[0], b[1] - a[1]
        speed = 100.0 * math.hypot(dx, dy) / stage_dt
        acts.append(GridAction("x", dx, dy, speed, 0.0))
    return Trajectory(criterion=criterion, stage_dt=stage_dt, cells=list(cells),
                      positions=positions, actions=acts,
                      stage_rewards=np.zeros(len(acts)), value=0.0)


class TestSmooth:
    def test_collinear_waypoints_stay_on_segment(self):
        cells = [(1, 1), (2, 2), (3, 3), (4, 4), (5, 5)]
        sm = smooth(lattice_trajectory(cells), v_max=17.7)
        assert np.allclose(sm.positions, lattice_trajectory(cells).positions,
                           atol=1e-9)
        assert sm.speed_violations == []

    def test_right_angle_corner_is_cut(self):
        cells = [(1, 1), (2, 1), (2, 2)]
        traj = lattice_trajectory(cells)
        sm = smooth(traj, v_max=17.7)
        mid = sm.positions[1]
        corner = traj.positions[1]
        assert np.linalg.norm(mid - corner) > 1.0  # pulled inside the corner
        hull = Delaunay(traj.positions)
        assert np.all(hull.find_simplex(sm.positions) >= 0)

    def test_affine_invariance(self):
        rng = np.random.default_rng(3)
        cells = [(1, 1)]
        for _ in range(8):
            dx, dy = rng.integers(-1, 2, size=2)
            cells.append((cells[-1][0] + int(dx), cells[-1][1] + int(dy)))
        traj = lattice_trajectory(cells)
        sm = smooth(traj)
        shifted = lattice_trajectory(cells)
        shifted.positions = shifted.positions + np.array([250.0, -125.0])
        sm2 = smooth(shifted)
        assert np.allclose(sm2.positions, sm.positions + np.array([250.0, -125.0]),
                           atol=1e-9)

    def test_dp_path_speeds_within_limit(self):
        scn = generate_scenario(PhysicalConfig(), Mission(), 272)
        grid = StateGrid.from_mission(Mission())
        rm = radio.build_reward_maps(scn, ("pf",), "standalone", MODELS, OMNI, grid)["pf"]
        traj = solve_dp(rm, grid, ACTIONS)
        sm = smooth(traj, v_max=17.7)
        assert sm.positions.shape[0] == traj.positions.shape[0]
        assert np.all(sm.speeds <= 17.7 + 1e-9)
        assert sm.speed_violations == []

    def test_rejects_single_waypoint(self):
        traj = lattice_trajectory([(1, 1), (2, 2)])
        traj.positions = traj.positions[:1]
        with pytest.raises(ValueError):
            smooth(traj)


class TestEvaluateSmoothed:
    def test_hover_only_path_identical_to_discrete(self):
        scn = generate_scenario(PhysicalConfig(lambda_ue=20.0), Mission(), 4)
        cells = [(5, 5)] * 7
        traj = lattice_trajectory(cells)
        sm = smooth(traj, v_max=17.7)
        [rates] = evaluate_smoothed([sm], scn, "standalone", MODELS, OMNI)
        rewards = radio.criterion_reward(rates, "pf")
        disc = radio.stage_rates(traj.positions[:-1], scn, "standalone", MODELS, OMNI)
        assert np.array_equal(rates, disc)
        assert rewards.shape == (6,)

    def test_straight_line_matches_discrete_exactly(self):
        scn = generate_scenario(PhysicalConfig(lambda_ue=20.0), Mission(), 5)
        cells = [(1 + i, 1 + i) for i in range(6)]
        traj = lattice_trajectory(cells)
        sm = smooth(traj, v_max=17.7)
        # uniformly spaced collinear control points sample back to the waypoints
        assert np.allclose(sm.positions, traj.positions, atol=1e-9)
        [rates] = evaluate_smoothed([sm], scn, "standalone", MODELS, OMNI)
        disc = radio.stage_rates(sm.positions[:-1], scn, "standalone", MODELS, OMNI)
        assert np.allclose(rates, disc, rtol=1e-12)

    def test_outside_flight_area_rejected(self):
        scn = generate_scenario(PhysicalConfig(lambda_ue=10.0), Mission(), 6)
        traj = lattice_trajectory([(1, 1), (2, 2), (3, 3)])
        sm = smooth(traj)
        sm.positions = sm.positions + 5000.0
        with pytest.raises(ValueError, match="flight area"):
            evaluate_smoothed([sm], scn, "standalone", MODELS, OMNI)

    @pytest.mark.parametrize("mode", radio.MODES)
    def test_batch_equals_per_trajectory_stage_rates(self, mode):
        scn = generate_scenario(PhysicalConfig(lambda_ue=20.0), Mission(), 7)
        grid = StateGrid.from_mission(Mission())
        models = LinkModels(mbs_ue=OhplmModel(), uav_ue=OhplmModel(),
                            backhaul=BackhaulUmaAvModel())
        rm = radio.build_reward_maps(scn, ("pf",), mode, models, OMNI, grid)["pf"]
        # horizons of different lengths, as the sweep batches its durations
        smoothed = [smooth(solve_dp(rm, StateGrid.from_mission(Mission(duration_t=t)),
                                    ACTIONS), v_max=17.7)
                    for t in (160.0, 240.0, 200.0)]
        batch = evaluate_smoothed(smoothed, scn, mode, models, OMNI)
        assert len(batch) == len(smoothed)
        for sm, rates in zip(smoothed, batch):
            single = radio.stage_rates(sm.positions[:-1], scn, mode, models, OMNI)
            assert np.array_equal(rates, single)

    def test_any_trajectory_outside_flight_area_rejected(self):
        scn = generate_scenario(PhysicalConfig(lambda_ue=10.0), Mission(), 6)
        inside = smooth(lattice_trajectory([(1, 1), (2, 2), (3, 3)]))
        outside = smooth(lattice_trajectory([(1, 1), (2, 2), (3, 3)]))
        outside.positions = outside.positions + 5000.0
        with pytest.raises(ValueError, match="flight area"):
            evaluate_smoothed([inside, outside], scn, "standalone", MODELS, OMNI)


def test_smoothed_csv(tmp_path):
    traj = lattice_trajectory([(1, 1), (2, 1), (2, 2), (3, 3)])
    sm = smooth(traj, v_max=17.7)
    path = tmp_path / "smooth.csv"
    sm.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t_s,x_m,y_m,v_mps"
    assert len(lines) == 1 + 4
