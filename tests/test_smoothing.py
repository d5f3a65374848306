import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial import Delaunay

from uavrelay import radio, smoothing
from uavrelay.antenna import Omni
from uavrelay.pathloss import OhplmModel
from uavrelay.planner import ActionSet, StateGrid, solve_dp
from uavrelay.scenario import Mission, PhysicalConfig, generate_scenario
from uavrelay.smoothing import bezier_chunks, de_casteljau, evaluate_smoothed, smooth

from oracles import BezierCurve, bernstein

OMNI = Omni()
OHPLM = OhplmModel()
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
            got = de_casteljau([control], [t]).reshape(np.shape(t) + (2,))
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
            assert np.array_equal(de_casteljau([control], [[0.0, 1.0]]), control[[0, -1]])

    def test_result_owns_its_memory(self):
        control = np.random.default_rng(4).uniform(size=(41, 2))
        got = de_casteljau([control], [np.linspace(0, 1, 41)])
        assert got.base is None and got.flags.c_contiguous

    @pytest.mark.parametrize("seed", range(24))
    def test_batch_equals_the_level_by_level_oracle(self, seed):
        """Mixed degrees 1-60 (and 300), repeats, empty parameter arrays; each
        parametrized single-degree case above is a batch of one."""
        rng = np.random.default_rng(seed)
        degrees = [int(n) for n in rng.integers(1, 61, rng.integers(1, 9))]
        degrees += degrees[:rng.integers(0, 3)]  # repeated degrees
        if seed % 6 == 0:
            degrees.append(300)
        rng.shuffle(degrees)
        controls = [rng.uniform(-500, 1500, size=(n + 1, 2)) for n in degrees]
        params = [np.arange(n + 1) / n if rng.uniform() < 0.5
                  else rng.uniform(size=rng.integers(0, 40)) for n in degrees]
        params[rng.integers(len(params))] = rng.uniform(size=(0,))
        got = de_casteljau(controls, params)
        want = np.concatenate([de_casteljau_by_levels(c, t) for c, t in zip(controls, params)])
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    def test_one_control_point_is_a_constant_curve(self):
        control = np.array([[3.0, -4.0]])
        line = np.array([[0.0, 0.0], [1.0, 2.0]])
        got = de_casteljau([control, line], [[0.0, 0.5, 1.0], [0.5]])
        assert np.array_equal(got, [[3.0, -4.0]] * 3 + [[0.5, 1.0]])
        with pytest.raises(ValueError, match="control point"):
            de_casteljau([np.empty((0, 2))], [[0.5]])


def random_walk_controls(rng, degrees):
    return [100.0 * np.cumsum(rng.integers(-1, 2, size=(n + 1, 2)), axis=0) for n in degrees]


class TestChunks:
    @pytest.mark.parametrize("floor", [0, 10**12])
    def test_floor_does_not_move_the_bits(self, monkeypatch, floor):
        """Every curve alone, walked in one-row bands, or all in one chunk."""
        rng = np.random.default_rng(23)
        degrees = [10, 15, 20, 30, 40, 40, 7, 150]
        controls = random_walk_controls(rng, degrees)
        params = [np.arange(n + 1) / n for n in degrees]
        want = de_casteljau(controls, params)
        monkeypatch.setattr(smoothing, "CHUNK_ELEMENTS", floor)
        chunks = bezier_chunks([n + 1 for n in degrees], [n + 1 for n in degrees])
        assert len(chunks) == (len(degrees) if floor == 0 else 1)
        assert np.array_equal(de_casteljau(controls, params), want)

    def test_curves_are_chunked_greedily_longest_first(self, monkeypatch):
        monkeypatch.setattr(smoothing, "CHUNK_ELEMENTS", 2**14)
        # fig7's five durations fit one chunk: 41 x 120 = 4920 elements
        assert bezier_chunks([11, 16, 21, 31, 41], [11, 16, 21, 31, 41]) == [[4, 3, 2, 1, 0]]
        # 201 x 201 elements exceed the floor: that curve is a chunk of its own
        assert bezier_chunks([11, 201, 41], [11, 201, 41]) == [[1], [2, 0]]
        # 81 x 162 elements fit, 81 x 203 do not; equal lengths keep their order
        assert bezier_chunks([81, 41, 81], [81, 41, 81]) == [[0, 2], [1]]

    @pytest.mark.parametrize("stages", [180, 400])
    def test_a_lone_curve_holds_one_block_and_three_bands(self, stages):
        """180 stages fill a chunk (181 x 181 elements), one band per level; 400 are
        a chunk of their own, walked in bands of 81 rows."""
        control = random_walk_controls(np.random.default_rng(stages), [stages])
        params = [np.arange(stages + 1) / stages]
        tracemalloc.start()
        try:
            de_casteljau(control, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the (N+1, N+1, 2) float64 block of levels, then t, 1 - t and the t-scaled
        # rows as bands, plus a few (N+1, 2) rows: the output, t and the controls
        row = 16 * (stages + 1)
        band = min(stages, smoothing.CHUNK_ELEMENTS // (stages + 1))
        assert peak <= (stages + 1) * row + 3 * band * row + 8 * row


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
        [sm] = smooth([lattice_trajectory(cells)], v_max=17.7)
        assert np.allclose(sm.positions, lattice_trajectory(cells).positions,
                           atol=1e-9)
        assert sm.speed_violations == []

    def test_right_angle_corner_is_cut(self):
        cells = [(1, 1), (2, 1), (2, 2)]
        traj = lattice_trajectory(cells)
        [sm] = smooth([traj], v_max=17.7)
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
        [sm] = smooth([traj])
        shifted = lattice_trajectory(cells)
        shifted.positions = shifted.positions + np.array([250.0, -125.0])
        [sm2] = smooth([shifted])
        assert np.allclose(sm2.positions, sm.positions + np.array([250.0, -125.0]),
                           atol=1e-9)

    def test_dp_path_speeds_within_limit(self):
        scn = generate_scenario(PhysicalConfig(), Mission(), 272)
        grid = StateGrid.from_mission(Mission())
        rm = radio.build_reward_maps(scn, ("pf",), "standalone", OHPLM, OMNI, grid)["pf"]
        traj = solve_dp(rm, grid, ACTIONS)
        [sm] = smooth([traj], v_max=17.7)
        assert sm.positions.shape[0] == traj.positions.shape[0]
        assert np.all(sm.speeds <= 17.7 + 1e-9)
        assert sm.speed_violations == []

    @pytest.mark.parametrize("v_max", [None, 17.7, 9.0])
    def test_batch_equals_smoothing_each_trajectory_alone(self, v_max):
        rng = np.random.default_rng(41)
        steps = np.array([(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)])
        trajs = []
        for n in (5, 30, 12, 30, 1, 40, 12):
            start = rng.integers(0, 13, 2)
            cells = start + np.cumsum(steps[rng.integers(0, 9, n)], axis=0)
            cells = [tuple(int(v) for v in c) for c in np.vstack([start, cells])]
            trajs.append(lattice_trajectory(cells, stage_dt=float(rng.choice([4.0, 8.0]))))
        paths = smooth(trajs, v_max=v_max)
        assert len(paths) == len(trajs)
        assert np.array_equal(paths.positions, np.concatenate([sm.positions for sm in paths]))
        for traj, sm in zip(trajs, paths):
            # the per-trajectory pipeline: its own curve, speeds and audit
            n = traj.positions.shape[0] - 1
            positions = de_casteljau_by_levels(traj.positions, np.arange(n + 1) / n)
            dx, dy = np.diff(positions, axis=0).T
            speeds = np.sqrt(dx * dx + dy * dy) / traj.stage_dt
            violations = ([] if v_max is None
                          else [int(j) for j in np.nonzero(speeds > v_max + 1e-9)[0]])
            assert np.array_equal(sm.positions, positions)
            assert np.array_equal(sm.speeds, speeds)
            assert sm.speed_violations == violations
            assert sm.stage_dt == traj.stage_dt
            [alone] = smooth([traj], v_max=v_max)
            assert np.array_equal(alone.positions, positions)
        if v_max == 9.0:
            assert any(sm.speed_violations for sm in paths)

    def test_curves_are_views_of_the_stacked_samples(self):
        paths = smooth([lattice_trajectory([(1, 1), (2, 1), (2, 2)]),
                        lattice_trajectory([(3, 3), (4, 4)])], v_max=17.7)
        assert all(np.shares_memory(sm.positions, paths.positions) for sm in paths)
        # a curve's samples cannot be rebound away from the stacked block
        with pytest.raises(dataclasses.FrozenInstanceError):
            paths[0].positions = paths[0].positions + 1.0

    def test_rejects_single_waypoint(self):
        traj = lattice_trajectory([(1, 1), (2, 2)])
        traj.positions = traj.positions[:1]
        with pytest.raises(ValueError):
            smooth([traj])


def path_sums(positions, scn, mode, uav_ue=OHPLM, antenna=OMNI):
    """The rates at a path's stage starts, summed over the stages."""
    return radio.stage_rates(positions[:-1], scn, mode, uav_ue, antenna).sum(axis=0)


class TestEvaluateSmoothed:
    def test_hover_only_path_identical_to_discrete(self):
        scn = generate_scenario(PhysicalConfig(lambda_ue=20.0), Mission(), 4)
        cells = [(5, 5)] * 7
        traj = lattice_trajectory(cells)
        paths = smooth([traj], v_max=17.7)
        [discrete], [sums] = evaluate_smoothed([traj], paths, scn, "standalone", OHPLM, OMNI)
        disc = path_sums(traj.positions, scn, "standalone")
        assert np.array_equal(discrete, disc)
        assert np.array_equal(sums, disc)
        assert sums.shape == (scn.n_ue,)

    def test_straight_line_matches_discrete_exactly(self):
        scn = generate_scenario(PhysicalConfig(lambda_ue=20.0), Mission(), 5)
        cells = [(1 + i, 1 + i) for i in range(6)]
        traj = lattice_trajectory(cells)
        paths = smooth([traj], v_max=17.7)
        [sm] = paths
        # uniformly spaced collinear control points sample back to the waypoints
        assert np.allclose(sm.positions, traj.positions, atol=1e-9)
        [discrete], [sums] = evaluate_smoothed([traj], paths, scn, "standalone", OHPLM, OMNI)
        disc = path_sums(traj.positions, scn, "standalone")
        assert np.array_equal(discrete, disc)
        assert np.allclose(sums, disc, rtol=1e-12)

    def test_outside_flight_area_rejected(self):
        scn = generate_scenario(PhysicalConfig(lambda_ue=10.0), Mission(), 6)
        traj = lattice_trajectory([(1, 1), (2, 2), (3, 3)])
        sm = smooth([traj])
        sm.positions += 5000.0
        with pytest.raises(ValueError, match="flight area"):
            evaluate_smoothed([traj], sm, scn, "standalone", OHPLM, OMNI)

    @pytest.mark.parametrize("mode", radio.MODES)
    def test_batch_equals_per_trajectory_stage_rates(self, mode):
        scn = generate_scenario(PhysicalConfig(lambda_ue=20.0), Mission(), 7)
        grid = StateGrid.from_mission(Mission())
        rm = radio.build_reward_maps(scn, ("pf",), mode, OHPLM, OMNI, grid)["pf"]
        # horizons of different lengths, as the sweep batches its durations
        trajs = [solve_dp(rm, StateGrid.from_mission(Mission(duration_t=t)), ACTIONS)
                 for t in (160.0, 240.0, 200.0)]
        smoothed = smooth(trajs, v_max=17.7)
        discrete, batch = evaluate_smoothed(trajs, smoothed, scn, mode, OHPLM, OMNI)
        assert len(discrete) == len(batch) == len(smoothed)
        for traj, sm, disc, sums in zip(trajs, smoothed, discrete, batch, strict=True):
            assert np.array_equal(disc, path_sums(traj.positions, scn, mode))
            assert np.array_equal(sums, path_sums(sm.positions, scn, mode))

    def test_one_area_check_and_one_stage_rates_call(self, monkeypatch):
        scn = generate_scenario(PhysicalConfig(lambda_ue=20.0), Mission(), 7)
        trajs = [lattice_trajectory([(1, 1), (2, 1), (2, 2), (3, 3)]),
                 lattice_trajectory([(5, 5)] * 4)]
        paths = smooth(trajs)
        checked, evaluated = [], []
        rect_contains, stage_rates = smoothing.rect_contains, radio.stage_rates
        monkeypatch.setattr(smoothing, "rect_contains",
                            lambda rect, xy: checked.append(xy) or rect_contains(rect, xy))
        monkeypatch.setattr(radio, "stage_rates",
                            lambda xy, *a: evaluated.append(xy) or stage_rates(xy, *a))
        discrete, sums = evaluate_smoothed(trajs, paths, scn, "standalone", OHPLM, OMNI)
        # the stacked samples themselves, not a per-curve concatenate of them
        assert len(checked) == 1 and checked[0] is paths.positions
        # one call for both evaluations, with each distinct stage start once: the cells
        # of the DP paths, two off-grid samples, and the shared start and hover samples
        [batch] = evaluated
        starts = {tuple(p) for path in [*trajs, *paths] for p in path.positions[:-1]}
        assert len(starts) == 6
        assert sorted(map(tuple, batch)) == sorted(starts)
        assert [s.shape for s in discrete] == [s.shape for s in sums] == [(scn.n_ue,)] * 2
        for traj, sm, disc, smoothed_sums in zip(trajs, paths, discrete, sums):
            assert np.array_equal(disc, path_sums(traj.positions, scn, "standalone"))
            assert np.array_equal(smoothed_sums, path_sums(sm.positions, scn, "standalone"))

    def test_a_long_re_evaluation_holds_a_few_tiles(self):
        """700 UEs, 3 criteria and T 800/840 s: 6 paths of 100 and 105 stages, each
        evaluated both ways. Holding every stage's rates peaked at 13.3 MiB (tracemalloc);
        tiles of 92 starts keep one tile and the sums, and paths cross tile boundaries."""
        scn = generate_scenario(PhysicalConfig(lambda_ue=700.0), Mission(), 272)
        grid = StateGrid.from_mission(Mission())
        maps = radio.build_reward_maps(scn, radio.CRITERIA, "standalone", OHPLM, OMNI, grid)
        trajs = [solve_dp(maps[c], StateGrid.from_mission(Mission(duration_t=t)), ACTIONS)
                 for c in radio.CRITERIA for t in (800.0, 840.0)]
        paths = smooth(trajs)
        assert radio.TILE_VALUES // (scn.n_ue + scn.n_mbs + 1) < sum(t.n_stages for t in trajs)
        tracemalloc.start()
        try:
            discrete, sums = evaluate_smoothed(trajs, paths, scn, "standalone", OHPLM, OMNI)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 2**20
        for path, got in zip([*trajs, *paths], [*discrete, *sums], strict=True):
            assert np.array_equal(got, path_sums(path.positions, scn, "standalone"))

    def test_any_trajectory_outside_flight_area_rejected(self):
        scn = generate_scenario(PhysicalConfig(lambda_ue=10.0), Mission(), 6)
        trajs = [lattice_trajectory([(1, 1), (2, 2), (3, 3)])] * 2
        paths = smooth(trajs)
        # the second curve only; it is a view of the stacked samples
        paths[1].positions[:] += 5000.0
        with pytest.raises(ValueError, match="flight area"):
            evaluate_smoothed(trajs, paths, scn, "standalone", OHPLM, OMNI)

    def test_trajectories_must_pair_with_the_curves(self):
        scn = generate_scenario(PhysicalConfig(lambda_ue=10.0), Mission(), 6)
        short = lattice_trajectory([(1, 1), (2, 2), (3, 3)])
        long = lattice_trajectory([(1, 1), (2, 1), (2, 2), (3, 3)])
        paths = smooth([short, long])
        # the right stage count in total, but not curve by curve, would add rates into
        # the wrong path's sum without this check
        for trajs in ([short], [short, long, long], [long, short]):
            with pytest.raises(ValueError, match="do not pair"):
                evaluate_smoothed(trajs, paths, scn, "standalone", OHPLM, OMNI)


def test_numpy_sums_rows_in_order():
    """The re-evaluation adds each path's rate rows one by one, through a flat
    np.add.at; sweep.csv had the bits of sum(axis=0) over each path's (N, K)
    block. numpy does not document either order, so pin that all three agree,
    whole and in uneven runs of rows. A one-UE block is left out: sum(axis=0)
    then walks a contiguous column, which numpy sums pairwise."""
    rng = np.random.default_rng(36)
    for _ in range(200):
        n, k = int(rng.integers(1, 300)), int(rng.integers(2, 120))
        block = rng.lognormal(0.0, 2.0, (n, k))
        block[rng.random((n, k)) < 0.2] = 0.0
        by_rows = np.zeros(k)
        for row in block:
            by_rows += row
        assert np.array_equal(block.sum(axis=0), by_rows)
        # two paths whose rows arrive whole, then in runs of uneven length split mid-path
        owner = np.repeat([0, 1], [n // 3, n - n // 3])
        for cuts in ([], np.sort(rng.integers(0, n + 1, 4))):
            flat = np.zeros(2 * k)
            for lo, hi in zip([0, *cuts], [*cuts, n]):
                np.add.at(flat, (owner[lo:hi, None] * k + np.arange(k)).ravel(),
                          block[lo:hi].ravel())
            assert np.array_equal(flat[:k], block[:n // 3].sum(axis=0))
            assert np.array_equal(flat[k:], block[n // 3:].sum(axis=0))


def test_smoothed_csv(tmp_path):
    traj = lattice_trajectory([(1, 1), (2, 1), (2, 2), (3, 3)])
    [sm] = smooth([traj], v_max=17.7)
    path = tmp_path / "smooth.csv"
    sm.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t_s,x_m,y_m,v_mps"
    assert len(lines) == 1 + 4
