import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavrelay import radio
from uavrelay.antenna import CrossedDipole, Omni, combined_gain, ue_link_gain
from uavrelay.config import RunConfig
from uavrelay.pathloss import BackhaulUmaAvModel, FsplModel, MplmModel, OhplmModel
from uavrelay.planner import ActionSet, StateGrid, solve_dp
from uavrelay.radio import (associate, criterion_reward, dbm_to_mw, relay_end_to_end_sir,
                            stage_rates)
from uavrelay.scenario import Mission, PhysicalConfig, Scenario, generate_scenario

from oracles import (LinkGeometry, interleaved_combined_gain, interleaved_received_mw,
                     interleaved_ue_link_gain, tx_gain)

OMNI = Omni()
DIPOLE = CrossedDipole()
OHPLM = OhplmModel()
MPLM = MplmModel()
FSPL = FsplModel()
# every UAV->UE law a run can choose, over the one MBS->UE law and backhaul
UE_MODELS = pytest.mark.parametrize("uav_ue", [OHPLM, MPLM, FSPL],
                                    ids=["ohplm", "mplm", "fspl"])


# --- scalar oracles: one UE, one transmitter, one UAV position at a time -----

def received_power(tx_index, ue_xy, scn, uav_pos, uav_ue, antenna) -> float:
    """Received power (mW) at one ground point from one transmitter.

    MBS links are Okumura-Hata, named here rather than read from the package.
    """
    cfg = scn.config
    if tx_index < scn.n_mbs:
        tx_xy, h_tx, p_dbm = scn.mbs_xy[tx_index], cfg.h_bs, cfg.p_mbs_dbm
        model = OhplmModel()
    else:
        tx_xy, h_tx, p_dbm = uav_pos, cfg.h_uav, cfg.p_uav_dbm
        model = uav_ue
    dx = float(ue_xy[0]) - float(tx_xy[0])
    dy = float(ue_xy[1]) - float(tx_xy[1])
    z = math.sqrt(dx * dx + dy * dy)
    d = math.sqrt(z * z + (h_tx - cfg.h_ue) ** 2)
    loss = model.loss_db(np.array([d]), np.array([z]), f_c_mhz=cfg.f_c_mhz,
                         h_tx=h_tx, h_rx=cfg.h_ue)
    p = float((dbm_to_mw(p_dbm) * 10.0 ** (-loss / 10.0))[0])
    if isinstance(antenna, Omni):
        return p
    geom = LinkGeometry((float(tx_xy[0]), float(tx_xy[1]), h_tx),
                        (float(ue_xy[0]), float(ue_xy[1]), cfg.h_ue), tx_mode=antenna)
    return p * tx_gain(geom)


def link_budget(scn, uav_pos, uav_ue, antenna, ue_xy=None) -> np.ndarray:
    """Received power (mW) at each UE from each transmitter, UAV last; (..., K, M+1)."""
    p_mbs, p_uav = radio.link_budget(scn, uav_pos, uav_ue, antenna, ue_xy)
    out = np.empty(p_uav.shape + (scn.n_mbs + 1,))  # C order: numpy's last-axis sum order
    out[..., :-1] = np.swapaxes(p_mbs, -1, -2)  # one MBS block for every position
    out[..., -1] = p_uav
    return out


def direct_sir(ue_index: int, server_index: int, powers) -> float:
    """Serving power over the summed power of every other transmitter."""
    row = powers[ue_index]
    if row.size < 2:
        raise ValueError("SIR undefined with an empty interference set")
    interf = row.sum() - row[server_index]
    return float(row[server_index] / interf)


def make_scenario(mbs, ue):
    return Scenario(
        config=PhysicalConfig(),
        mission=Mission(),
        mbs_xy=np.asarray(mbs, dtype=float).reshape(-1, 2),
        ue_xy=np.asarray(ue, dtype=float).reshape(-1, 2),
        seed=0,
    )


def test_dbm_to_mw():
    assert dbm_to_mw(0.0) == 1.0
    assert dbm_to_mw(46.0) == pytest.approx(10 ** 4.6, rel=1e-12)


def test_received_power_matches_hand_conversion():
    # one MBS at 3D distance exactly 1000 m from the UE
    z = math.sqrt(1000.0 ** 2 - 28.0 ** 2)
    scn = make_scenario([[0.0, 0.0]], [[z, 0.0]])
    got = received_power(0, [z, 0.0], scn, (2000.0, 2000.0), OHPLM, OMNI)
    from uavrelay.pathloss import hata_path_loss
    loss = hata_path_loss(1000.0, 1500.0, 30.0, 2.0)
    assert got == pytest.approx(10 ** 4.6 * 10 ** (-loss / 10.0), rel=1e-12)
    # the 121 dB headline case: 46 dBm through 121 dB is ~3.16e-8 mW
    assert got == pytest.approx(3.16e-8, rel=0.01)


def test_received_power_is_deterministic():
    scn = make_scenario([[100.0, 200.0], [800.0, 900.0]], [[400.0, 500.0]])
    a = received_power(1, [400.0, 500.0], scn, (300.0, 300.0), OHPLM, OMNI)
    b = received_power(1, [400.0, 500.0], scn, (300.0, 300.0), OHPLM, OMNI)
    assert a == b


def test_received_power_zero_in_pattern_null():
    # crossed-dipole UE link gain is exactly 0 straight down
    scn = make_scenario([[0.0, 0.0]], [[500.0, 500.0]])
    got = received_power(1, [500.0, 500.0], scn, (500.0, 500.0), OHPLM, DIPOLE)
    assert got == 0.0


class TestDirectSir:
    def test_two_equal_transmitters(self):
        assert direct_sir(0, 0, np.array([[2.5, 2.5]])) == 1.0

    def test_hand_arithmetic(self):
        assert direct_sir(0, 0, np.array([[8.0, 1.0, 1.0]])) == pytest.approx(4.0, rel=1e-12)

    def test_added_transmitter_decreases_sir(self):
        b2 = np.array([[8.0, 1.0]])
        b3 = np.array([[8.0, 1.0, 0.5]])
        assert direct_sir(0, 0, b3) < direct_sir(0, 0, b2)

    def test_empty_interference_rejected(self):
        with pytest.raises(ValueError):
            direct_sir(0, 0, np.array([[8.0]]))


class TestRelaySir:
    def test_equal_inputs_fixed_point(self):
        for x in (0.25, 1.0, 7.5):
            assert relay_end_to_end_sir(x, x) == pytest.approx(x, rel=1e-12)

    def test_hand_arithmetic(self):
        assert relay_end_to_end_sir(4.0, 1.0) == pytest.approx(1.6, rel=1e-12)

    def test_strong_backhaul_limit(self):
        assert relay_end_to_end_sir(1e12, 3.0) == pytest.approx(6.0, rel=1e-6)

    def test_bounded_by_twice_minimum(self):
        rng = np.random.default_rng(0)
        g1 = rng.uniform(0.01, 100, 200)
        g2 = rng.uniform(0.01, 100, 200)
        e2e = relay_end_to_end_sir(g1, g2)
        assert np.all(e2e <= 2 * np.minimum(g1, g2) + 1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            relay_end_to_end_sir(0.0, 1.0)
        with pytest.raises(ValueError):
            relay_end_to_end_sir(1.0, -2.0)

    def test_zero_access_gives_zero(self):
        # a UE in the UAV dipole's nadir null has access SIR exactly 0
        assert relay_end_to_end_sir(4.0, 0.0) == 0.0


class TestAssociate:
    def test_matches_exhaustive_oracle(self):
        scn = generate_scenario(PhysicalConfig(lambda_ue=5.0), Mission(), 42, n_mbs=2.0)
        snap = associate(scn, (300.0, 700.0), "standalone", OHPLM, OMNI)
        budget = link_budget(scn, (300.0, 700.0), OHPLM, OMNI)
        k, t = budget.shape
        for ue in range(k):
            best, best_sir = None, -1.0
            for srv in range(t):
                sir = direct_sir(ue, srv, budget)
                if sir > best_sir:
                    best, best_sir = srv, sir
            assert snap.server[ue] == best
            assert snap.sir[ue] == pytest.approx(best_sir, rel=1e-12)

    def test_tie_breaks_to_lowest_id(self):
        # UE exactly equidistant from two MBSs: identical powers, server 0 wins
        scn = make_scenario([[0.0, 0.0], [1000.0, 0.0]], [[500.0, 0.0]])
        snap = associate(scn, (500.0, 2000.0), "standalone", OHPLM, OMNI)
        budget = link_budget(scn, (500.0, 2000.0), OHPLM, OMNI)
        assert budget[0, 0] == budget[0, 1]
        assert snap.server[0] == 0

    def test_rate_follows_shannon_over_load(self):
        scn = generate_scenario(PhysicalConfig(), Mission(), 3)
        snap = associate(scn, (500.0, 500.0), "standalone", OHPLM, OMNI)
        expected = np.log2(1.0 + snap.sir) / snap.loads[snap.server]
        assert np.allclose(snap.rate, expected, rtol=1e-13)
        assert np.all(snap.rate <= np.log2(1.0 + snap.sir) + 1e-13)
        solo = snap.loads[snap.server] == 1
        assert np.allclose(snap.rate[solo], np.log2(1.0 + snap.sir[solo]))

    def test_standalone_loads_sum_to_k(self):
        scn = generate_scenario(PhysicalConfig(), Mission(), 8)
        snap = associate(scn, (200.0, 900.0), "standalone", OHPLM, OMNI)
        assert snap.loads.sum() == scn.n_ue

    def test_relay_loads_include_uav_at_donor(self):
        scn = generate_scenario(PhysicalConfig(), Mission(), 8)
        snap = associate(scn, (200.0, 900.0), "relay", OHPLM, OMNI)
        assert snap.donor is not None
        assert snap.loads.sum() == scn.n_ue + 1

    def test_relay_e2e_bounded_by_backhaul(self):
        scn = generate_scenario(PhysicalConfig(), Mission(), 12)
        snap = associate(scn, (600.0, 400.0), "relay", OHPLM, OMNI)
        bh = radio.backhaul_budget(scn, (600.0, 400.0), OMNI)
        bh_sir = bh / (bh.sum() - bh)
        gamma_bh = bh_sir[snap.donor]
        assert np.argmax(bh_sir) == snap.donor
        on_uav = snap.server == scn.n_mbs
        assert np.all(snap.sir[on_uav] <= 2.0 * gamma_bh + 1e-12)

    def test_sir_invariant_under_common_power_scaling(self):
        mission = Mission()
        base = generate_scenario(PhysicalConfig(), mission, 21)
        scaled = Scenario(config=PhysicalConfig(p_mbs_dbm=56.0, p_uav_dbm=40.0),
                          mission=mission, mbs_xy=base.mbs_xy, ue_xy=base.ue_xy,
                          seed=21)
        for mode in ("standalone", "relay"):
            s1 = associate(base, (400.0, 800.0), mode, OHPLM, OMNI)
            s2 = associate(scaled, (400.0, 800.0), mode, OHPLM, OMNI)
            assert np.array_equal(s1.server, s2.server)
            assert np.allclose(s1.sir, s2.sir, rtol=1e-12)

    def test_no_mbs_rejected(self):
        scn = make_scenario(np.zeros((0, 2)), [[100.0, 100.0]])
        with pytest.raises(ValueError, match="no MBS"):
            associate(scn, (0.0, 0.0), "standalone", OHPLM, OMNI)

    def test_relay_needs_two_mbs(self):
        scn = make_scenario([[500.0, 500.0]], [[100.0, 100.0]])
        with pytest.raises(ValueError, match="2 MBSs"):
            associate(scn, (0.0, 0.0), "relay", OHPLM, OMNI)

    def test_interference_that_rounds_to_zero_gets_the_sir_ceiling(self, monkeypatch):
        # a 1e-20 interferer is below half an ulp of the serving 1 mW: total - p is 0
        scn = make_scenario([[500.0, 500.0]], [[100.0, 100.0]])
        monkeypatch.setattr(radio, "link_budget",
                            lambda *args: (np.array([[1.0]]), np.array([1e-20])))
        snap = associate(scn, (0.0, 0.0), "standalone", OHPLM, OMNI)
        assert snap.server[0] == 0
        assert snap.sir[0] == radio.SIR_CEILING
        assert snap.rate[0] == 53.0


class TestCriterionReward:
    def test_pf_is_sum_of_logs(self):
        rates = np.array([0.5, 0.25, 2.0])
        assert criterion_reward(rates, "pf") == pytest.approx(
            sum(math.log10(r) for r in rates), rel=1e-12)

    def test_pf_floor_prevents_minus_inf(self):
        rates = np.array([0.0, 1.0])
        got = criterion_reward(rates, "pf")
        assert np.isfinite(got)
        assert got == pytest.approx(math.log10(1e-9), rel=1e-12)

    def test_sum_rate_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            rates = rng.uniform(0.0, 1.0, size=30)
            assert criterion_reward(rates, "sum_rate") >= 0.0
            assert criterion_reward(rates, "sum_rate") == pytest.approx(rates.sum())

    def test_p5_is_fifth_smallest_of_100(self):
        rng = np.random.default_rng(9)
        rates = rng.uniform(0.0, 2.0, size=100)
        assert criterion_reward(rates, "p5") == sorted(rates)[4]

    def test_p5_small_populations(self):
        assert criterion_reward(np.array([0.7]), "p5") == 0.7
        assert criterion_reward(np.array([0.7, 0.3]), "p5") == 0.3

    def test_empty_rates(self):
        assert criterion_reward(np.zeros(0), "pf") == 0.0
        assert criterion_reward(np.zeros(0), "p5") == 0.0

    def test_unknown_criterion(self):
        with pytest.raises(ValueError):
            criterion_reward(np.ones(3), "max_min")


class TestRewardMap:
    def grid(self):
        return StateGrid.from_mission(Mission())

    def test_symmetric_network_gives_symmetric_map(self):
        # mirror pairs only: a UE on the diagonal would tie between the two
        # MBSs and the lowest-id tie-break would (correctly) skew the loads
        scn = make_scenario(
            mbs=[[200.0, 700.0], [700.0, 200.0]],
            ue=[[100.0, 400.0], [400.0, 100.0], [800.0, 600.0], [600.0, 800.0]],
        )
        maps = radio.build_reward_maps(scn, ("pf", "sum_rate", "p5"), "standalone",
                                       OHPLM, OMNI, self.grid())
        for rm in maps.values():
            assert np.allclose(rm.rewards, rm.rewards.T, rtol=1e-10, atol=1e-12)
        max_sir = radio.max_sir_map(scn, OHPLM, OMNI, self.grid())
        assert np.allclose(max_sir, max_sir.T, rtol=1e-10, atol=1e-12)

    def test_single_criterion_matches_joint_build(self):
        scn = generate_scenario(PhysicalConfig(lambda_ue=20.0), Mission(), 15)
        solo = radio.build_reward_maps(scn, ("pf",), "standalone", OHPLM, OMNI,
                                       self.grid())["pf"]
        joint = radio.build_reward_maps(scn, ("pf", "sum_rate"), "standalone",
                                        OHPLM, OMNI, self.grid())["pf"]
        assert np.array_equal(solo.rewards, joint.rewards)

    def test_rewards_finite_and_deterministic(self):
        scn = generate_scenario(PhysicalConfig(), Mission(), 30)
        a = radio.build_reward_maps(scn, ("pf",), "standalone", OHPLM, OMNI, self.grid())["pf"]
        b = radio.build_reward_maps(scn, ("pf",), "standalone", OHPLM, OMNI, self.grid())["pf"]
        assert np.all(np.isfinite(a.rewards))
        assert np.array_equal(a.rewards, b.rewards)

    def test_csv_export(self, tmp_path):
        scn = generate_scenario(PhysicalConfig(lambda_ue=10.0), Mission(), 2)
        rm = radio.build_reward_maps(scn, ("sum_rate",), "standalone", OHPLM, OMNI,
                                     self.grid())["sum_rate"]
        path = tmp_path / "map.csv"
        with pytest.raises(ValueError, match="max_sir_db"):
            rm.to_csv(path)
        rm.max_sir_db = radio.max_sir_map(scn, OHPLM, OMNI, self.grid())
        rm.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "cell_x_m,cell_y_m,reward,max_sir_db"
        assert len(lines) == 1 + 13 * 13


def test_stage_rates_shape():
    scn = generate_scenario(PhysicalConfig(lambda_ue=30.0), Mission(), 6)
    rates = stage_rates([(0.0, 0.0), (100.0, 0.0), (100.0, 100.0)],
                        scn, "standalone", OHPLM, OMNI)
    assert rates.shape == (3, scn.n_ue)
    assert np.all(rates >= 0.0)


def test_antenna_changes_sir_map_with_fixed_nodes():
    cfg = RunConfig(antenna_modes=("omni", "dipole"))
    scn = generate_scenario(PhysicalConfig(), Mission(), 11)
    grid = StateGrid.from_mission(Mission())
    uav_ue = cfg.ue_model("ohplm")
    omni_map = radio.max_sir_map(scn, uav_ue, cfg.antenna("omni"), grid)
    dip_map = radio.max_sir_map(scn, uav_ue, cfg.antenna("dipole"), grid)
    assert not np.allclose(omni_map, dip_map)


def dense_scenario():
    """Nine MBSs: sums run over >= 9 terms and take numpy's pairwise path."""
    rng = np.random.default_rng(7)
    return make_scenario(rng.uniform(0.0, 1000.0, (9, 2)), rng.uniform(0.0, 1000.0, (15, 2)))


SCENARIOS = {
    "ppp": lambda: generate_scenario(PhysicalConfig(lambda_ue=12.0), Mission(), 42),
    "dense": dense_scenario,
    # a UE straight below the UAV at (500, 450): zero access SIR under a dipole
    "nadir": lambda: make_scenario([[100.0, 200.0], [800.0, 700.0], [300.0, 900.0]],
                                   [[500.0, 450.0], [120.0, 640.0], [870.0, 90.0]]),
}
POSITION_GRID = np.stack(np.meshgrid([-100.0, 300.0, 500.0, 1100.0], [0.0, 450.0, 900.0]),
                         axis=-1)  # (ny, nx, 2)


def oracle_association(scn, pos, mode, uav_ue, antenna):
    """Per-UE (server, sir, rate) from the scalar oracles at one UAV position."""
    budget = link_budget(scn, pos, uav_ue, antenna)
    m = scn.n_mbs
    k = scn.n_ue
    servers, sirs = [], []
    if mode == "relay":
        bh = radio.backhaul_budget(scn, pos, antenna)
        bh_sirs = [bh[i] / (bh.sum() - bh[i]) for i in range(m)]
        donor = bh_sirs.index(max(bh_sirs))
    for ue in range(k):
        direct = [direct_sir(ue, s, budget) for s in range(m if mode == "relay" else m + 1)]
        best = direct.index(max(direct))
        server, sir = best, direct[best]
        if mode == "relay":
            row = budget[ue]
            e2e = relay_end_to_end_sir(bh_sirs[donor], row[m] / row[:m].sum())
            if e2e > direct[best]:
                server, sir = m, e2e
        servers.append(server)
        sirs.append(sir)
    loads = [servers.count(s) + (mode == "relay" and s == donor) for s in range(m + 1)]
    rates = [np.log2(1.0 + sir) / loads[s] for s, sir in zip(servers, sirs)]
    return servers, sirs, rates


class TestBatchedEngine:
    """Position batches give the same bits as per-position and scalar oracles."""

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    @pytest.mark.parametrize("uav_ue", [OHPLM, MPLM], ids=["ohplm", "mplm"])
    @pytest.mark.parametrize("antenna", [OMNI, DIPOLE], ids=["omni", "dipole"])
    def test_link_budget_grid(self, scenario, uav_ue, antenna):
        scn = SCENARIOS[scenario]()
        powers = link_budget(scn, POSITION_GRID, uav_ue, antenna)
        ny, nx, _ = POSITION_GRID.shape
        assert powers.shape == (ny, nx, scn.n_ue, scn.n_mbs + 1)
        for iy in range(ny):
            for ix in range(nx):
                pos = POSITION_GRID[iy, ix]
                single = link_budget(scn, pos, uav_ue, antenna)
                assert np.array_equal(powers[iy, ix], single)
                oracle = [[received_power(t, ue, scn, pos, uav_ue, antenna)
                           for t in range(scn.n_mbs + 1)] for ue in scn.ue_xy]
                assert np.array_equal(single, np.array(oracle).reshape(single.shape))

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    @UE_MODELS
    @pytest.mark.parametrize("antenna", [OMNI, DIPOLE], ids=["omni", "dipole"])
    @pytest.mark.parametrize("mode", radio.MODES)
    def test_associate_grid(self, scenario, uav_ue, antenna, mode):
        scn = SCENARIOS[scenario]()
        snap = associate(scn, POSITION_GRID, mode, uav_ue, antenna)
        ny, nx, _ = POSITION_GRID.shape
        assert snap.rate.shape == (ny, nx, scn.n_ue)
        for iy in range(ny):
            for ix in range(nx):
                pos = POSITION_GRID[iy, ix]
                single = associate(scn, pos, mode, uav_ue, antenna)
                for field in ("server", "sir", "rate", "loads", "donor"):
                    got = getattr(snap, field)
                    if got is not None:
                        assert np.array_equal(got[iy, ix], getattr(single, field)), field
                servers, sirs, rates = oracle_association(scn, pos, mode, uav_ue, antenna)
                assert np.array_equal(single.server, servers)
                assert np.array_equal(single.sir, sirs)
                assert np.array_equal(single.rate, rates)

    def test_nadir_ue_has_zero_access_sir_under_dipole(self):
        scn = SCENARIOS["nadir"]()
        budget = link_budget(scn, (500.0, 450.0), OHPLM, DIPOLE)
        assert budget[0, scn.n_mbs] == 0.0
        snap = associate(scn, POSITION_GRID, "relay", OHPLM, DIPOLE)
        assert snap.server[1, 2, 0] != scn.n_mbs
        assert np.all(snap.sir > 0) and np.all(snap.rate > 0)

    @pytest.mark.parametrize("antenna", [OMNI, DIPOLE], ids=["omni", "dipole"])
    def test_per_position_probe_points(self, antenna):
        # one probe UE under each UAV position, the heat map's max-SIR probe
        scn = SCENARIOS["dense"]()
        probes = POSITION_GRID[:, :, None, :]
        powers = link_budget(scn, POSITION_GRID, OHPLM, antenna, ue_xy=probes)
        for iy, ix in np.ndindex(POSITION_GRID.shape[:2]):
            pos = POSITION_GRID[iy, ix]
            single = link_budget(scn, pos, OHPLM, antenna, ue_xy=[pos])
            assert np.array_equal(powers[iy, ix], single)

    @pytest.mark.parametrize("mode", radio.MODES)
    def test_map_rates_are_the_discrete_trajectory_rates(self, mode):
        scn = generate_scenario(PhysicalConfig(lambda_ue=20.0), Mission(), 9)
        grid = StateGrid.from_mission(Mission())
        rm = radio.build_reward_maps(scn, ("pf",), mode, OHPLM, DIPOLE, grid)["pf"]
        traj = solve_dp(rm, grid, ActionSet.standard(100.0, 8.0, 17.7))
        disc = stage_rates(traj.positions[:-1], scn, mode, OHPLM, DIPOLE)
        assert np.array_equal(rm.rates_at(traj.cells[:-1]), disc)
        assert np.array_equal(criterion_reward(disc, "pf"), traj.stage_rewards)

    def test_empty_ue_set(self):
        scn = make_scenario([[100.0, 100.0], [900.0, 900.0]], np.zeros((0, 2)))
        for mode in radio.MODES:
            snap = associate(scn, POSITION_GRID, mode, OHPLM, OMNI)
            assert snap.rate.shape == POSITION_GRID.shape[:2] + (0,)
            assert np.all(criterion_reward(snap.rate, "pf") == 0.0)


@settings(max_examples=80, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 32),
       n_mbs=st.sampled_from([2.0, 4.0, 9.0]),
       lambda_ue=st.sampled_from([3.0, 20.0]),
       positions=st.lists(st.tuples(st.floats(-100.0, 1100.0), st.floats(-100.0, 1100.0)),
                          min_size=1, max_size=6),
       mode=st.sampled_from(radio.MODES),
       antenna=st.sampled_from([OMNI, DIPOLE]),
       uav_ue=st.sampled_from([OHPLM, MPLM]))
def test_associate_properties(seed, n_mbs, lambda_ue, positions, mode, antenna, uav_ue):
    """Batched association equals per-position calls; SIRs, rates and loads are sane."""
    scn = generate_scenario(PhysicalConfig(lambda_ue=lambda_ue), Mission(), seed,
                            n_mbs=n_mbs, min_mbs=2)
    pos = np.array(positions, dtype=float)
    snap = associate(scn, pos, mode, uav_ue, antenna)
    assert np.all(snap.sir > 0)
    assert np.all(np.isfinite(snap.rate)) and np.all(snap.rate >= 0)
    assert np.all(snap.loads.sum(axis=-1) == scn.n_ue + (mode == "relay"))
    for i, p in enumerate(pos):
        single = associate(scn, p, mode, uav_ue, antenna)
        for field in ("server", "sir", "rate", "loads", "donor"):
            got = getattr(snap, field)
            if got is not None:
                assert np.array_equal(got[i], getattr(single, field)), field
        loads = np.bincount(single.server, minlength=scn.n_mbs + 1)
        if mode == "relay":
            loads[single.donor] += 1  # the UAV is scheduled at its donor
        assert np.array_equal(single.loads, loads)


# --- the transmitter-major kernel against the UE-major layout it replaced ----

def ue_major_associate(scn, uav_pos, mode, uav_ue, antenna):
    """Association over the (..., K, M+1) power array, reduced over its last axis."""
    powers = link_budget(scn, uav_pos, uav_ue, antenna)
    m = scn.n_mbs
    transmitters = np.arange(m + 1)
    total = powers.sum(axis=-1, keepdims=True)
    donor = None
    if mode == "standalone":
        sir_all = powers / (total - powers)
        server = np.argmax(sir_all, axis=-1)
        sir = sir_all.max(axis=-1)
    else:
        bh = radio.backhaul_budget(scn, uav_pos, antenna)
        bh_sir = bh / (bh.sum(axis=-1, keepdims=True) - bh)
        donor = np.argmax(bh_sir, axis=-1)
        gamma_bh = bh_sir.max(axis=-1, keepdims=True)
        direct = powers[..., :m] / (total - powers[..., :m])
        direct_server = np.argmax(direct, axis=-1)
        direct_sirs = direct.max(axis=-1)
        gamma_acc = powers[..., m] / powers[..., :m].sum(axis=-1)
        gamma_e2e = relay_end_to_end_sir(gamma_bh, gamma_acc)
        on_uav = gamma_e2e > direct_sirs
        server = np.where(on_uav, m, direct_server)
        sir = np.where(on_uav, gamma_e2e, direct_sirs)
    loads = np.sum(server[..., None] == transmitters, axis=-2)
    if donor is not None:
        loads = loads + (transmitters == donor[..., None])
    rate = np.log2(1.0 + sir) / np.take_along_axis(loads, server, axis=-1)
    return radio.AssociationSnapshot(server=server, loads=loads, sir=sir, rate=rate,
                                     donor=donor)


def assert_same_association(got, want):
    for field in ("server", "loads", "sir", "rate", "donor"):
        a, b = getattr(got, field), getattr(want, field)
        assert (a is None) == (b is None), field
        if a is not None:
            assert a.shape == b.shape and np.array_equal(a, b), field


def test_leading_sum_matches_numpy_last_axis_sum():
    """A numpy change of summation order fails here, not as silently changed bits."""
    rng = np.random.default_rng(0)
    differ = []
    for n in range(1, 301):
        # a wide dynamic range makes every change of summation order visible
        x = 10.0 ** rng.uniform(-14.0, 0.0, (23, n))
        if not (np.array_equal(radio._leading_sum(list(x.T)), np.sum(x, axis=-1))
                and np.array_equal(radio._leading_sum(x.T), np.sum(x, axis=-1))):
            differ.append(n)
    assert differ == []


def ground_points(rng, shape, anchors):
    """(*shape, 2) points: random ones, anchor copies, and anchors moved along x or y only."""
    n = math.prod(shape)
    pts = rng.uniform(0.0, 2000.0, size=(n, 2))
    rows = rng.permutation(n)
    for i, row in enumerate(rows[:min(n, 3 * len(anchors))]):
        pts[row] = anchors[i % len(anchors)]
        if i // len(anchors) == 1:
            pts[row, 0] += rng.uniform(-500.0, 500.0)  # the y = 0 plane of the link
        elif i // len(anchors) == 2:
            pts[row, 1] += rng.uniform(-500.0, 500.0)
    return pts.reshape(tuple(shape) + (2,))


class TestReceivedPowerOnPlanes:
    """_received_mw has the bits of its form with a (..., 2) norm and a (..., 3) direction block."""

    CFG = PhysicalConfig()
    DIPOLES = (CrossedDipole(),)

    @pytest.mark.parametrize("shape", [(1,), (9,), (4, 6), (2, 3, 5)])
    @pytest.mark.parametrize("model", [OhplmModel(), MplmModel()], ids=("ohplm", "mplm"))
    @pytest.mark.parametrize("mode", (Omni(),) + DIPOLES, ids=str)
    def test_ue_links(self, shape, model, mode):
        cfg = self.CFG
        rng = np.random.default_rng(len(shape))
        mbs = rng.uniform(0.0, 2000.0, size=(6, 2))
        ue = ground_points(rng, (40,), mbs)
        uav = ground_points(rng, shape, ue)
        probes = ground_points(rng, shape + (3,), mbs)
        want_gain = None if isinstance(mode, Omni) else lambda u: interleaved_ue_link_gain(u, mode)
        links = [  # MBS->UE with scenario UEs and per-position probes, UAV->UE
            (mbs[:, None, :], cfg.h_bs, ue[..., None, :, :], cfg.p_mbs_dbm),
            (mbs[:, None, :], cfg.h_bs, probes[..., None, :, :], cfg.p_mbs_dbm),
            (uav[..., None, :], cfg.h_uav, ue, cfg.p_uav_dbm),
        ]
        for tx, h_tx, rx, p_dbm in links:
            got = radio._received_mw(tx, h_tx, rx, cfg.h_ue, p_dbm, model, cfg.f_c_mhz,
                                     ue_link_gain, mode)
            want = interleaved_received_mw(tx, h_tx, rx, cfg.h_ue, p_dbm, model, cfg.f_c_mhz,
                                           want_gain)
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("shape", [(1,), (9,), (4, 6), (2, 3, 5)])
    @pytest.mark.parametrize("mbs_mode", (Omni(),) + DIPOLES, ids=str)
    @pytest.mark.parametrize("uav_mode", (Omni(),) + DIPOLES, ids=str)
    def test_backhaul(self, shape, mbs_mode, uav_mode):
        cfg = self.CFG
        rng = np.random.default_rng(len(shape))
        mbs = rng.uniform(0.0, 2000.0, size=(6, 2))
        uav = ground_points(rng, shape, mbs)
        got = radio._received_mw(mbs, cfg.h_bs, uav[..., None, :], cfg.h_uav, cfg.p_mbs_dbm,
                                 BackhaulUmaAvModel(), cfg.f_c_mhz,
                                 combined_gain, mbs_mode, uav_mode)
        want = interleaved_received_mw(
            mbs, cfg.h_bs, uav[..., None, :], cfg.h_uav, cfg.p_mbs_dbm, BackhaulUmaAvModel(),
            cfg.f_c_mhz, lambda u: interleaved_combined_gain(u, mbs_mode, uav_mode))
        assert got.shape == shape + (6,)
        assert np.array_equal(got, want)


class TestTransmitterMajorKernel:
    """Bit-identical to the UE-major reductions on both sides of numpy's 8 and 128 terms."""

    @pytest.mark.parametrize("mode", radio.MODES)
    @UE_MODELS
    def test_generated_relay_dipole_scenario(self, mode, uav_ue):
        scn = generate_scenario(PhysicalConfig(lambda_ue=15.0), Mission(), 4,
                                n_mbs=10.0, min_mbs=2)
        assert scn.n_mbs + 1 >= 8
        got = associate(scn, POSITION_GRID, mode, uav_ue, DIPOLE)
        assert_same_association(got, ue_major_associate(scn, POSITION_GRID, mode, uav_ue,
                                                         DIPOLE))

    @pytest.mark.parametrize("n_mbs", [2, 6, 7, 8, 9, 15, 16, 127, 128, 140])
    @pytest.mark.parametrize("mode", radio.MODES)
    @UE_MODELS
    def test_hand_built_mbs_counts(self, n_mbs, mode, uav_ue):
        rng = np.random.default_rng(n_mbs)
        scn = make_scenario(rng.uniform(0.0, 1000.0, (n_mbs, 2)),
                            rng.uniform(0.0, 1000.0, (11, 2)))
        got = associate(scn, POSITION_GRID, mode, uav_ue, DIPOLE)
        assert_same_association(got, ue_major_associate(scn, POSITION_GRID, mode, uav_ue,
                                                         DIPOLE))
        one = associate(scn, POSITION_GRID[1, 2], mode, uav_ue, DIPOLE)
        assert_same_association(one, ue_major_associate(scn, POSITION_GRID[1, 2], mode,
                                                         uav_ue, DIPOLE))

    @pytest.mark.parametrize("mode", radio.MODES)
    @pytest.mark.parametrize("antenna", [OMNI, DIPOLE], ids=["omni", "dipole"])
    def test_whole_grid_reward_maps_equal_the_row_loop(self, mode, antenna):
        scn = generate_scenario(PhysicalConfig(lambda_ue=20.0), Mission(), 13,
                                n_mbs=8.0, min_mbs=2)
        grid = StateGrid.from_mission(Mission())
        maps = radio.build_reward_maps(scn, radio.CRITERIA, mode, MPLM, antenna, grid)
        xs, ys = grid.axis_x(), grid.axis_y()
        rows = np.stack([associate(scn, np.column_stack([xs, np.full(xs.size, y)]), mode,
                                   MPLM, antenna).rate for y in ys])
        for c, rm in maps.items():
            assert np.array_equal(rm.rates, rows)
            assert np.array_equal(rm.rewards, criterion_reward(rows, c))

    def test_max_sir_map_equals_the_row_loop(self):
        scn = SCENARIOS["dense"]()
        grid = StateGrid.from_mission(Mission())
        xs, ys = grid.axis_x(), grid.axis_y()
        want = np.empty((ys.size, xs.size))
        for iy, y in enumerate(ys):
            row = np.column_stack([xs, np.full(xs.size, y)])
            probe = link_budget(scn, row, OHPLM, DIPOLE, ue_xy=row[:, None, :])[:, 0]
            want[iy] = 10.0 * np.log10((probe / (probe.sum(-1, keepdims=True) - probe)).max(-1))
        assert np.array_equal(radio.max_sir_map(scn, OHPLM, DIPOLE, grid), want)

    def test_max_sir_map_without_interference_is_inf(self):
        # one MBS, and the UAV dipole's nadir null hides the UAV from the probe below it
        scn = make_scenario([[130.0, 270.0]], [[500.0, 500.0]])
        max_sir = radio.max_sir_map(scn, OHPLM, DIPOLE, StateGrid.from_mission(Mission()))
        assert np.all(np.isposinf(max_sir))


@pytest.mark.parametrize("antenna", [OMNI, DIPOLE], ids=["omni", "dipole"])
def test_every_power_computation_goes_through_link_budget(monkeypatch, antenna):
    """associate (both modes) and max_sir_map each call radio.link_budget once.

    perfbench's tracer counts MBS->UE work on that module global; a kernel
    that computes powers past it would make the count read 0 without failing.
    """
    scn = SCENARIOS["dense"]()
    grid = StateGrid.from_mission(Mission())
    calls = []
    original = radio.link_budget

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    runs = [lambda mode=mode: associate(scn, POSITION_GRID, mode, OHPLM, antenna)
            for mode in radio.MODES]
    runs.append(lambda: radio.max_sir_map(scn, OHPLM, antenna, grid))
    for run in runs:
        want = run()
        monkeypatch.setattr(radio, "link_budget", counting)
        got = run()
        monkeypatch.setattr(radio, "link_budget", original)
        assert calls == [scn]
        calls.clear()
        if isinstance(want, radio.AssociationSnapshot):
            assert_same_association(got, want)
        else:
            assert np.array_equal(got, want)


def test_omni_only_links_never_reach_the_antenna_layer(monkeypatch):
    """An all-omni association calls no gain, and its backhaul is the gain-free power."""
    scn = SCENARIOS["dense"]()
    cfg = scn.config

    def refuse(*args):
        raise AssertionError("an omni-only link called an antenna gain")

    monkeypatch.setattr(radio, "ue_link_gain", refuse)
    monkeypatch.setattr(radio, "combined_gain", refuse)
    for mode in radio.MODES:
        associate(scn, POSITION_GRID, mode, OHPLM, OMNI)
    got = radio.backhaul_budget(scn, POSITION_GRID, OMNI)
    want = radio._received_mw(scn.mbs_xy, cfg.h_bs, POSITION_GRID[..., None, :], cfg.h_uav,
                              cfg.p_mbs_dbm, BackhaulUmaAvModel(), cfg.f_c_mhz)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("name", ["ohplm", "mplm", "fspl"])
def test_mbs_block_does_not_depend_on_the_uav_law(name):
    # a config chooses only the UAV->UE law; the MBS->UE links are the same
    # Okumura-Hata block under every choice
    uav_ue = RunConfig().ue_model(name)
    scn = SCENARIOS["dense"]()
    for antenna in (OMNI, DIPOLE):
        p_mbs, _ = radio.link_budget(scn, POSITION_GRID, uav_ue, antenna)
        want, _ = radio.link_budget(scn, POSITION_GRID, OHPLM, antenna)
        assert np.array_equal(p_mbs, want)


def test_config_dipoles_are_equal_handed():
    assert RunConfig().antenna("dipole") == DIPOLE


def test_backhaul_is_the_uma_av_law_with_the_run_antenna_at_both_ends():
    scn = SCENARIOS["dense"]()
    cfg = scn.config
    for antenna in (OMNI, DIPOLE):
        got = radio.backhaul_budget(scn, POSITION_GRID, antenna)
        want = radio._received_mw(scn.mbs_xy, cfg.h_bs, POSITION_GRID[..., None, :],
                                  cfg.h_uav, cfg.p_mbs_dbm, BackhaulUmaAvModel(), cfg.f_c_mhz,
                                  combined_gain, antenna, antenna)
        assert np.array_equal(got, want)
