import math

import numpy as np
import pytest
from scipy import stats

from uavrelay.scenario import Mission, PhysicalConfig, area_km2, generate_scenario


def test_generate_scenario_deterministic():
    cfg = PhysicalConfig()
    mission = Mission()
    a = generate_scenario(cfg, mission, 123)
    b = generate_scenario(cfg, mission, 123)
    assert np.array_equal(a.mbs_xy, b.mbs_xy)
    assert np.array_equal(a.ue_xy, b.ue_xy)
    c = generate_scenario(cfg, mission, 124)
    assert not np.array_equal(a.ue_xy, c.ue_xy)


def test_positions_inside_node_area():
    cfg = PhysicalConfig()
    mission = Mission()
    for seed in range(50):
        scn = generate_scenario(cfg, mission, seed)
        xmin, ymin, xmax, ymax = mission.area_ue
        pts = np.vstack([scn.mbs_xy, scn.ue_xy])
        assert np.all(pts[:, 0] >= xmin) and np.all(pts[:, 0] <= xmax)
        assert np.all(pts[:, 1] >= ymin) and np.all(pts[:, 1] <= ymax)


def test_ue_count_empirical_mean():
    # lambda_ue = 100 over 1 km^2: mean over 1e4 seeds within 1% of 100
    cfg = PhysicalConfig()
    mission = Mission()
    counts = [generate_scenario(cfg, mission, seed).n_ue for seed in range(10_000)]
    assert abs(np.mean(counts) - 100.0) < 1.0


def test_mbs_count_poisson_chi_square():
    # lambda_mbs = 4 over 1 km^2. Zero-MBS draws are rejected by contract, so
    # the delivered counts follow the zero-truncated Poisson(4) pmf; the GOF
    # test must use that reference distribution or it would reject at bin 0.
    cfg = PhysicalConfig(lambda_mbs=4.0)
    mission = Mission()
    counts = np.array([generate_scenario(cfg, mission, seed).n_mbs
                       for seed in range(10_000)])
    kmax = 12
    edges = list(range(1, kmax)) + [1000]
    observed = np.array([(counts == k).sum() for k in range(1, kmax - 1)]
                        + [(counts >= kmax - 1).sum()])
    norm = 1.0 - math.exp(-4.0)
    pmf = np.array([stats.poisson.pmf(k, 4.0) / norm for k in range(1, kmax - 1)])
    probs = np.append(pmf, 1.0 - pmf.sum())
    expected = probs * counts.size
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    crit = stats.chi2.ppf(0.99, df=len(observed) - 1)
    assert chi2 < crit, (chi2, crit, observed, expected)


def test_count_distribution_invariant_under_area_scaling():
    # same mean count from (lambda, area) and (lambda/4, 4*area)
    mission_small = Mission()
    mission_big = Mission(area_ue=(0.0, 0.0, 2000.0, 2000.0),
                          area_uav=(-100.0, -100.0, 2100.0, 2100.0),
                          finish=(2000.0, 2000.0), duration_t=240.0)
    a = [generate_scenario(PhysicalConfig(lambda_ue=100.0), mission_small, s).n_ue
         for s in range(3000)]
    b = [generate_scenario(PhysicalConfig(lambda_ue=25.0), mission_big, s).n_ue
         for s in range(3000)]
    res = stats.ks_2samp(a, b)
    assert res.pvalue > 0.01


def test_density_coupling_is_nested():
    # same seed, higher density: MBS set extends the sparser one, UEs shared
    mission = Mission()
    lo = generate_scenario(PhysicalConfig(lambda_mbs=2.0), mission, 9)
    hi = generate_scenario(PhysicalConfig(lambda_mbs=4.0), mission, 9)
    assert hi.n_mbs >= lo.n_mbs
    assert np.array_equal(hi.mbs_xy[:lo.n_mbs], lo.mbs_xy)
    assert np.array_equal(lo.ue_xy, hi.ue_xy)


def test_min_mbs_rejection_recorded():
    cfg = PhysicalConfig(lambda_mbs=0.5)
    mission = Mission()
    seen = False
    for seed in range(40):
        scn = generate_scenario(cfg, mission, seed, min_mbs=2)
        assert scn.n_mbs >= 2
        seen = seen or scn.mbs_rejections > 0
    assert seen


def test_draw_ignores_the_mission_duration():
    # 8 s is far below the 80 s the diagonal kilometre takes at v_max: the draw
    # does not check feasibility, the planner's stage budget does
    cfg = PhysicalConfig()
    a = generate_scenario(cfg, Mission(), 5, min_mbs=2)
    b = generate_scenario(cfg, Mission(duration_t=8.0), 5, min_mbs=2)
    assert np.array_equal(a.mbs_xy, b.mbs_xy)
    assert np.array_equal(a.ue_xy, b.ue_xy)
    assert a.mbs_rejections == b.mbs_rejections


def test_rejects_degenerate_area():
    with pytest.raises(ValueError, match="extent"):
        Mission(area_ue=(0.0, 0.0, 0.0, 1000.0))


def test_mission_requires_integer_stages():
    with pytest.raises(ValueError, match="multiple"):
        Mission(duration_t=100.0, stage_dt=8.0)


def test_physical_config_invariants():
    with pytest.raises(ValueError):
        PhysicalConfig(v_max=0.0)
    with pytest.raises(ValueError):
        PhysicalConfig(h_uav=20.0)  # below h_bs
    with pytest.raises(ValueError):
        PhysicalConfig(p_mbs_dbm=float("inf"))


@pytest.mark.parametrize("kw", [{"p_mbs_dbm": 1e300}, {"p_mbs_dbm": 4000.0},
                                {"p_mbs_dbm": -4000.0}, {"p_uav_dbm": -1e300},
                                {"p_uav_dbm": 70.5}, {"h_uav": 1e300, "h_bs": 1e299},
                                {"h_uav": 1e150}, {"h_uav": 20_000.5}])
def test_physical_config_bounds_powers_and_heights(kw):
    with pytest.raises(ValueError, match="dBm|ceiling"):
        PhysicalConfig(**kw)


def test_physical_config_accepts_its_bounds():
    PhysicalConfig(p_mbs_dbm=70.0, p_uav_dbm=-30.0, h_uav=20_000.0)
    PhysicalConfig(p_mbs_dbm=-30.0, p_uav_dbm=70.0)


def test_rejects_an_area_that_rounds_to_zero():
    # the extent is positive, but (1e-200 m)^2 is 0 km^2
    with pytest.raises(ValueError, match="positive extent and area"):
        Mission(area_ue=(0.0, 0.0, 1e-200, 1e-200))


def test_area_km2():
    assert area_km2((0.0, 0.0, 1000.0, 1000.0)) == 1.0
    assert area_km2((-100.0, -100.0, 1100.0, 1100.0)) == pytest.approx(1.44)
