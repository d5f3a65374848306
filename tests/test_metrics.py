import concurrent.futures
from dataclasses import fields, replace

import numpy as np
import pytest

from uavrelay import config, metrics, scenario
from uavrelay.config import RunConfig
from uavrelay.metrics import (CSV_COLUMNS, SweepPoint, monte_carlo_sweep, outage_probability,
                              plan_combinations, realization_seed, run_realization,
                              scenario_for, time_averaged_capacity)

SMALL = RunConfig(criteria=("pf",), sweep_t=(160.0, 240.0), sweep_n_mbs=(4.0,),
                  realizations=3, master_seed=272)


class TestTimeAveragedCapacity:
    def test_constant_rate(self):
        rates = np.full((30, 5), 0.37)
        assert np.allclose(time_averaged_capacity(rates, 240.0), 0.37, rtol=1e-12)

    def test_half_on_half_off(self):
        rates = np.zeros((10, 3))
        rates[:5] = 0.8
        assert np.allclose(time_averaged_capacity(rates, 80.0), 0.4, rtol=1e-12)

    def test_independent_summation_oracle(self):
        rng = np.random.default_rng(8)
        rates = rng.uniform(0.0, 1.0, size=(30, 17))
        t, dt = 240.0, 8.0
        expected = np.zeros(17)
        for k in range(17):
            acc = 0.0
            for i in range(30):
                acc += rates[i, k] * dt
            expected[k] = acc / t
        got = time_averaged_capacity(rates, t)
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-15)

    def test_empty_stage_list_rejected(self):
        with pytest.raises(ValueError):
            time_averaged_capacity(np.zeros((0, 4)), 240.0)


class TestOutage:
    def test_all_covered(self):
        assert outage_probability(np.full(50, 1.0), 0.05) == 0.0

    def test_one_in_hundred(self):
        caps = np.full(100, 1.0)
        caps[13] = 0.01
        assert outage_probability(caps, 0.05) == 0.01

    def test_threshold_is_strict(self):
        caps = np.array([0.05, 0.05, 1.0])
        assert outage_probability(caps, 0.05) == 0.0
        caps = np.array([0.049999, 0.05, 1.0])
        assert outage_probability(caps, 0.05) == pytest.approx(1 / 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            outage_probability(np.zeros(0), 0.05)


def test_realization_seed_split():
    assert realization_seed(100, 0) == 100
    assert realization_seed(100, 7) == 107


def test_scenario_for_draws_realization_j_on_the_config_mission():
    cfg = replace(SMALL, modes=("standalone", "relay"), backhaul_model="uma_av")
    scn = scenario_for(cfg, 4.0, 2)
    assert scn.mission == cfg.mission
    assert scn.config == cfg.physical
    assert scn.seed == realization_seed(cfg.master_seed, 2)
    assert scn.n_mbs >= cfg.min_mbs == 2


def test_draw_and_validate_share_the_mbs_mean(monkeypatch):
    # a 140 m x 150 m node area: 3 / 0.021 * 0.021 is not 3, so a count-to-density
    # round trip would show in both means
    cfg = replace(SMALL, mission=replace(SMALL.mission, area_ue=(0.0, 0.0, 140.0, 150.0)),
                  sweep_n_mbs=(3.0,), showcase_n_mbs=3.0)
    checked, drawn = [], []
    shortfall, icdf = config.log_mbs_shortfall_chance, scenario._poisson_icdf
    monkeypatch.setattr(config, "log_mbs_shortfall_chance",
                        lambda mean, min_mbs: checked.append(mean) or shortfall(mean, min_mbs))
    monkeypatch.setattr(scenario, "_poisson_icdf",
                        lambda mean, u: drawn.append(mean) or icdf(mean, u))
    assert cfg.validate() == []
    scenario_for(cfg, 3.0, 0)
    assert checked == [3.0, 3.0]  # the sweep count, then the showcase count
    assert len(drawn) >= 2 and set(drawn[:-1]) == {3.0}  # MBS draws, then the UE draw


def test_one_backward_pass_per_map_serves_every_duration(monkeypatch):
    cfg = replace(SMALL, criteria=("pf", "sum_rate"), modes=("standalone", "relay"),
                  backhaul_model="uma_av", sweep_t=(240.0, 80.0, 160.0))
    passes = []
    backward_pass = metrics.backward_pass

    def counted(rewards, grid, actions, n_stages):
        passes.append(n_stages)
        return backward_pass(rewards, grid, actions, n_stages)

    monkeypatch.setattr(metrics, "backward_pass", counted)
    plans = list(plan_combinations(cfg, scenario_for(cfg, 4.0, 0), cfg.sweep_t))
    assert passes == [30] * 4  # 2 modes x 2 criteria, each to 240 s of 8-s stages
    for _, _, _, runs in plans:
        assert [(t, c) for t, c, *_ in runs] == [(t, c) for t in cfg.sweep_t
                                                 for c in cfg.criteria]
        assert [traj.n_stages for _, _, traj, _, _ in runs] == [30, 30, 10, 10, 20, 20]


class TestSweep:
    def test_single_realization_stderr_zero(self):
        cfg = RunConfig(criteria=("pf",), sweep_t=(240.0,), sweep_n_mbs=(4.0,),
                        realizations=1, master_seed=1)
        res = monte_carlo_sweep(cfg)
        p = res.find(evaluation="discrete")
        mean, se, n = p.capacity
        assert n == 1
        assert se == 0.0
        samples, _, _ = run_realization(cfg, (240.0,), 4.0, 0)
        capacity, _ = samples[p.t_s, p.n_mbs, p.criterion, p.mode, p.uav_ue_model,
                              p.antenna, p.evaluation]
        assert mean == capacity

    def test_deterministic_rerun(self):
        a = monte_carlo_sweep(SMALL)
        b = monte_carlo_sweep(SMALL)
        for pa, pb in zip(a.points, b.points):
            assert pa.capacity_samples == pb.capacity_samples
            assert pa.outage_samples == pb.outage_samples

    def test_parallel_equals_serial(self):
        a = monte_carlo_sweep(SMALL, jobs=1)
        b = monte_carlo_sweep(SMALL, jobs=2)
        for pa, pb in zip(a.points, b.points):
            assert pa.capacity_samples == pb.capacity_samples

    @pytest.mark.parametrize("n_mbs,realizations,jobs,workers", [
        ((2.0, 4.0), 2, 5000, [4]), ((2.0, 4.0), 2, 3, [3]), ((2.0, 4.0), 2, 1, []),
        ((4.0,), 1, 5000, [])])
    def test_pool_has_a_worker_per_task_at_most(self, monkeypatch, n_mbs, realizations,
                                                jobs, workers):
        """A task per (density, realization): --jobs above the task count starts one
        worker per task, and a single worker means no pool at all."""
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        cfg = replace(SMALL, sweep_t=(160.0,), sweep_n_mbs=n_mbs, realizations=realizations)
        got = monte_carlo_sweep(cfg, jobs=jobs)
        assert started == workers
        want = monte_carlo_sweep(cfg)
        assert [p.capacity_samples for p in got.points] == [
            p.capacity_samples for p in want.points]

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_is_rejected_before_any_work(self, monkeypatch, jobs):
        def refuse(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        monkeypatch.setattr(metrics, "run_realization", refuse)
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            monte_carlo_sweep(SMALL, jobs=jobs)

    def test_both_evaluations_present(self):
        res = monte_carlo_sweep(SMALL)
        evals = {p.evaluation for p in res.points}
        assert evals == {"discrete", "smoothed"}
        assert len(res.points) == 2 * len(SMALL.sweep_t)

    def test_axes_override(self):
        res = monte_carlo_sweep(replace(SMALL, sweep_t=(240.0,), sweep_n_mbs=(2.0, 4.0),
                                        realizations=2))
        assert {p.n_mbs for p in res.points} == {2.0, 4.0}
        assert res.realizations == 2

    def test_rejects_zero_realizations(self):
        with pytest.raises(ValueError):
            monte_carlo_sweep(replace(SMALL, realizations=0))

    def test_csv_header_frozen(self, tmp_path):
        res = monte_carlo_sweep(SMALL)
        path = tmp_path / "sweep.csv"
        res.write(path, tmp_path / "sweep.json")
        header = path.read_text().splitlines()[0]
        assert header == ("t_s,n_mbs,criterion,mode,uav_ue_model,antenna,"
                          "evaluation,mean_capacity_bps_hz,stderr_capacity,"
                          "mean_outage,stderr_outage,n_realizations")

    def test_point_key_is_the_leading_csv_columns(self):
        assert [f.name for f in fields(SweepPoint)][:7] == CSV_COLUMNS[:7]

    def test_json_contains_samples(self):
        res = monte_carlo_sweep(SMALL)
        doc = res.to_json_dict()
        assert doc["realizations"] == 3
        assert len(doc["points"][0]["capacity_samples"]) == 3

    def test_find_is_unique_or_raises(self):
        res = monte_carlo_sweep(SMALL)
        with pytest.raises(KeyError):
            res.find(criterion="pf")  # matches several t values
        p = res.find(t_s=240.0, evaluation="discrete")
        assert p.t_s == 240.0
        with pytest.raises(TypeError):
            res.find(density=4.0)
