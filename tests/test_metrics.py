import concurrent.futures
import ctypes
import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from uavrelay import cli, config, metrics, radio, scenario
from uavrelay.config import RunConfig
from uavrelay.metrics import (CSV_COLUMNS, SweepPoint, monte_carlo_sweep, outage_probability,
                              plan_combinations, realization_seed, run_realization,
                              scenario_for, time_averaged_capacity)

SMALL = RunConfig(criteria=("pf",), sweep_t=(160.0, 240.0), sweep_n_mbs=(4.0,),
                  realizations=3, master_seed=272)


class TestTimeAveragedCapacity:
    def test_constant_rate(self):
        rates = np.full((30, 5), 0.37)
        assert np.allclose(time_averaged_capacity(rates.sum(axis=0), 30, 240.0), 0.37,
                           rtol=1e-12)

    def test_half_on_half_off(self):
        rates = np.zeros((10, 3))
        rates[:5] = 0.8
        assert np.allclose(time_averaged_capacity(rates.sum(axis=0), 10, 80.0), 0.4,
                           rtol=1e-12)

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
        got = time_averaged_capacity(rates.sum(axis=0), 30, t)
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-15)

    def test_empty_stage_list_rejected(self):
        with pytest.raises(ValueError):
            time_averaged_capacity(np.zeros(4), 0, 240.0)


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
    cfg = replace(SMALL, modes=("standalone", "relay"))
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
                  sweep_t=(240.0, 80.0, 160.0))
    passes = []
    backward_pass = metrics.backward_pass

    def counted(rewards, grid, actions, n_stages):
        passes.append(n_stages)
        return backward_pass(rewards, grid, actions, n_stages)

    monkeypatch.setattr(metrics, "backward_pass", counted)
    plans = list(plan_combinations(cfg, scenario_for(cfg, 4.0, 0), cfg.sweep_t))
    assert passes == [30] * 4  # 2 modes x 2 criteria, each to 240 s of 8-s stages
    for _, _, _, runs, _ in plans:
        # solve order: each criterion's pass serves every duration before the next pass
        assert [(t, c) for t, c, *_ in runs] == [(t, c) for c in cfg.criteria
                                                 for t in cfg.sweep_t]
        assert [traj.n_stages for _, _, traj, _, _ in runs] == [30, 10, 20, 30, 10, 20]


def test_one_smooth_call_per_realization_and_combination(monkeypatch):
    cfg = replace(SMALL, criteria=("pf", "sum_rate"), modes=("relay",),
                  antenna_modes=("omni", "dipole"), realizations=2)
    calls = []
    smooth = metrics.smoothing.smooth

    def counted(trajs, v_max=None):
        calls.append(len(trajs))
        return smooth(trajs, v_max=v_max)

    monkeypatch.setattr(metrics.smoothing, "smooth", counted)
    monte_carlo_sweep(cfg)
    # 2 realizations x 2 antennas, each call smoothing 2 criteria x 2 durations
    assert calls == [4] * 4


def test_the_tile_bound_changes_no_realization(monkeypatch):
    """fig5's realization 0 gives the same samples and showcase entries when its reward
    maps and SIR probes take the grid in tiles of a few cells as in one tile."""
    cfg = replace(cli.load_preset("fig5"), realizations=1)
    associate, link_budget, stage_rates = radio.associate, radio.link_budget, radio.stage_rates

    def realization():
        calls, budgets, evaluated = [], [], []
        monkeypatch.setattr(radio, "associate", lambda *a: calls.append(a) or associate(*a))
        monkeypatch.setattr(radio, "link_budget",
                            lambda *a, **k: budgets.append(a) or link_budget(*a, **k))
        monkeypatch.setattr(radio, "stage_rates",
                            lambda *a: evaluated.append(a) or stage_rates(*a))
        out = run_realization(cfg, cfg.sweep_t, cfg.showcase_n_mbs, 0, cfg.showcase_t)
        return out, len(calls), len(budgets), len(evaluated)

    default, default_calls, default_budgets, default_evaluated = realization()
    monkeypatch.setattr(radio, "TILE_VALUES", 1000)
    small, small_calls, small_budgets, small_evaluated = realization()
    assert small_calls > default_calls
    # every association calls link_budget once; the calls beyond them are the probe's tiles
    assert small_budgets - small_calls > default_budgets - default_calls
    # the re-evaluations split too, mid-path: their sums must not move
    assert small_evaluated > default_evaluated
    assert small[:3] == default[:3]
    for got, want in zip(small[3], default[3], strict=True):
        (tag, heat_map, traj, sm), (want_tag, want_map, want_traj, want_sm) = got, want
        assert tag == want_tag
        assert np.array_equal(heat_map.rewards, want_map.rewards)
        assert np.array_equal(heat_map.max_sir_db, want_map.max_sir_db)
        assert np.array_equal(traj.positions, want_traj.positions)
        assert np.array_equal(sm.positions, want_sm.positions)


@pytest.mark.parametrize("mode", radio.MODES)
def test_a_realization_without_ues_has_nan_samples(mode):
    """lambda_ue 0 draws no UE: every reward is 0, the re-evaluation sums are empty, and
    each sample is NaN with no warning (pytest makes a RuntimeWarning an error)."""
    cfg = replace(SMALL, physical=replace(SMALL.physical, lambda_ue=0.0), modes=(mode,))
    samples, _, _, _ = run_realization(cfg, cfg.sweep_t, 4.0, 0)
    assert scenario_for(cfg, 4.0, 0).n_ue == 0
    assert {key[6] for key in samples} == {"discrete", "smoothed"}
    assert all(math.isnan(c) and math.isnan(o) for c, o in samples.values())


class TestSweep:
    def test_single_realization_stderr_zero(self):
        cfg = RunConfig(criteria=("pf",), sweep_t=(240.0,), sweep_n_mbs=(4.0,),
                        realizations=1, master_seed=1)
        res = monte_carlo_sweep(cfg)
        p = res.find(evaluation="discrete")
        mean, se, n = p.capacity
        assert n == 1
        assert se == 0.0
        samples, _, _, _ = run_realization(cfg, (240.0,), 4.0, 0)
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

    def test_pool_forks_with_numpy_random_loaded(self, tmp_path):
        """numpy loads numpy.random at the first draw: a pool forked before it would
        make every worker import it again, and the CLI import must not load it."""
        script = tmp_path / "fork.py"
        script.write_text(
            "import concurrent.futures, sys\n"
            "import uavrelay.cli\n"
            "from uavrelay import metrics\n"
            "from uavrelay.config import RunConfig\n"
            "loaded = ['numpy.random' in sys.modules]\n"
            "class SerialPool:\n"
            "    def __init__(self, max_workers):\n"
            "        loaded.append('numpy.random' in sys.modules)\n"
            "    def __enter__(self):\n"
            "        return self\n"
            "    def __exit__(self, *exc):\n"
            "        return False\n"
            "    def map(self, fn, *iterables):\n"
            "        return map(fn, *iterables)\n"
            "concurrent.futures.ProcessPoolExecutor = SerialPool\n"
            "metrics.monte_carlo_sweep(RunConfig(sweep_t=(160.0,), showcase_t=160.0,\n"
            "                                    realizations=2), jobs=2)\n"
            "print(loaded)\n")
        src = str(Path(metrics.__file__).resolve().parent.parent)
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                              env=env, check=True)
        # not loaded by the import, loaded when the pool is made
        assert proc.stdout.split() == ["[False,", "True]"]

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


class TestRetainHeap:
    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        # the process's next plan sets the real thresholds again
        metrics._retain_heap.cache_clear()
        yield
        metrics._retain_heap.cache_clear()

    def test_sets_both_thresholds_once_per_process(self, monkeypatch):
        calls = []

        class Libc:
            def __init__(self):
                self.mallopt = lambda param, value: calls.append((param, value))

        monkeypatch.setattr(ctypes, "CDLL", lambda name: Libc())
        metrics._retain_heap()
        metrics._retain_heap()
        assert calls == [(metrics.M_MMAP_THRESHOLD, 32 * 2**20),
                         (metrics.M_TRIM_THRESHOLD, 64 * 2**20)]

    def test_does_nothing_without_mallopt(self, monkeypatch):
        monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
        assert metrics._retain_heap() is None

    @pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"),
                        reason="libc exports no mallopt, so the heap thresholds stay as they are")
    def test_a_repeated_realization_faults_in_no_planes(self, tmp_path):
        # the heap of a fresh process, as a run's: pytest's own has been shaped by other tests
        script = tmp_path / "faults.py"
        script.write_text(
            "import resource\n"
            "from uavrelay import cli, metrics\n"
            "cfg = cli.load_preset('fig7')\n"
            "def realization():\n"
            "    metrics.run_realization(cfg, cfg.sweep_t, cfg.sweep_n_mbs[0], 0)\n"
            "realization()\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "realization()\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
        src = str(Path(metrics.__file__).resolve().parent.parent)
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                              env=env, check=True)
        # about 250 at glibc's dynamic thresholds: the freed planes go back to the kernel
        assert int(proc.stdout) < 20
