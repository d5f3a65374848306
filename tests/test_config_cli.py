import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uavrelay
from uavrelay import cli, radio
from uavrelay.config import (ANTENNA_MODES, MPLM_REFERENCES, UE_LINK_MODELS, ConfigError,
                             DipoleSettings, MplmSettings, RunConfig, from_json_dict,
                             load_config)
from uavrelay.planner import ActionSet, StateGrid, solve_dp
from uavrelay.radio import CRITERIA, MODES, RELAY_RULES
from uavrelay.scenario import Mission, PhysicalConfig, generate_scenario
from uavrelay.smoothing import smooth

MINIMAL = {"schema_version": 1, "master_seed": 3}


def small_run_doc(**overrides):
    doc = {
        "schema_version": 1,
        "master_seed": 272,
        "run": {"criteria": ["pf"], "realizations": 2},
        "sweep": {"t_values": [160, 240], "n_mbs_values": [4]},
        "showcase": {"t": 160, "n_mbs": 4},
    }
    doc.update(overrides)
    return doc


class TestConfigParsing:
    def test_minimal_document(self):
        cfg = from_json_dict(MINIMAL)
        assert cfg.master_seed == 3
        assert cfg.criteria == ("pf",)
        assert cfg.validate() == []

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="bogus"):
            from_json_dict({**MINIMAL, "bogus": 1})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError, match="p_mbs"):
            from_json_dict({**MINIMAL, "physical": {"p_mbs": 46}})
        with pytest.raises(ConfigError, match="tvalues"):
            from_json_dict({**MINIMAL, "sweep": {"tvalues": [240]}})

    def test_missing_required_key_named(self):
        with pytest.raises(ConfigError, match="master_seed"):
            from_json_dict({"schema_version": 1})
        with pytest.raises(ConfigError, match="schema_version"):
            from_json_dict({"master_seed": 1})

    def test_echo_round_trip(self):
        cfg = from_json_dict(small_run_doc())
        again = from_json_dict(cfg.to_json_dict())
        assert again == cfg


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _names(pool):
    return st.lists(st.sampled_from(pool), min_size=1, max_size=3).map(tuple)


@st.composite
def run_configs(draw):
    stage_dt = draw(st.sampled_from([4.0, 8.0, 10.0]))
    durations = st.integers(1, 60).map(lambda n: n * stage_dt)
    point = st.tuples(st.sampled_from([0.0, 500.0, 1000.0]), st.sampled_from([0.0, 500.0, 1000.0]))
    return RunConfig(
        physical=PhysicalConfig(
            p_mbs_dbm=draw(_finite(0, 60)), p_uav_dbm=draw(_finite(0, 40)),
            v_max=draw(_finite(18, 50)), h_uav=draw(_finite(60, 300)),
            h_bs=draw(_finite(10, 50)), h_ue=draw(_finite(0.5, 5)),
            f_c_mhz=draw(_finite(150, 6000)), alpha_los=draw(_finite(1.5, 3)),
            alpha_nlos=draw(_finite(3, 5)), lambda_ue=draw(_finite(0, 500)),
            outage_threshold=draw(_finite(0.001, 1))),
        mission=Mission(start=draw(point), finish=draw(point), duration_t=draw(durations),
                        stage_dt=stage_dt),
        mbs_ue_model=draw(st.sampled_from(UE_LINK_MODELS)),
        uav_ue_models=draw(_names(UE_LINK_MODELS)),
        mplm=MplmSettings(a_hat=draw(_finite(0.01, 0.99)), b_hat=draw(_finite(1, 500)),
                          c_hat=draw(_finite(1, 50)),
                          variant=draw(st.sampled_from(["corrected", "as_written"])),
                          reference=draw(st.sampled_from(MPLM_REFERENCES) | _finite(-50, 50))),
        backhaul_model=draw(st.sampled_from([None, "uma_av"])),
        relay_rule=draw(st.sampled_from(RELAY_RULES)),
        criteria=draw(_names(CRITERIA)),
        modes=draw(_names(MODES)),
        antenna_modes=draw(_names(ANTENNA_MODES)),
        dipole=DipoleSettings(draw(st.sampled_from([-1, 1])), draw(st.sampled_from([-1, 1]))),
        sweep_t=tuple(draw(st.lists(durations, min_size=1, max_size=4))),
        sweep_n_mbs=tuple(draw(st.lists(_finite(0.5, 50), min_size=1, max_size=3))),
        realizations=draw(st.integers(1, 100)),
        master_seed=draw(st.integers(0, 2**63)),
        showcase_t=draw(durations),
        showcase_n_mbs=draw(_finite(0.5, 50)),
        cell_m=draw(st.sampled_from([50.0, 100.0])),
    )


@given(cfg=run_configs())
@settings(deadline=None)
def test_json_round_trip(cfg):
    again = from_json_dict(json.loads(json.dumps(cfg.to_json_dict())))
    assert again == cfg
    assert again.validate() == cfg.validate()


BAD_VALUES = [
    ({"run": {"realizations": "abc"}}, "run.realizations"),
    ({"run": {"cell_m": "wide"}}, "run.cell_m"),
    ({"master_seed": "one"}, "master_seed"),
    ({"schema_version": None}, "schema_version"),
    ({"sweep": {"t_values": ["soon"]}}, "sweep.t_values"),
    ({"sweep": {"n_mbs_values": 4}}, "sweep.n_mbs_values"),
    ({"showcase": {"t": [240]}}, "showcase.t"),
    ({"showcase": {"n_mbs": "many"}}, "showcase.n_mbs"),
    ({"mission": {"start": ["west", 0]}}, "mission.start"),
    ({"mission": {"stage_dt": "8"}}, "mission"),
    ({"run": {"criteria": 5}}, "run.criteria"),
    ({"models": {"uav_ue": {"mplm": 1}}}, "models.uav_ue"),
    ({"models": {"mplm": "x"}}, "models.mplm"),
    ({"models": {"mplm": {"a_hat": "abc"}}}, "models.mplm.a_hat"),
    ({"models": {"mplm": {"reference": [0]}}}, "models.mplm.reference"),
    ({"run": {"dipole": [1]}}, "run.dipole"),
    ({"physical": [100]}, "physical"),
    ({"master_seed": float("inf")}, "master_seed"),
    ({"run": {"realizations": 2.5}}, "run.realizations"),
    ({"master_seed": 3.7}, "master_seed"),
    ({"schema_version": 1.9}, "schema_version"),
    ({"run": {"realizations": True}}, "run.realizations"),
    ({"master_seed": False}, "master_seed"),
    ({"sweep": {"t_values": [True]}}, "sweep.t_values"),
    ({"physical": {"h_uav": True}}, "physical.h_uav"),
    ({"run": {"dipole": {"uav_spin": True}}}, "run.dipole.uav_spin"),
]

# parse fine but cannot run: validate must reject them before any compute
INVALID_VALUES = [
    ({"physical": {"lambda_ue": 900}}, "lambda_ue"),
    ({"sweep": {"n_mbs_values": [4, 800]}}, "n_mbs=800.0"),
    ({"showcase": {"n_mbs": 701}}, "showcase_n_mbs=701.0"),
    ({"run": {"cell_m": 0}}, "cell_m=0.0"),
    ({"run": {"cell_m": -100}}, "cell_m=-100.0"),
    ({"run": {"dipole": {"uav_spin": 1.5}}}, "dipole spins"),
    ({"run": {"dipole": {"mbs_spin": "left"}}}, "dipole spins"),
    ({"sweep": {"t_values": [float("nan")]}}, "duration T=nan"),
    ({"showcase": {"t": float("inf")}}, "duration T=inf"),
    # 64 s beats the straight-line T_min, but cardinal grid moves need 10 stages
    ({"mission": {"finish": [1000, 0]}, "sweep": {"t_values": [64]}},
     "T=64.0s gives 8 stages of 8.0s, but the grid path from start to finish needs 10"),
    ({"mission": {"finish": [1000, 0]}, "showcase": {"t": 64}},
     "T=64.0s gives 8 stages"),
    # with start == finish T_min is 0, so only the sign check catches T=0
    ({"mission": {"finish": [0, 0]}, "sweep": {"t_values": [0]}}, "duration T=0.0"),
    # a repeated list value would count the same realizations twice
    ({"sweep": {"t_values": [160, 160], "n_mbs_values": [4, 4]}},
     "sweep T 160.0 is listed more than once"),
    ({"sweep": {"n_mbs_values": [4, 2, 4]}}, "sweep n_mbs 4.0 is listed more than once"),
    ({"run": {"criteria": ["pf", "pf"], "antenna_modes": ["omni", "omni"]}},
     "criterion 'pf' is listed more than once"),
    ({"run": {"antenna_modes": ["omni", "omni"]}}, "antenna mode 'omni' is listed more"),
    ({"run": {"modes": ["standalone", "standalone"]}}, "mode 'standalone' is listed more"),
    ({"models": {"uav_ue": ["fspl", "ohplm", "fspl"]}}, "uav_ue_model 'fspl' is listed more"),
    # the UMa-AV backhaul loss is only defined up to 300 m
    ({"physical": {"h_uav": 400}, "models": {"backhaul": "uma_av"},
      "run": {"modes": ["standalone", "relay"]}},
     "UMa-AV backhaul model requires altitude in [22.5, 300.0] m"),
]

BARE_STRINGS = [
    ({"models": {"uav_ue": "mplm"}}, "uav_ue_models", ("mplm",)),
    ({"run": {"criteria": "pf"}}, "criteria", ("pf",)),
    ({"run": {"modes": "standalone"}}, "modes", ("standalone",)),
    ({"run": {"antenna_modes": "dipole"}}, "antenna_modes", ("dipole",)),
]


class TestBadInputs:
    @pytest.mark.parametrize("patch,where", BAD_VALUES)
    def test_bad_value_is_config_error_exit_1(self, tmp_path, capsys, patch, where):
        with pytest.raises(ConfigError, match=where):
            from_json_dict({**MINIMAL, **patch})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**MINIMAL, **patch}))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 1
        assert where in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("patch,where", INVALID_VALUES)
    def test_invalid_value_fails_validate_exit_1(self, tmp_path, capsys, patch, where):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**MINIMAL, **patch}))
        assert cli.main(["validate", "--config", str(path)]) == 1
        assert where in capsys.readouterr().out
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 1
        assert where in capsys.readouterr().err
        assert not out.exists()

    def test_backhaul_altitude_checked_only_with_relay_mode(self):
        high = {"physical": {"h_uav": 400}, "models": {"backhaul": "uma_av"}}
        assert from_json_dict({**MINIMAL, **high}).validate() == []

    def test_largest_expected_count_still_draws(self):
        cfg = from_json_dict({**MINIMAL, "physical": {"lambda_ue": 700},
                              "sweep": {"n_mbs_values": [700]}})
        assert cfg.validate() == []
        scn = generate_scenario(cfg.physical_for(700), cfg.mission, cfg.master_seed)
        assert scn.n_ue > 0 and scn.n_mbs > 0

    def test_negative_master_seed_rejected(self):
        diags = from_json_dict({**MINIMAL, "master_seed": -1}).validate()
        assert any("master_seed" in d for d in diags)

    @pytest.mark.parametrize("patch,field,expected", BARE_STRINGS)
    def test_bare_string_is_one_element_list(self, patch, field, expected):
        cfg = from_json_dict({**MINIMAL, **patch})
        assert getattr(cfg, field) == expected
        assert cfg.validate() == []


class TestValidation:
    def test_t_below_minimum(self):
        doc = small_run_doc(sweep={"t_values": [72], "n_mbs_values": [4]})
        diags = from_json_dict(doc).validate()
        assert any("T_min" in d for d in diags)

    def test_each_duration_checked_once_in_order(self):
        doc = small_run_doc(sweep={"t_values": [72, 64, 72], "n_mbs_values": [4]},
                            showcase={"t": 72, "n_mbs": 4})
        diags = [d for d in from_json_dict(doc).validate() if "T_min" in d]
        assert [d.split(" is")[0] for d in diags] == ["T=72.0s", "T=64.0s"]

    def test_relay_without_backhaul(self):
        doc = small_run_doc(run={"criteria": ["pf"], "modes": ["standalone", "relay"]})
        diags = from_json_dict(doc).validate()
        assert any("backhaul" in d for d in diags)

    def test_bad_criterion(self):
        doc = small_run_doc(run={"criteria": ["pf", "maxmin"]})
        diags = from_json_dict(doc).validate()
        assert any("maxmin" in d for d in diags)

    def test_non_multiple_duration(self):
        doc = small_run_doc(sweep={"t_values": [161], "n_mbs_values": [4]})
        diags = from_json_dict(doc).validate()
        assert any("stage_dt" in d for d in diags)

    def test_ohplm_frequency_range(self):
        doc = small_run_doc(physical={"f_c_mhz": 2600.0})
        diags = from_json_dict(doc).validate()
        assert any("OHPLM" in d for d in diags)

    def test_default_config_is_clean(self):
        assert RunConfig().validate() == []


class TestPresets:
    def test_all_presets_load_and_validate(self):
        for name in cli.PRESETS:
            cfg = cli.load_preset(name)
            assert cfg.validate() == [], name
            assert cfg.master_seed == 272

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            cli.load_preset("fig99")

    def test_fig5_has_both_modes(self):
        cfg = cli.load_preset("fig5")
        assert cfg.modes == ("standalone", "relay")
        assert cfg.backhaul_model == "uma_av"

    def test_fig7_has_both_antennas(self):
        cfg = cli.load_preset("fig7")
        assert cfg.antenna_modes == ("omni", "dipole")

    def test_combinations_in_output_order(self):
        cfg = from_json_dict({**MINIMAL,
                              "models": {"uav_ue": ["ohplm", "mplm"], "backhaul": "uma_av"},
                              "run": {"modes": ["standalone", "relay"],
                                      "antenna_modes": ["omni", "dipole"]}})
        combos = list(cfg.combinations())
        assert [c[:3] for c in combos] == [
            (m, a, mode) for m in ("ohplm", "mplm") for a in ("omni", "dipole")
            for mode in ("standalone", "relay")]
        for model_name, antenna_name, _, models, ants in combos:
            assert models == cfg.link_models(model_name)
            assert ants == cfg.antenna_setup(antenna_name)


class TestCli:
    def write_config(self, tmp_path, doc):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        return path

    def test_validate_ok(self, tmp_path, capsys):
        path = self.write_config(tmp_path, small_run_doc())
        assert cli.main(["validate", "--config", str(path)]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_validate_reports_each_violation(self, tmp_path, capsys):
        doc = small_run_doc(
            run={"criteria": ["bogus"], "modes": ["relay"]},
            sweep={"t_values": [72], "n_mbs_values": [4]},
        )
        path = self.write_config(tmp_path, doc)
        assert cli.main(["validate", "--config", str(path)]) == 1
        out = capsys.readouterr().out
        assert "bogus" in out and "backhaul" in out and "T_min" in out

    def test_missing_key_exit_code(self, tmp_path, capsys):
        path = self.write_config(tmp_path, {"schema_version": 1})
        assert cli.main(["validate", "--config", str(path)]) == 1
        assert "master_seed" in capsys.readouterr().err

    def test_unreadable_file_distinct_exit(self, tmp_path, capsys):
        assert cli.main(["validate", "--config", str(tmp_path / "nope.json")]) == 2

    def test_requires_exactly_one_source(self, capsys):
        assert cli.main(["validate"]) == 1
        assert cli.main(["validate", "--config", "a", "--preset", "fig2"]) == 1

    def test_run_writes_outputs_and_manifest(self, tmp_path):
        path = self.write_config(tmp_path, small_run_doc())
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["master_seed"] == 272
        for name in manifest["outputs"]:
            assert (out / name).exists(), name
        assert (out / "sweep.csv").exists()
        assert (out / "trajectory_pf_standalone_ohplm_omni.csv").exists()
        assert (out / "heatmap_pf_standalone_ohplm_omni.csv").exists()
        assert (out / "smoothed_pf_standalone_ohplm_omni.csv").exists()
        assert manifest["trajectory_violations"] == 0

    def test_run_byte_identical(self, tmp_path):
        path = self.write_config(tmp_path, small_run_doc())
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert cli.main(["run", "--config", str(path), "--out", str(out1)]) == 0
        assert cli.main(["run", "--config", str(path), "--out", str(out2)]) == 0
        for f in sorted(out1.iterdir()):
            assert (out2 / f.name).read_bytes() == f.read_bytes(), f.name

    def test_run_seed_override(self, tmp_path):
        path = self.write_config(tmp_path, small_run_doc())
        out = tmp_path / "o3"
        assert cli.main(["run", "--config", str(path), "--out", str(out),
                         "--seed", "9"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["master_seed"] == 9

    def test_run_invalid_config_rejected(self, tmp_path, capsys):
        doc = small_run_doc(sweep={"t_values": [72], "n_mbs_values": [4]})
        path = self.write_config(tmp_path, doc)
        out = tmp_path / "o4"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 1
        assert not (out / "sweep.csv").exists()

    def test_failed_run_leaves_no_partial_output(self, tmp_path, monkeypatch):
        path = self.write_config(tmp_path, small_run_doc())
        out = tmp_path / "o5"

        def boom(cfg, tracker):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(cli, "_write_showcase", boom)
        with pytest.raises(RuntimeError):
            cli.main(["run", "--config", str(path), "--out", str(out)])
        assert list(out.iterdir()) == []

    def test_pathloss_table(self, tmp_path):
        out = tmp_path / "pl.csv"
        assert cli.main(["pathloss-table", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "model,d_m,loss_db"
        models = {line.split(",")[0] for line in lines[1:]}
        assert models == {"ohplm_mbs", "ohplm_uav", "fspl", "backhaul_uma_av", "mplm"}

    def test_pathloss_table_skips_backhaul_outside_its_altitude_range(self, tmp_path,
                                                                       capsys):
        # standalone only: the UMa-AV backhaul is never used, so 400 m validates
        doc = cli.load_preset("fig7").to_json_dict()
        doc["run"]["modes"] = ["standalone"]
        doc["physical"]["h_uav"] = 400
        path = self.write_config(tmp_path, doc)
        assert cli.main(["validate", "--config", str(path)]) == 0
        out = tmp_path / "pl.csv"
        assert cli.main(["pathloss-table", "--config", str(path), "--out", str(out)]) == 0
        assert "UMa-AV backhaul model requires altitude in" in capsys.readouterr().err
        models = {line.split(",")[0] for line in out.read_text().splitlines()[1:]}
        assert models == {"ohplm_mbs", "ohplm_uav", "fspl", "mplm"}

    def test_antenna_pattern(self, tmp_path):
        out = tmp_path / "ant.csv"
        assert cli.main(["antenna-pattern", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "theta_deg,phi_deg,gain_linear,gain_db"
        assert len(lines) == 1 + 37 * 72

    def test_run_byte_identical_across_jobs(self, tmp_path):
        doc = cli.load_preset("fig7").to_json_dict()
        doc["run"]["realizations"] = 3
        path = self.write_config(tmp_path, doc)
        outs = {jobs: tmp_path / f"jobs{jobs}" for jobs in (1, 2)}
        for jobs, out in outs.items():
            assert cli.main(["run", "--config", str(path), "--out", str(out),
                             "--jobs", str(jobs)]) == 0
        names = sorted(f.name for f in outs[1].iterdir()
                       if f.suffix == ".csv" or f.name == "manifest.json")
        assert "sweep.csv" in names and "manifest.json" in names
        assert names == sorted(f.name for f in outs[2].iterdir()
                               if f.suffix == ".csv" or f.name == "manifest.json")
        for name in names:
            assert (outs[1] / name).read_bytes() == (outs[2] / name).read_bytes(), name

    def test_run_warns_once_for_any_jobs(self, tmp_path):
        # pool workers are separate processes: only a subprocess sees their stderr
        path = self.write_config(tmp_path, small_run_doc())
        src = str(Path(uavrelay.__file__).resolve().parent.parent)
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        warnings = {}
        for jobs in (1, 2):
            proc = subprocess.run(
                [sys.executable, "-m", "uavrelay.cli", "run", "--config", str(path),
                 "--out", str(tmp_path / f"w{jobs}"), "--jobs", str(jobs)],
                capture_output=True, text=True, env=env, check=True)
            warnings[jobs] = [line for line in proc.stderr.splitlines() if line]
        assert "OHPLM applied outside its 1-10 km distance range" in warnings[1]
        assert len(set(warnings[1])) == len(warnings[1])
        assert warnings[2] == warnings[1]

    def test_heatmap_relay_seed_with_one_mbs_draw(self, tmp_path):
        # seed 279 first draws a single MBS, which relay mode cannot use
        out = tmp_path / "hm279"
        assert cli.main(["heatmap", "--preset", "fig5", "--seed", "279",
                         "--out", str(out)]) == 0
        assert (out / "heatmap_pf_relay_mplm_omni.csv").exists()

    def test_heatmap_subcommand(self, tmp_path):
        path = self.write_config(tmp_path, small_run_doc())
        out = tmp_path / "hm"
        assert cli.main(["heatmap", "--config", str(path), "--out", str(out)]) == 0
        assert (out / "heatmap_pf_standalone_ohplm_omni.csv").exists()


def reference_showcase(cfg, out_dir):
    """The showcase's own scenario, grid and planning loop, kept as an oracle."""
    physical = cfg.physical_for(cfg.showcase_n_mbs)
    mission = cfg.mission_for(cfg.showcase_t)
    scn = generate_scenario(physical, mission, cfg.master_seed, min_mbs=cfg.min_mbs)
    grid = StateGrid.from_mission(mission, cfg.cell_m)
    actions = ActionSet.standard(cfg.cell_m, mission.stage_dt, physical.v_max)
    for model_name, antenna_name, mode, models, ants in cfg.combinations():
        maps = radio.build_reward_maps(scn, cfg.criteria, mode, models, ants,
                                       grid, cfg.relay_rule)
        max_sir_db = radio.max_sir_map(scn, models, ants, grid)
        for criterion in cfg.criteria:
            tag = f"{criterion}_{mode}_{model_name}_{antenna_name}"
            maps[criterion].max_sir_db = max_sir_db
            maps[criterion].to_csv(out_dir / f"heatmap_{tag}.csv")
            traj = solve_dp(maps[criterion], grid, actions, stage_dt=mission.stage_dt)
            traj.to_csv(out_dir / f"trajectory_{tag}.csv")
            traj.to_json(out_dir / f"trajectory_{tag}.json")
            smooth(traj, v_max=physical.v_max).to_csv(out_dir / f"smoothed_{tag}.csv")
    return scn


def test_heatmap_matches_the_reference_showcase(tmp_path):
    # seed 279 first draws one MBS, so relay's two-MBS minimum forces a redraw
    doc = small_run_doc(master_seed=279,
                        models={"uav_ue": ["ohplm"], "backhaul": "uma_av"},
                        run={"criteria": ["pf", "sum_rate"], "modes": ["standalone", "relay"],
                             "antenna_modes": ["omni", "dipole"]})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    want = tmp_path / "want"
    want.mkdir()
    scn = reference_showcase(load_config(path), want)
    assert scn.mbs_rejections > 0
    got = tmp_path / "got"
    assert cli.main(["heatmap", "--config", str(path), "--out", str(got)]) == 0
    names = sorted(f.name for f in want.iterdir())
    assert len(names) == 4 * 2 * 2 * 2
    assert sorted(f.name for f in got.iterdir()) == names
    for name in names:
        assert (got / name).read_bytes() == (want / name).read_bytes(), name


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)
