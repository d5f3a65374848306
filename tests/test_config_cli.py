import json

import pytest

from uavrelay import cli
from uavrelay.config import (ConfigError, RunConfig, from_json_dict,
                             load_config)

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


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)
