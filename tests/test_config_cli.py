import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tomllib
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import uavrelay
from uavrelay import cli, metrics, pathloss, radio, smoothing
from uavrelay.config import (ANTENNA_MODES, UE_LINK_MODELS, ConfigError, MplmSettings,
                             RunConfig, from_json_dict, load_config)
from uavrelay.pathloss import OHPLM_FC_RANGE
from uavrelay.planner import ActionSet, StateGrid, min_stages, solve_dp
from uavrelay.radio import CRITERIA, MODES
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
def run_configs(draw, h_uav_max=300.0):
    stage_dt = draw(st.sampled_from([4.0, 8.0, 10.0]))
    durations = st.integers(1, 60).map(lambda n: n * stage_dt)
    point = st.tuples(st.sampled_from([0.0, 500.0, 1000.0]), st.sampled_from([0.0, 500.0, 1000.0]))
    return RunConfig(
        physical=PhysicalConfig(
            p_mbs_dbm=draw(_finite(0, 60)), p_uav_dbm=draw(_finite(0, 40)),
            v_max=draw(_finite(18, 50)), h_uav=draw(_finite(60, h_uav_max)),
            h_bs=draw(_finite(10, 50)), h_ue=draw(_finite(0.5, 5)),
            f_c_mhz=draw(_finite(150, 6000)), alpha_los=draw(_finite(1.5, 3)),
            alpha_nlos=draw(_finite(3, 5)), lambda_ue=draw(_finite(0, 500)),
            outage_threshold=draw(_finite(0.001, 1))),
        mission=Mission(start=draw(point), finish=draw(point), duration_t=draw(durations),
                        stage_dt=stage_dt),
        uav_ue_models=draw(_names(UE_LINK_MODELS)),
        mplm=MplmSettings(a_hat=draw(_finite(0.01, 0.99)), b_hat=draw(_finite(1, 500)),
                          c_hat=draw(_finite(1, 50))),
        criteria=draw(_names(CRITERIA)),
        modes=draw(_names(MODES)),
        antenna_modes=draw(_names(ANTENNA_MODES)),
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


PERTURBATIONS = ("empty", "tiny", "nan", "extreme", "area", "carrier", "duration")


@st.composite
def one_point_documents(draw):
    """run_configs as JSON at one realization, T and density, mostly kept to what
    validate accepts: an OHPLM carrier inside its range and T at or above the stage
    budget. Just under half the draws carry exactly one perturbation: an empty list,
    a tiny expected MBS count, a NaN physical constant, a power, height or building
    density of +-1e300, a node area that rounds to 0 km^2, or one of those two
    repairs left out."""
    doc = draw(run_configs(h_uav_max=500.0)).to_json_dict()
    models, mission = doc["models"], doc["mission"]
    # repeated names are rejected by a check of their own; drop them for more runs
    models["uav_ue"] = list(dict.fromkeys(models["uav_ue"]))
    for key in ("criteria", "modes", "antenna_modes"):
        doc["run"][key] = list(dict.fromkeys(doc["run"][key]))
    doc["run"]["realizations"] = 1
    doc["sweep"] = {"t_values": doc["sweep"]["t_values"][:1],
                    "n_mbs_values": doc["sweep"]["n_mbs_values"][:1]}
    kind = draw(st.sampled_from(PERTURBATIONS)) if draw(st.integers(0, 2)) == 0 else None
    if kind != "carrier":
        doc["physical"]["f_c_mhz"] = draw(_finite(*OHPLM_FC_RANGE))
    if kind != "duration":
        # the stage budget is the Chebyshev distance in cells
        least = mission["stage_dt"] * max(abs(s - f) for s, f in zip(
            mission["start"], mission["finish"])) / doc["run"]["cell_m"]
        doc["sweep"]["t_values"] = [max(t, least) for t in doc["sweep"]["t_values"]]
        doc["showcase"]["t"] = max(doc["showcase"]["t"], least)
    if kind == "empty":
        section, key = draw(st.sampled_from([("models", "uav_ue"), ("run", "criteria"),
                                             ("run", "modes"), ("run", "antenna_modes"),
                                             ("sweep", "t_values"),
                                             ("sweep", "n_mbs_values")]))
        doc[section][key] = []
    elif kind == "tiny":
        tiny = draw(st.sampled_from([1e-6, 0.003]))
        if draw(st.booleans()):
            doc["sweep"]["n_mbs_values"] = [tiny]
        else:
            doc["showcase"]["n_mbs"] = tiny
    elif kind == "nan":
        doc["physical"][draw(st.sampled_from(list(PhysicalConfig.__dataclass_fields__)))] = \
            float("nan")
    elif kind == "extreme":
        extreme = draw(st.sampled_from(["p_mbs_dbm", "p_uav_dbm", "h_uav", "b_hat"]))
        section = models["mplm"] if extreme == "b_hat" else doc["physical"]
        section[extreme] = draw(st.sampled_from([1e300, -1e300]))
    elif kind == "area":
        mission["area_ue"] = [0.0, 0.0, 1e-200, 1e-200]
    return doc


@given(doc=one_point_documents())
@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_validate_accepts_exactly_what_runs(doc):
    """validate and run never raise, and a config validate accepts runs to exit 0."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(doc))
        validated = cli.main(["validate", "--config", str(path)])
        ran = cli.main(["run", "--config", str(path), "--out", str(Path(tmp) / "out")])
    assert validated in (0, 1)
    assert ran == validated


@st.composite
def lattice_missions(draw):
    """A Mission with lattice endpoints, a cell size and an action set that fits v_max."""
    cell_m = draw(st.sampled_from([25.0, 50.0, 100.0, 150.0, 200.0, 300.0]))
    stage_dt = draw(st.sampled_from([2.0, 4.0, 8.0, 10.0, 12.5]))
    n = round(1200.0 / cell_m)
    corner = st.tuples(st.integers(0, n), st.integers(0, n)).map(
        lambda ij: (-100.0 + ij[0] * cell_m, -100.0 + ij[1] * cell_m))
    v_diag = cell_m * 2 ** 0.5 / stage_dt
    # v_max at the diagonal speed is where the straight-line time is tightest
    v_max = draw(st.just(v_diag) | _finite(v_diag, 4 * v_diag))
    mission = Mission(start=draw(corner), finish=draw(corner),
                      duration_t=draw(st.integers(1, 3 * n)) * stage_dt, stage_dt=stage_dt)
    return mission, cell_m, v_max


@given(drawn=lattice_missions())
@settings(max_examples=300, deadline=None)
def test_duration_rejected_exactly_below_the_stage_budget(drawn):
    mission, cell_m, v_max = drawn
    t = mission.duration_t
    cfg = RunConfig(physical=PhysicalConfig(v_max=v_max), mission=mission,
                    sweep_t=(t,), showcase_t=t, cell_m=cell_m)
    need = min_stages(StateGrid.from_mission(mission, cell_m),
                      ActionSet.standard(cell_m, mission.stage_dt, v_max))
    short = [f"T={t}s gives {mission.n_stages} stages of {mission.stage_dt}s, "
             f"but the grid path from start to finish needs {need}"]
    assert cfg.validate() == (short if mission.n_stages < need else [])


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
    ({"physical": [100]}, "physical"),
    ({"master_seed": float("inf")}, "master_seed"),
    ({"run": {"realizations": 2.5}}, "run.realizations"),
    ({"master_seed": 3.7}, "master_seed"),
    ({"schema_version": 1.9}, "schema_version"),
    ({"run": {"realizations": True}}, "run.realizations"),
    ({"master_seed": False}, "master_seed"),
    ({"sweep": {"t_values": [True]}}, "sweep.t_values"),
    ({"physical": {"h_uav": True}}, "physical.h_uav"),
    # names must be strings: a repeated list item is not even hashable
    ({"run": {"criteria": [["pf"], ["pf"]]}}, "run.criteria"),
    ({"run": {"modes": [1]}}, "run.modes"),
    ({"run": {"antenna_modes": ["omni", None]}}, "run.antenna_modes"),
    ({"models": {"uav_ue": [{"mplm": 1}]}}, "models.uav_ue"),
    # Python's json reads NaN and Infinity; no physical constant may be either
    ({"models": {"uav_ue": ["mplm"]}, "physical": {"alpha_los": float("nan")}},
     "physical: alpha_los must be finite"),
    ({"physical": {"v_max": float("nan")}}, "physical: v_max must be finite"),
    ({"physical": {"outage_threshold": float("nan")}},
     "physical: outage_threshold must be finite"),
    ({"physical": {"h_bs": float("inf")}}, "physical: h_bs must be finite"),
    ({"physical": {"v_max": 10 ** 400}}, "physical: int too large"),
    ({"mission": {"duration_t": float("inf")}}, "mission: duration_t must be finite"),
    ({"mission": {"stage_dt": float("nan")}}, "mission: stage_dt must be finite"),
    ({"mission": {"area_uav": [-100, -100, float("inf"), 1100]}},
     "mission: area_uav must have finite, positive extent"),
    # the extent is positive, but the area rounds to 0 km^2
    ({"mission": {"area_ue": [0, 0, 1e-200, 1e-200]}},
     "mission: area_ue must have finite, positive extent and area"),
    # far outside their ranges, transmit powers overflow or round to 0 mW
    ({"physical": {"p_mbs_dbm": 1e300}}, "physical: p_mbs_dbm="),
    ({"physical": {"p_mbs_dbm": 4000}}, "physical: p_mbs_dbm=4000 must lie in"),
    ({"physical": {"p_mbs_dbm": -4000}}, "physical: p_mbs_dbm=-4000 must lie in"),
    # and heights overflow the squared link distances
    ({"physical": {"h_uav": 1e300, "h_bs": 1e299}}, "m is above the 20000 m ceiling"),
    ({"physical": {"h_uav": 1e150}}, "m is above the 20000 m ceiling"),
    # a 401-digit duration overflows the stage count's division
    ({"mission": {"duration_t": 10 ** 400}}, "mission: int too large"),
    ({"mission": {"stage_dt": 10 ** 400}}, "mission: int too large"),
    # numbers are JSON numbers, not strings that parse as one
    ({"master_seed": "2_72"}, "master_seed"),
    ({"run": {"realizations": " 2 "}}, "run.realizations"),
    ({"run": {"cell_m": "1e2"}}, "run.cell_m"),
    ({"sweep": {"t_values": "240"}}, "sweep.t_values"),
    ({"sweep": {"n_mbs_values": ["4"]}}, "sweep.n_mbs_values"),
    ({"showcase": {"t": "240"}}, "showcase.t"),
    ({"mission": {"start": ["0", "0"]}}, "mission.start"),
    ({"models": {"mplm": {"a_hat": "0.1"}}}, "models.mplm.a_hat"),
    # the sweep and showcase MBS counts are the only MBS density of a run
    ({"physical": {"lambda_mbs": 40}}, "unknown key 'lambda_mbs' in physical"),
    # a stage count of 2**53 or more is no whole count: every double there is whole
    ({"mission": {"stage_dt": 1e-300}}, "mission: duration_t=240.0 is not an integer multiple "
     "of stage_dt=1e-300: 2.4e+302 lattice steps are not a whole count below 2**53"),
]

# parse fine but cannot run: validate must reject them before any compute
INVALID_VALUES = [
    ({"physical": {"lambda_ue": 900}}, "lambda_ue"),
    ({"sweep": {"n_mbs_values": [4, 800]}}, "n_mbs=800.0"),
    ({"showcase": {"n_mbs": 701}}, "showcase_n_mbs=701.0"),
    ({"run": {"cell_m": 0}}, "cell_m=0.0"),
    ({"run": {"cell_m": -100}}, "cell_m=-100.0"),
    ({"sweep": {"t_values": [float("nan")]}}, "duration T=nan"),
    ({"showcase": {"t": float("inf")}}, "duration T=inf"),
    # 64 s beats the straight line at v_max, but cardinal grid moves need 10 stages
    ({"mission": {"finish": [1000, 0]}, "sweep": {"t_values": [64]}},
     "T=64.0s gives 8 stages of 8.0s, but the grid path from start to finish needs 10"),
    ({"mission": {"finish": [1000, 0]}, "showcase": {"t": 64}},
     "T=64.0s gives 8 stages"),
    # with start == finish no stage is needed, so only the sign check catches T=0
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
    ({"physical": {"h_uav": 400}, "run": {"modes": ["standalone", "relay"]}},
     "UMa-AV backhaul model requires altitude in [22.5, 300.0] m"),
    ({"models": {"mplm": {"b_hat": float("nan")}}}, "mplm building parameters"),
    ({"models": {"mplm": {"c_hat": float("inf")}}}, "mplm building parameters"),
    ({"sweep": {"n_mbs_values": [float("inf")]}}, "n_mbs=inf exceeds"),
    # every one of a scenario's draws would have too few MBSs
    ({"showcase": {"n_mbs": 1e-300}}, "showcase_n_mbs=1e-300 is too small"),
    ({"run": {"modes": ["relay"]}, "sweep": {"n_mbs_values": [0.003]}},
     "n_mbs=0.003 is too small"),
    # validate builds MPLM, whose building grid bounds its row density and height scale
    ({"models": {"uav_ue": ["mplm"], "mplm": {"b_hat": 1e300}}}, "mplm building parameters"),
    ({"models": {"mplm": {"c_hat": 1e200}}}, "mplm building parameters"),
    # the stage count is a closed form, so a fine lattice is refused at once
    ({"run": {"cell_m": 0.5}}, "the grid path from start to finish needs 2000"),
    ({"run": {"cell_m": 0.01}}, "the grid path from start to finish needs 100000"),
    ({"run": {"cell_m": 0.001}}, "the grid path from start to finish needs 1000000"),
    # an empty list would run nothing, or die mid-run
    ({"sweep": {"t_values": []}}, "no sweep T is listed"),
    ({"sweep": {"n_mbs_values": []}}, "no sweep n_mbs is listed"),
    ({"run": {"criteria": []}}, "no criterion is listed"),
    ({"run": {"modes": []}}, "no mode is listed"),
    ({"run": {"antenna_modes": []}}, "no antenna mode is listed"),
    ({"models": {"uav_ue": []}}, "no uav_ue_model is listed"),
    # a lattice the grid path fits, but too fine for the memory of one run
    ({"run": {"cell_m": 1}, "sweep": {"t_values": [8000]}, "showcase": {"t": 8000}},
     "T=8000.0s: the DP policy over 1201x1201 cells and 1000 stages takes 1376 MiB"),
    # one stage over a fine lattice: the reward maps, a float64 per cell and criterion, with
    # the DP's 21 float64s per cell
    ({"mission": {"finish": [0, 0]}, "run": {"cell_m": 0.25, "criteria": list(CRITERIA)},
      "sweep": {"t_values": [8]}, "showcase": {"t": 8}},
     "run.cell_m=0.25: the whole-grid working set over 4801x4801 cells takes 4221 MiB, "
     "above the lattice budget of 256 MiB"),
    ({"mission": {"finish": [0, 0]}, "run": {"cell_m": 0.25, "criteria": ["pf"]},
      "sweep": {"t_values": [8]}, "showcase": {"t": 8}},
     "run.cell_m=0.25: the whole-grid working set over 4801x4801 cells takes 3869 MiB, "
     "above the lattice budget of 256 MiB"),
    # de Casteljau's time grows as the cube of the stage count
    ({"sweep": {"t_values": [40000]}},
     "T=40000.0s: the Bezier smoothing of 5000 stages is above its cap of 2047"),
    # one stage over the cap; test_longest_smoothed_duration_is_accepted pins the cap itself
    ({"sweep": {"t_values": [16384]}},
     "T=16384.0s: the Bezier smoothing of 2048 stages is above its cap of 2047"),
    # cell and stage counts of 2**53 or more are refused before any count is used
    ({"run": {"cell_m": 1e-320}}, "area_uav x extent 1200.0 m is not a multiple of 1e-320 m "
     "cells: inf lattice steps are not a whole count below 2**53"),
    ({"run": {"cell_m": 1e-300}}, "area_uav x extent 1200.0 m is not a multiple of 1e-300 m "
     "cells: 1.2e+303 lattice steps are not a whole count below 2**53"),
    ({"sweep": {"t_values": [1e300]}}, "duration T=1e+300: duration_t=1e+300 is not an integer "
     "multiple of stage_dt=8.0: 1.25e+299 lattice steps are not"),
    ({"sweep": {"t_values": [1e308]}}, "duration T=1e+308: duration_t=1e+308 is not an integer "
     "multiple of stage_dt=8.0: 1.25e+307 lattice steps are not"),
    ({"showcase": {"t": 1e300}}, "duration T=1e+300: duration_t=1e+300 is not an integer "
     "multiple of stage_dt=8.0: 1.25e+299 lattice steps are not"),
    ({"showcase": {"t": 1e308}}, "duration T=1e+308: duration_t=1e+308 is not an integer "
     "multiple of stage_dt=8.0: 1.25e+307 lattice steps are not"),
    # with start == finish, only the stage count catches a T shorter than one stage
    ({"mission": {"finish": [0, 0]}, "run": {"realizations": 1},
      "sweep": {"t_values": [1e-12]}, "showcase": {"t": 1e-12}},
     "duration T=1e-12: duration_t=1e-12 is shorter than one stage_dt=8.0"),
    # every MBS->UE link is OHPLM, so its carrier range binds whatever the UAV runs
    ({"physical": {"f_c_mhz": 2600}, "models": {"uav_ue": ["mplm"]}},
     "f_c_mhz=2600 outside OHPLM range [150.0, 1500.0]"),
    ({"physical": {"f_c_mhz": 100}, "models": {"uav_ue": ["fspl"]}},
     "f_c_mhz=100 outside OHPLM range [150.0, 1500.0]"),
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
        with pytest.raises(ConfigError, match=re.escape(where)):
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

    def test_many_ues_over_a_fine_lattice_are_accepted(self):
        # the grid is associated in tiles, so the UE count does not bound the lattice
        fine = {"run": {"cell_m": 5}, "physical": {"lambda_ue": 300},
                "sweep": {"t_values": [1600]}, "showcase": {"t": 1600}}
        assert from_json_dict({**MINIMAL, **fine}).validate() == []
        # nor do the MBSs, as the showcase's SIR probe takes the grid in tiles too
        many = {"run": {"cell_m": 10}, "sweep": {"t_values": [800], "n_mbs_values": [700]},
                "showcase": {"t": 800}}
        assert from_json_dict({**MINIMAL, **many}).validate() == []
        many["showcase"]["n_mbs"] = 700
        assert from_json_dict({**MINIMAL, **many}).validate() == []

    def test_longest_smoothed_duration_is_accepted(self):
        # 2047 stages of 8 s, the smoothing cap; one stage more is refused (INVALID_VALUES)
        assert smoothing.MAX_STAGES == 2047
        assert from_json_dict({**MINIMAL, "sweep": {"t_values": [16376]}}).validate() == []

    def test_backhaul_altitude_checked_only_with_relay_mode(self):
        high = {"physical": {"h_uav": 400}}
        assert from_json_dict({**MINIMAL, **high}).validate() == []

    def test_largest_expected_count_still_draws(self):
        cfg = from_json_dict({**MINIMAL, "physical": {"lambda_ue": 700},
                              "sweep": {"n_mbs_values": [700]}})
        assert cfg.validate() == []
        scn = generate_scenario(cfg.physical, cfg.mission, cfg.master_seed, n_mbs=700)
        assert scn.n_ue > 0 and scn.n_mbs > 0

    def test_negative_master_seed_rejected(self):
        diags = from_json_dict({**MINIMAL, "master_seed": -1}).validate()
        assert any("master_seed" in d for d in diags)

    @pytest.mark.parametrize("patch,field,expected", BARE_STRINGS)
    def test_bare_string_is_one_element_list(self, patch, field, expected):
        cfg = from_json_dict({**MINIMAL, **patch})
        assert getattr(cfg, field) == expected
        assert cfg.validate() == []


def numeric_paths(doc, prefix=()):
    """The key path of every number and list of numbers in a JSON config document."""
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from numeric_paths(value, prefix + (key,))
        elif all(isinstance(v, (int, float)) for v in
                 (value if isinstance(value, list) else [value])):
            yield prefix + (key,)


def test_no_numeric_value_makes_validate_raise():
    """Any one numeric key (every element of a list) at an extreme value is a ConfigError
    at parse time or a list of diagnostics from validate, never another exception."""
    default = json.loads(json.dumps(RunConfig().to_json_dict()))
    escaped = []
    for path, extreme in itertools.product(numeric_paths(default),
                                           (1e-320, 1e-300, 1e300, 1e308, -1e308, 10 ** 400)):
        doc = json.loads(json.dumps(default))
        *sections, key = path
        section = doc
        for name in sections:
            section = section[name]
        old = section[key]
        section[key] = [extreme] * len(old) if isinstance(old, list) else extreme
        try:
            cfg = from_json_dict(doc)
        except ConfigError:
            continue
        try:
            assert isinstance(cfg.validate(), list)
        except Exception as exc:  # every escape is collected, so one run reports them all
            escaped.append(f"{'.'.join(path)}={extreme!r}: {exc!r}")
    assert escaped == []


class TestValidation:
    def test_t_below_minimum(self):
        doc = small_run_doc(sweep={"t_values": [72], "n_mbs_values": [4]})
        assert from_json_dict(doc).validate() == [
            "T=72.0s gives 9 stages of 8.0s, but the grid path from start to finish needs 10"]

    def test_each_duration_checked_once_in_order(self):
        doc = small_run_doc(sweep={"t_values": [72, 64, 72], "n_mbs_values": [4]},
                            showcase={"t": 72, "n_mbs": 4})
        diags = [d for d in from_json_dict(doc).validate() if "grid path" in d]
        assert [d.split(" gives")[0] for d in diags] == ["T=72.0s", "T=64.0s"]

    def test_relay_brings_its_backhaul(self, tmp_path):
        doc = small_run_doc(run={"criteria": ["pf"], "modes": ["standalone", "relay"],
                                 "realizations": 1})
        assert from_json_dict(doc).validate() == []
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0

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

    @pytest.mark.parametrize("n_mbs,modes,ok", [
        (3e-4, ["standalone"], True), (2.5e-4, ["standalone"], False),
        (0.025, ["relay"], True), (0.02, ["relay"], False), (0.5, ["relay"], True)])
    def test_mbs_shortfall_bound(self, n_mbs, modes, ok):
        # 100001 draws all below min_mbs: exp(-n)**100001 (min 1) or
        # (exp(-n) * (1 + n))**100001 (min 2) against 1e-12
        doc = {**MINIMAL, "run": {"modes": modes},
               "sweep": {"n_mbs_values": [n_mbs]}}
        diags = from_json_dict(doc).validate()
        assert (diags == []) == ok, diags

    def test_endpoint_outside_flight_area_reported_once(self):
        diags = from_json_dict(small_run_doc(mission={"start": [-500, 0]})).validate()
        assert diags == ["mission start (-500.0, 0.0) lies outside the flight area"]
        # far outside, the cell index is no whole count, but the point is still outside
        diags = from_json_dict(small_run_doc(mission={"start": [1e308, 0]})).validate()
        assert diags == ["mission start (1e+308, 0.0) lies outside the flight area"]

    def test_each_builder_error_reported_once(self):
        doc = small_run_doc(models={"uav_ue": ["mplm"], "mplm": {"c_hat": 1e200}},
                            sweep={"t_values": [161], "n_mbs_values": [4]})
        assert from_json_dict(doc).validate() == [
            "mplm building parameters out of range: need 0 < a_hat < 1, b_hat > 0, 1e-3 <= "
            "c_hat <= 1e3 m and sqrt(a_hat*b_hat) <= 1000 rows per km, got "
            "BuildingModel(a_hat=0.1, b_hat=100.0, c_hat=1e+200)",
            "duration T=161.0: duration_t=161.0 is not an integer multiple of stage_dt=8.0"]

    def test_default_config_is_clean(self):
        assert RunConfig().validate() == []
        assert from_json_dict(RunConfig().to_json_dict()).validate() == []

    def test_five_metre_cells_fit_the_lattice_budget(self):
        # one in-process realization peaks at 57 MiB RSS (ru_maxrss, 2-core Xeon, numpy 2.4.6)
        doc = {**MINIMAL, "run": {"cell_m": 5}, "sweep": {"t_values": [1600]},
               "showcase": {"t": 1600}}
        assert from_json_dict(doc).validate() == []


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
        assert radio.BACKHAUL_LAW == pathloss.BackhaulUmaAvModel()

    def test_fig7_has_both_antennas(self):
        cfg = cli.load_preset("fig7")
        assert cfg.antenna_modes == ("omni", "dipole")

    def test_combinations_in_output_order(self):
        cfg = from_json_dict({**MINIMAL,
                              "models": {"uav_ue": ["ohplm", "mplm"]},
                              "run": {"modes": ["standalone", "relay"],
                                      "antenna_modes": ["omni", "dipole"]}})
        combos = list(cfg.combinations())
        assert [c[:3] for c in combos] == [
            (m, a, mode) for m in ("ohplm", "mplm") for a in ("omni", "dipole")
            for mode in ("standalone", "relay")]
        for model_name, antenna_name, _, uav_ue, antenna in combos:
            assert uav_ue == cfg.ue_model(model_name)
            assert antenna == cfg.antenna(antenna_name)


DISTANCE_NOTE = "OHPLM applied outside its 1-10 km distance range"
TWO_HEIGHTS = {"physical": {"h_bs": 20, "h_uav": 250}}
TWO_HEIGHTS_NOTES = ["OHPLM tx height 20 m outside (30.0, 200.0)", DISTANCE_NOTE,
                     "OHPLM tx height 250 m outside (30.0, 200.0)"]


class TestOhplmNotes:
    @pytest.mark.parametrize("name", cli.PRESETS)
    def test_every_preset_notes_only_the_distance(self, name):
        assert cli.load_preset(name).ohplm_notes() == [DISTANCE_NOTE]

    @pytest.mark.parametrize("model", ["mplm", "fspl"])
    def test_mbs_links_are_noted_without_an_ohplm_uav_link(self, model):
        cfg = from_json_dict({**MINIMAL, **TWO_HEIGHTS, "models": {"uav_ue": [model]}})
        assert cfg.ohplm_notes() == TWO_HEIGHTS_NOTES[:2]

    def test_ue_height(self):
        cfg = from_json_dict({**MINIMAL, "physical": {"h_ue": 12}})
        assert cfg.ohplm_notes() == ["OHPLM UE height 12 m outside (1.0, 10.0)",
                                     DISTANCE_NOTE]

    def test_each_link_reports_its_own_height(self):
        assert from_json_dict({**MINIMAL, **TWO_HEIGHTS}).ohplm_notes() == TWO_HEIGHTS_NOTES

    @pytest.mark.parametrize("area_m,distance_noted", [(1000, False), (6000, False),
                                                       (7000, True)])
    def test_distance_spans_height_gap_to_box_diagonal(self, area_m, distance_noted):
        # the MBS height gap is exactly 1 km, the UAV's 1 m more, and the box
        # diagonal of a 7 km area is above 10 km
        area_uav = [-100, -100, area_m + 100, area_m + 100]
        cfg = from_json_dict({**MINIMAL,
                              "physical": {"h_uav": 1003.0, "h_bs": 1002.0, "h_ue": 2.0},
                              "mission": {"area_ue": [0, 0, area_m, area_m],
                                          "area_uav": area_uav}})
        assert cfg.ohplm_notes() == (["OHPLM tx height 1002.0 m outside (30.0, 200.0)"]
                                     + [DISTANCE_NOTE] * distance_noted
                                     + ["OHPLM tx height 1003.0 m outside (30.0, 200.0)"])


# Keys with one value, which a run now fixes, and the value each once defaulted to
# (that is refused too): relay mode carries the UMa-AV backhaul, MBS->UE links are
# OHPLM, MPLM's LoS is the corrected building-row form anchored at the free-space loss
# at 1 m, a UE joins the relay when it beats its best direct SIR, and dipoles are
# equal-handed.
REMOVED_KEYS = {
    "models.backhaul": "uma_av",
    "models.mbs_ue": "ohplm",
    "models.mplm.variant": "corrected",
    "models.mplm.reference": "friis_1m",
    "run.relay_rule": "best_direct",
    "run.dipole": {"mbs_spin": 1, "uav_spin": 1},
}


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
            physical={"h_uav": 400},
            run={"criteria": ["bogus"], "modes": ["relay"]},
            sweep={"t_values": [72], "n_mbs_values": [4]},
        )
        path = self.write_config(tmp_path, doc)
        assert cli.main(["validate", "--config", str(path)]) == 1
        out = capsys.readouterr().out
        assert "bogus" in out and "backhaul" in out and "grid path" in out

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("path", REMOVED_KEYS)
    def test_backhaul_is_no_config_key(self, tmp_path, capsys, command, path):
        doc = small_run_doc()
        section, _, key = path.rpartition(".")
        node = doc
        for name in section.split("."):
            node = node.setdefault(name, {})
        node[key] = REMOVED_KEYS[path]
        config = self.write_config(tmp_path, doc)
        out = tmp_path / "out"
        argv = [command, "--config", str(config)]
        argv += ["--out", str(out)] if command == "run" else []
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert (captured.out + captured.err).splitlines() == [
            f"config error: unknown key {key!r} in {section}"]
        assert not out.exists()

    def test_missing_key_exit_code(self, tmp_path, capsys):
        path = self.write_config(tmp_path, {"schema_version": 1})
        assert cli.main(["validate", "--config", str(path)]) == 1
        assert "master_seed" in capsys.readouterr().err

    def test_unreadable_file_distinct_exit(self, tmp_path, capsys):
        assert cli.main(["validate", "--config", str(tmp_path / "nope.json")]) == 2

    def test_directory_as_config_keeps_its_error_type(self, tmp_path, capsys):
        with pytest.raises(IsADirectoryError):
            load_config(tmp_path)
        assert cli.main(["validate", "--config", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize("command,target", [
        ("run", "file"), ("run", "file/sub"), ("heatmap", "file"), ("heatmap", "file/sub"),
        ("pathloss-table", "dir"), ("antenna-pattern", "dir")])
    def test_unwritable_output_path_exit_2(self, tmp_path, capsys, command, target):
        (tmp_path / "file").write_text("kept")
        (tmp_path / "dir").mkdir()
        argv = [command, "--out", str(tmp_path / target)]
        if command in ("run", "heatmap"):
            argv += ["--config", str(self.write_config(tmp_path, small_run_doc()))]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1
        assert "Traceback" not in err
        assert (tmp_path / "file").read_text() == "kept"
        assert list((tmp_path / "dir").iterdir()) == []

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

        def boom(cfg, tracker, showcase=None):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(cli, "_write_showcase", boom)
        with pytest.raises(RuntimeError):
            cli.main(["run", "--config", str(path), "--out", str(out)])
        assert list(out.iterdir()) == []

    def test_interrupted_run_leaves_no_partial_output(self, tmp_path, monkeypatch):
        path = self.write_config(tmp_path, small_run_doc())
        out = tmp_path / "o6"

        def interrupted(cfg, tracker, showcase=None):
            tracker.path("partial.csv").write_text("x")
            raise KeyboardInterrupt  # Ctrl-C after the sweep outputs and one showcase file

        monkeypatch.setattr(cli, "_write_showcase", interrupted)
        with pytest.raises(KeyboardInterrupt):
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

    def test_pathloss_table_prices_the_fixed_links_with_the_run_laws(self, tmp_path):
        out = tmp_path / "pl.csv"
        assert cli.main(["pathloss-table", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        phys = RunConfig().physical
        for name, law, h_tx, h_rx in (
                ("ohplm_mbs", radio.MBS_UE_LAW, phys.h_bs, phys.h_ue),
                ("backhaul_uma_av", radio.BACKHAUL_LAW, phys.h_bs, phys.h_uav)):
            d = np.array([float(row[1]) for row in rows if row[0] == name])
            z = np.sqrt(np.maximum(d * d - (h_tx - h_rx) ** 2, 0.0))
            want = law.loss_db(d, z, f_c_mhz=phys.f_c_mhz, h_tx=h_tx, h_rx=h_rx)
            assert d.size and [row[2] for row in rows if row[0] == name] == [
                repr(float(v)) for v in want]

    @pytest.mark.parametrize("h_uav,rows", [
        (120, ["ohplm_mbs", "ohplm_uav", "fspl", "backhaul_uma_av", "mplm"]),
        (400, ["ohplm_mbs", "ohplm_uav", "fspl", "mplm"])], ids=["all_rows", "no_backhaul"])
    def test_pathloss_table_prices_each_row_with_one_call_of_the_run_model(
            self, tmp_path, monkeypatch, h_uav, rows):
        calls = []

        class Counted:
            def __init__(self, model):
                self.model = model

            def loss_db(self, d3d, z, **link):
                calls.append(self.model.name)
                return self.model.loss_db(d3d, z, **link)

        ue_model = RunConfig.ue_model
        monkeypatch.setattr(RunConfig, "ue_model",
                            lambda cfg, name: Counted(ue_model(cfg, name)))
        for law in ("MBS_UE_LAW", "BACKHAUL_LAW"):
            monkeypatch.setattr(radio, law, Counted(getattr(radio, law)))
        doc = cli.load_preset("fig7").to_json_dict()
        doc["run"]["modes"] = ["standalone"]  # validates at any altitude
        doc["physical"]["h_uav"] = h_uav
        path = self.write_config(tmp_path, doc)
        out = tmp_path / "pl.csv"
        assert cli.main(["pathloss-table", "--config", str(path), "--out", str(out)]) == 0
        assert len(calls) == len(rows)
        names = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
        assert list(dict.fromkeys(names)) == rows

    @pytest.mark.parametrize("patch,where", [
        ({"models": {"mplm": {"b_hat": 1e300}}}, "mplm building parameters"),
        ({"physical": {"f_c_mhz": 2600}, "models": {"uav_ue": ["fspl"]}},
         "f_c_mhz=2600 outside OHPLM range")])
    def test_pathloss_table_validates_its_config(self, tmp_path, capsys, patch, where):
        path = self.write_config(tmp_path, {**MINIMAL, **patch})
        out = tmp_path / "pl.csv"
        assert cli.main(["pathloss-table", "--config", str(path), "--out", str(out)]) == 1
        assert f"config error: {where}" in capsys.readouterr().err
        assert not out.exists()

    def test_antenna_pattern(self, tmp_path):
        out = tmp_path / "ant.csv"
        assert cli.main(["antenna-pattern", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "theta_deg,phi_deg,gain_linear,gain_db"
        assert len(lines) == 1 + 37 * 72

    @pytest.mark.parametrize("jobs", ["0", "-3", "two"])
    def test_run_rejects_jobs_below_one(self, tmp_path, capsys, jobs):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--preset", "fig2", "--out", str(tmp_path / "out"), "--jobs", jobs])
        assert exc.value.code == 2
        assert "argument --jobs" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_antenna_pattern_has_no_spin(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["antenna-pattern", "--out", str(tmp_path / "ant.csv"), "--spin", "1"])
        assert exc.value.code == 2

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

    def test_every_command_in_one_process_prints_its_notes(self, tmp_path, capsys):
        for name in ("hm1", "hm2"):
            assert cli.main(["heatmap", "--preset", "fig3", "--out", str(tmp_path / name)]) == 0
            assert capsys.readouterr().err.splitlines() == [DISTANCE_NOTE]
        assert cli.main(["pathloss-table", "--out", str(tmp_path / "pl.csv")]) == 0
        assert capsys.readouterr().err.splitlines() == [DISTANCE_NOTE]

    def test_run_and_pathloss_table_report_both_heights(self, tmp_path, capsys):
        doc = small_run_doc(**TWO_HEIGHTS)
        doc["run"]["realizations"] = 1
        path = self.write_config(tmp_path, doc)
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().err.splitlines() == TWO_HEIGHTS_NOTES
        assert cli.main(["pathloss-table", "--config", str(path),
                         "--out", str(tmp_path / "pl.csv")]) == 0
        assert capsys.readouterr().err.splitlines() == TWO_HEIGHTS_NOTES

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

    def test_interference_free_link_runs_to_a_finite_capacity(self, tmp_path):
        # a 70 dBm MBS over a -30 dBm UAV behind a d^-20 law: the UAV's power rounds
        # away in the interference sum, which once made the SIR infinite
        doc = {"schema_version": 1, "master_seed": 272,
               "mission": {"start": [0, 0], "finish": [50, 50], "duration_t": 4,
                           "stage_dt": 4, "area_ue": [0, 0, 100, 100],
                           "area_uav": [0, 0, 100, 100]},
               "physical": {"p_mbs_dbm": 70, "p_uav_dbm": -30, "f_c_mhz": 150,
                            "h_uav": 60, "h_bs": 10, "h_ue": 1,
                            "alpha_los": 20, "alpha_nlos": 20},
               "models": {"uav_ue": ["mplm"]},
               "run": {"cell_m": 50, "realizations": 1},
               "sweep": {"t_values": [4], "n_mbs_values": [1]},
               "showcase": {"t": 4, "n_mbs": 1}}
        path = self.write_config(tmp_path, doc)
        assert cli.main(["validate", "--config", str(path)]) == 0
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
        points = json.loads((out / "sweep.json").read_text())["points"]
        assert points
        for point in points:
            assert math.isfinite(point["mean_capacity_bps_hz"])
            assert point["n_realizations"] == 1


def reference_showcase(cfg, out_dir):
    """The showcase's own scenario, grid and planning loop, kept as an oracle."""
    physical = cfg.physical
    mission = cfg.mission_for(cfg.showcase_t)
    scn = generate_scenario(physical, mission, cfg.master_seed, n_mbs=cfg.showcase_n_mbs,
                            min_mbs=cfg.min_mbs)
    grid = StateGrid.from_mission(mission, cfg.cell_m)
    actions = ActionSet.standard(cfg.cell_m, mission.stage_dt, physical.v_max)
    for model_name, antenna_name, mode, uav_ue, antenna in cfg.combinations():
        maps = radio.build_reward_maps(scn, cfg.criteria, mode, uav_ue, antenna, grid)
        max_sir_db = radio.max_sir_map(scn, uav_ue, antenna, grid)
        for criterion in cfg.criteria:
            tag = f"{criterion}_{mode}_{model_name}_{antenna_name}"
            maps[criterion].max_sir_db = max_sir_db
            maps[criterion].to_csv(out_dir / f"heatmap_{tag}.csv")
            traj = solve_dp(maps[criterion], grid, actions, stage_dt=mission.stage_dt)
            traj.to_csv(out_dir / f"trajectory_{tag}.csv")
            traj.to_json(out_dir / f"trajectory_{tag}.json")
            smooth([traj], v_max=physical.v_max)[0].to_csv(out_dir / f"smoothed_{tag}.csv")
    return scn


@pytest.mark.parametrize("command,showcase_t", [
    (["heatmap"], 160), (["run", "--jobs", "1"], 160), (["run", "--jobs", "2"], 160),
    (["run", "--jobs", "1"], 200)],
    ids=["heatmap", "run-jobs1", "run-jobs2", "run-off-sweep-t"])
def test_showcase_matches_the_reference_showcase(tmp_path, command, showcase_t):
    """heatmap plans the showcase on its own, as does a run whose showcase_t is not a
    sweep T; a run whose showcase_t is a sweep T below the longest takes it from the
    sweep, in a pool worker under --jobs 2."""
    # seed 279 first draws one MBS, so relay's two-MBS minimum forces a redraw
    doc = small_run_doc(master_seed=279,
                        models={"uav_ue": ["ohplm"]},
                        run={"criteria": ["pf", "sum_rate"], "modes": ["standalone", "relay"],
                             "antenna_modes": ["omni", "dipole"], "realizations": 2},
                        showcase={"t": showcase_t, "n_mbs": 4})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    want = tmp_path / "want"
    want.mkdir()
    scn = reference_showcase(load_config(path), want)
    assert scn.mbs_rejections > 0
    got = tmp_path / "got"
    assert cli.main([*command, "--config", str(path), "--out", str(got)]) == 0
    names = sorted(f.name for f in want.iterdir())
    assert len(names) == 4 * 2 * 2 * 2
    sweep_outputs = ["manifest.json", "sweep.csv", "sweep.json"] if command[0] == "run" else []
    assert sorted(f.name for f in got.iterdir()) == sorted(names + sweep_outputs)
    for name in names:
        assert (got / name).read_bytes() == (want / name).read_bytes(), name


@pytest.mark.parametrize("showcase_t,maps_built,draws", [(240.0, 4, 2), (200.0, 6, 3)])
def test_run_plans_the_showcase_once(tmp_path, monkeypatch, showcase_t, maps_built, draws):
    """A showcase at a sweep point comes from the sweep's realization 0: fig7 at 2
    realizations builds 2 grids of maps per draw and draws no third scenario for it."""
    cfg = replace(cli.load_preset("fig7"), realizations=2, showcase_t=showcase_t)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_json_dict()))
    calls = {"maps": 0, "draws": 0}
    build, draw = radio.build_reward_maps, metrics.generate_scenario

    def counted_build(*args, **kwargs):
        calls["maps"] += 1
        return build(*args, **kwargs)

    def counted_draw(*args, **kwargs):
        calls["draws"] += 1
        return draw(*args, **kwargs)

    monkeypatch.setattr(radio, "build_reward_maps", counted_build)
    monkeypatch.setattr(metrics, "generate_scenario", counted_draw)
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert calls == {"maps": maps_built, "draws": draws}


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_showcase_plan_holds_no_rates(jobs):
    cfg = replace(cli.load_preset("fig7"), realizations=2)
    showcase = metrics.monte_carlo_sweep(cfg, jobs=jobs).showcase
    assert [tag for tag, *_ in showcase] == ["pf_relay_ohplm_omni", "pf_relay_ohplm_dipole"]
    for _, heat_map, _, _ in showcase:
        # the reward map's rewards and the SIR map, and no per-cell rates
        assert set(vars(heat_map)) == {"criterion", "xs", "ys", "rewards", "max_sir_db"}
        assert heat_map.max_sir_db.shape == heat_map.rewards.shape
    off_sweep = replace(cfg, showcase_t=200.0)
    assert metrics.monte_carlo_sweep(off_sweep, jobs=jobs).showcase is None


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_rejects_a_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b'\xff\xfe{"schema_version": 1}')
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)
    assert cli.main(["validate", "--config", str(path)]) == 1
    assert "utf-8" in capsys.readouterr().err


@pytest.mark.parametrize("patch,message", [
    ({"physical": [100]}, "physical must be a JSON object, got [100]"),
    ({"physical": {"p_mbs": 46}}, "unknown key 'p_mbs' in physical"),
])
def test_section_error_names_its_path_once(patch, message):
    with pytest.raises(ConfigError) as err:
        from_json_dict({**MINIMAL, **patch})
    assert str(err.value) == message


def test_each_field_is_declared_once():
    """Every RunConfig field has one JSON path, its echo follows the field order,
    and a document of only the required keys parses to the field defaults."""
    assert from_json_dict({"schema_version": 1, "master_seed": 1}) == RunConfig()
    declared = [f.metadata["path"] for f in fields(RunConfig)]

    def paths(doc, prefix=""):
        for key, value in doc.items():
            if isinstance(value, dict) and prefix + key not in declared:
                yield from paths(value, f"{prefix}{key}.")
            else:
                yield prefix + key

    assert list(paths(RunConfig().to_json_dict())) == declared


def test_version_is_the_pyproject_version():
    with (Path(__file__).parents[1] / "pyproject.toml").open("rb") as f:
        assert uavrelay.__version__ == tomllib.load(f)["project"]["version"]


def test_the_package_runs_as_a_module():
    """`python -m uavrelay` is the command line, without installing the package."""
    src = str(Path(uavrelay.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "uavrelay", "validate", "--preset", "fig7"],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (0, "config ok\n")
