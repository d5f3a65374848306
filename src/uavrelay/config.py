"""Run configuration: a strict, versioned JSON schema and its validation.

The file is a single JSON object; unknown keys are rejected everywhere so a
typo cannot silently fall back to a default. `schema_version` and
`master_seed` are required, everything else has Table-style defaults.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from functools import partial

from .antenna import CrossedDipole, Omni
from .pathloss import (BuildingModel, FsplModel, MplmModel, OhplmModel,
                       OHPLM_FC_RANGE, ohplm_range_problems, uma_av_altitude_problem)
from .planner import ActionSet, StateGrid, min_stages
from .radio import CRITERIA, MODES
from .scenario import (MAX_MBS_REDRAWS, MAX_POISSON_MEAN, Mission, PhysicalConfig, area_km2,
                       log_mbs_shortfall_chance)
from .smoothing import MAX_STAGES

SCHEMA_VERSION = 1

UE_LINK_MODELS = ("ohplm", "mplm", "fspl")
ANTENNA_MODES = ("omni", "dipole")
# An expected MBS count is rejected when every draw of one scenario (the first
# and all redraws) falls below min_mbs with a larger chance: the run would
# fail on that realization after computing everything before it.
MBS_SHORTFALL_CHANCE = 1e-12
# Byte budget of a run's lattice-sized arrays: the DP policy of one duration (an int8 per
# cell and stage), and apart from it a combination's reward maps (a float64 per cell and
# criterion) with the DP's buffers (9 action values, argmax's copy of them, the best and the
# padded value-to-go). The association tiles (reward maps, SIR probe, re-evaluation) add a
# fixed 3 MiB. Up to 64 MiB of freed heap (the trim threshold metrics._retain_heap pins)
# stays mapped beside it and is not part of the estimate.
LATTICE_BYTES = 256 * 2**20


class ConfigError(ValueError):
    pass


def _take(section, allowed, where: str) -> dict:
    """A JSON object whose keys are all in `allowed`; no field is a boolean."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object, got {section!r}")
    for key, value in section.items():
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}")
        if isinstance(value, bool):
            raise ConfigError(f"{where}.{key} must not be true/false, got {value!r}")
    return dict(section)


def _number(kind, value, where: str):
    """int(value) or float(value) of a JSON number; a string, a boolean, or a fraction
    for int, is a ConfigError."""
    try:
        if isinstance(value, (bool, str)) or (kind is int and isinstance(value, float)
                                              and not value.is_integer()):
            raise ValueError(value)
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{where} must be {noun}, got {value!r}") from exc


def _list(value, where: str, length: int | None = None) -> list:
    """A JSON list field."""
    if not isinstance(value, (list, tuple)) or length not in (None, len(value)):
        size = f" of {length}" if length else ""
        raise ConfigError(f"{where} must be a list{size}, got {value!r}")
    return list(value)


def _floats(value, where: str, length: int | None = None) -> tuple[float, ...]:
    return tuple(_number(float, v, where) for v in _list(value, where, length))


def _names(value, where: str) -> tuple[str, ...]:
    """A list of names; a bare string is a one-element list."""
    names = tuple(_list([value] if isinstance(value, str) else value, where))
    for v in names:
        if not isinstance(v, str):
            raise ConfigError(f"{where} must list names as strings, got {v!r}")
    return names


def _section(cls, **readers):
    """A reader that builds dataclass `cls` from a JSON object, converting the keys
    `readers` names; an error of cls itself is a ConfigError at the object's path."""
    def read(section, where: str):
        kw = _take(section, cls.__dataclass_fields__, where)
        for key, read_key in readers.items():
            if key in kw:
                kw[key] = read_key(kw[key], f"{where}.{key}")
        try:
            return cls(**kw)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    return read


def _field(path: str, default, read=None):
    """A RunConfig field at JSON key `path`, parsed by read(value, path); a read of
    None keeps the value as is."""
    return field(default=default, metadata={"path": path, "read": read})


_int = partial(_number, int)
_float = partial(_number, float)
_point = partial(_floats, length=2)
_rect = partial(_floats, length=4)


@dataclass(frozen=True)
class MplmSettings:
    a_hat: float = 0.1
    b_hat: float = 100.0
    c_hat: float = 10.0


@dataclass(frozen=True)
class RunConfig:
    """A run. Each field declares its JSON key path, default and reader once; the
    parser, the echo (in field order) and the unknown-key checks loop over them."""

    schema_version: int = _field("schema_version", SCHEMA_VERSION, _int)
    master_seed: int = _field("master_seed", 1, _int)
    physical: PhysicalConfig = _field("physical", PhysicalConfig(), _section(PhysicalConfig))
    mission: Mission = _field("mission", Mission(), _section(
        Mission, start=_point, finish=_point, area_ue=_rect, area_uav=_rect))
    uav_ue_models: tuple[str, ...] = _field("models.uav_ue", ("ohplm",), _names)
    mplm: MplmSettings = _field("models.mplm", MplmSettings(), _section(
        MplmSettings, a_hat=_float, b_hat=_float, c_hat=_float))
    criteria: tuple[str, ...] = _field("run.criteria", ("pf",), _names)
    modes: tuple[str, ...] = _field("run.modes", ("standalone",), _names)
    antenna_modes: tuple[str, ...] = _field("run.antenna_modes", ("omni",), _names)
    realizations: int = _field("run.realizations", 30, _int)
    cell_m: float = _field("run.cell_m", 100.0, _float)
    sweep_t: tuple[float, ...] = _field("sweep.t_values", (240.0,), _floats)
    sweep_n_mbs: tuple[float, ...] = _field("sweep.n_mbs_values", (4.0,), _floats)
    showcase_t: float = _field("showcase.t", 240.0, _float)
    showcase_n_mbs: float = _field("showcase.n_mbs", 4.0, _float)

    # -- derived builders ---------------------------------------------------

    def mission_for(self, duration_t: float) -> Mission:
        return replace(self.mission, duration_t=float(duration_t))

    @property
    def min_mbs(self) -> int:
        """Fewest MBSs a scenario may have; the relay backhaul needs an interferer."""
        return 2 if "relay" in self.modes else 1

    def ue_model(self, name: str):
        if name == "ohplm":
            return OhplmModel()
        if name == "fspl":
            return FsplModel()
        if name == "mplm":
            return MplmModel(
                building=BuildingModel(self.mplm.a_hat, self.mplm.b_hat, self.mplm.c_hat),
                alpha_los=self.physical.alpha_los,
                alpha_nlos=self.physical.alpha_nlos,
            )
        raise ConfigError(f"unknown UE link model {name!r}")

    def antenna(self, name: str):
        """The antenna every MBS and the UAV carry; UEs are omnidirectional."""
        if name == "omni":
            return Omni()
        if name == "dipole":
            return CrossedDipole()
        raise ConfigError(f"unknown antenna mode {name!r}")

    def combinations(self):
        """(uav_ue_model, antenna, mode, UAV->UE law, antenna mode) in output order."""
        for model_name in self.uav_ue_models:
            uav_ue = self.ue_model(model_name)
            for antenna_name in self.antenna_modes:
                antenna = self.antenna(antenna_name)
                for mode in self.modes:
                    yield model_name, antenna_name, mode, uav_ue, antenna

    def ohplm_notes(self) -> list[str]:
        """Where the links this config runs on Okumura-Hata leave its validity box.

        Every MBS->UE link is Okumura-Hata, transmitting from h_bs; UAV->UE links
        transmit from h_uav. A link's 3D distance runs from the height gap (a UE
        right below the transmitter) to the diagonal of the box around both
        areas, combined with the gap.
        """
        phys, areas = self.physical, (self.mission.area_ue, self.mission.area_uav)
        diagonal = math.hypot(max(a[2] for a in areas) - min(a[0] for a in areas),
                              max(a[3] for a in areas) - min(a[1] for a in areas))
        notes = []
        heights = (phys.h_bs, phys.h_uav) if "ohplm" in self.uav_ue_models else (phys.h_bs,)
        for h_tx in heights:
            gap = h_tx - phys.h_ue
            notes += ohplm_range_problems(phys.f_c_mhz, h_tx, phys.h_ue, gap,
                                          math.hypot(diagonal, gap))
        return list(dict.fromkeys(notes))

    # -- validation ----------------------------------------------------------

    def validate(self) -> list[str]:
        """Every violated invariant, as human-readable diagnostics: the ValueError of
        each builder a run calls, then the rules that span fields."""
        out: list[str] = []
        if self.schema_version != SCHEMA_VERSION:
            out.append(f"schema_version must be {SCHEMA_VERSION}, got {self.schema_version}")
        if self.realizations < 1:
            out.append("realizations must be >= 1")
        if self.master_seed < 0:
            out.append("master_seed must be >= 0")
        for label, values, allowed in (("uav_ue_model", self.uav_ue_models, UE_LINK_MODELS),
                                       ("criterion", self.criteria, CRITERIA),
                                       ("mode", self.modes, MODES),
                                       ("antenna mode", self.antenna_modes, ANTENNA_MODES),
                                       ("sweep T", self.sweep_t, None),
                                       ("sweep n_mbs", self.sweep_n_mbs, None)):
            if not values:
                out.append(f"no {label} is listed")
            out += [f"{label} {v!r} must be one of {allowed}" for v in values
                    if allowed and v not in allowed]
            # a repeated value would add its samples to the same sweep point again
            out += [f"{label} {v!r} is listed more than once"
                    for v in dict.fromkeys(v for v in values if values.count(v) > 1)]
        if "relay" in self.modes:
            problem = uma_av_altitude_problem(self.physical.h_uav)
            if problem:
                out.append(problem)
        # MPLM even when no link uses it: its settings are part of the config, and
        # the other models take none
        _built(out, self.ue_model, "mplm")

        # every MBS->UE link is Okumura-Hata
        lo, hi = OHPLM_FC_RANGE
        if not (lo <= self.physical.f_c_mhz <= hi):
            out.append(f"f_c_mhz={self.physical.f_c_mhz} outside OHPLM range [{lo}, {hi}]")

        grid = _built(out, StateGrid.from_mission, self.mission, self.cell_m)
        actions = _built(out, ActionSet.standard, self.cell_m, self.mission.stage_dt,
                         self.physical.v_max)
        # fewest grid stages from start to finish, whatever T is
        need_stages = 0 if grid is None or actions is None else min_stages(grid, actions)
        cells = 0 if grid is None else grid.nx * grid.ny
        for t in dict.fromkeys(tuple(self.sweep_t) + (self.showcase_t,)):
            mission = _built(out, self.mission_for, t, prefix=f"duration T={t}: ")
            if mission is None:
                continue
            # the action set caps the diagonal speed at v_max, so this rule also
            # keeps T above the straight-line time at v_max
            if mission.n_stages < need_stages:
                out.append(f"T={t}s gives {mission.n_stages} stages of {mission.stage_dt}s, "
                           f"but the grid path from start to finish needs {need_stages}")
            elif cells * mission.n_stages > LATTICE_BYTES:
                out.append(f"T={t}s: the DP policy over {grid.nx}x{grid.ny} cells and "
                           f"{mission.n_stages} stages {_over_budget(cells * mission.n_stages)}")
            if mission.n_stages > MAX_STAGES:
                out.append(f"T={t}s: the Bezier smoothing of {mission.n_stages} stages is "
                           f"above its cap of {MAX_STAGES} (its time grows as the cube of "
                           f"the stage count)")
        # expected node counts: the Poisson means that generate_scenario draws from
        area = area_km2(self.mission.area_ue)
        for label, n_mbs in ([("n_mbs", n) for n in self.sweep_n_mbs]
                             + [("showcase_n_mbs", self.showcase_n_mbs)]):
            if not n_mbs > 0:
                out.append(f"{label}={n_mbs} must be positive")
                continue
            if not n_mbs <= MAX_POISSON_MEAN:
                out.append(f"{label}={n_mbs} exceeds the largest expected node "
                           f"count {MAX_POISSON_MEAN:g}")
                continue
            if log_mbs_shortfall_chance(n_mbs, self.min_mbs) > math.log(MBS_SHORTFALL_CHANCE):
                out.append(f"{label}={n_mbs} is too small: all {MAX_MBS_REDRAWS + 1} draws "
                           f"of a scenario fall below min_mbs={self.min_mbs} with a chance "
                           f"above {MBS_SHORTFALL_CHANCE:g}")
        if not self.physical.lambda_ue * area <= MAX_POISSON_MEAN:
            out.append(f"lambda_ue={self.physical.lambda_ue} over area_ue exceeds the "
                       f"largest expected node count {MAX_POISSON_MEAN:g}")
        working = cells * 8 * (len(self.criteria) + 2 * len(actions or ()) + 3)
        if working > LATTICE_BYTES:
            out.append(f"run.cell_m={self.cell_m}: the whole-grid working set over {grid.nx}x"
                       f"{grid.ny} cells {_over_budget(working)}")
        return out

    def to_json_dict(self) -> dict:
        doc: dict = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if is_dataclass(value):
                value = asdict(value)
            elif isinstance(value, tuple):
                value = list(value)
            section, _, key = f.metadata["path"].rpartition(".")
            (doc.setdefault(section, {}) if section else doc)[key] = value
        return doc


def _built(out: list[str], build, *args, prefix: str = ""):
    """build(*args), or None after appending its ValueError's text to out."""
    try:
        return build(*args)
    except ValueError as exc:
        out.append(f"{prefix}{exc}")


def _over_budget(size: float) -> str:
    # rounded up, so a refused size never prints at or below the budget
    return (f"takes {math.ceil(size / 2**20)} MiB, above the lattice budget of "
            f"{LATTICE_BYTES / 2**20:g} MiB")


def from_json_dict(doc: dict) -> RunConfig:
    layout: dict[str, list[str]] = {}  # the keys of each section, "" for the top level
    for f in fields(RunConfig):
        section, _, key = f.metadata["path"].rpartition(".")
        layout.setdefault(section, []).append(key)
    sections = {"": _take(doc, layout[""] + [s for s in layout if s], "config")}
    for key in ("schema_version", "master_seed"):
        if key not in sections[""]:
            raise ConfigError(f"missing required key {key!r}")

    kw = {}
    for f in fields(RunConfig):
        path, read = f.metadata["path"], f.metadata["read"]
        section, _, key = path.rpartition(".")
        if section not in sections:
            sections[section] = _take(sections[""].get(section, {}), layout[section], section)
        if key in sections[section]:
            value = sections[section][key]
            kw[f.name] = value if read is None else read(value, path)
    # a sweep or showcase without T flies the mission's own duration
    duration = kw.get("mission", RunConfig.mission).duration_t
    if "sweep_t" not in kw:
        kw["sweep_t"] = _floats([duration], "sweep.t_values")
    if "showcase_t" not in kw:
        kw["showcase_t"] = _float(duration, "showcase.t")
    return RunConfig(**kw)


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return from_json_dict(doc)
