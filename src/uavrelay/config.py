"""Run configuration: a strict, versioned JSON schema and its validation.

The file is a single JSON object; unknown keys are rejected everywhere so a
typo cannot silently fall back to a default. `schema_version` and
`master_seed` are required, everything else has Table-style defaults.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace

from .antenna import CrossedDipole, Omni
from .pathloss import (BackhaulUmaAvModel, BuildingModel, FsplModel, LinkModels,
                       MplmModel, OhplmModel, OHPLM_FC_RANGE, fspl)
from .radio import CRITERIA, MODES, RELAY_RULES, AntennaSetup
from .scenario import (MAX_POISSON_MEAN, Mission, PhysicalConfig, area_km2,
                       rect_contains, t_min)

SCHEMA_VERSION = 1

UE_LINK_MODELS = ("ohplm", "mplm", "fspl")
BACKHAUL_MODELS = ("uma_av",)
ANTENNA_MODES = ("omni", "dipole")
MPLM_REFERENCES = ("unit", "friis_1m")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class MplmSettings:
    a_hat: float = 0.1
    b_hat: float = 100.0
    c_hat: float = 10.0
    variant: str = "corrected"
    # anchor of the d^-alpha law: "unit" (1 m, bare exponent law) or
    # "friis_1m" (free-space loss at 1 m added), or an explicit dB offset
    reference: str | float = "friis_1m"


@dataclass(frozen=True)
class DipoleSettings:
    # equal spins keep the MBS-UAV backhaul pair polarization matched
    mbs_spin: int = 1
    uav_spin: int = 1


@dataclass(frozen=True)
class RunConfig:
    physical: PhysicalConfig = PhysicalConfig()
    mission: Mission = Mission()
    mbs_ue_model: str = "ohplm"
    uav_ue_models: tuple[str, ...] = ("ohplm",)
    mplm: MplmSettings = MplmSettings()
    backhaul_model: str | None = None
    relay_rule: str = "best_direct"
    criteria: tuple[str, ...] = ("pf",)
    modes: tuple[str, ...] = ("standalone",)
    antenna_modes: tuple[str, ...] = ("omni",)
    dipole: DipoleSettings = DipoleSettings()
    sweep_t: tuple[float, ...] = (240.0,)
    sweep_n_mbs: tuple[float, ...] = (4.0,)
    realizations: int = 30
    master_seed: int = 1
    showcase_t: float = 240.0
    showcase_n_mbs: float = 4.0
    cell_m: float = 100.0
    schema_version: int = SCHEMA_VERSION

    # -- derived builders ---------------------------------------------------

    def mission_for(self, duration_t: float) -> Mission:
        return replace(self.mission, duration_t=float(duration_t))

    @property
    def min_mbs(self) -> int:
        """Fewest MBSs a scenario may have; the relay backhaul needs an interferer."""
        return 2 if "relay" in self.modes else 1

    def physical_for(self, n_mbs: float) -> PhysicalConfig:
        """n_mbs is the expected MBS count over the node area."""
        lam = float(n_mbs) / area_km2(self.mission.area_ue)
        return replace(self.physical, lambda_mbs=lam)

    def _mplm_ref_db(self) -> float:
        ref = self.mplm.reference
        if ref == "unit":
            return 0.0
        if ref == "friis_1m":
            return fspl(1.0, self.physical.f_c_mhz)
        return float(ref)

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
                variant=self.mplm.variant,
                ref_db=self._mplm_ref_db(),
            )
        raise ConfigError(f"unknown UE link model {name!r}")

    def link_models(self, uav_ue_model: str) -> LinkModels:
        backhaul = BackhaulUmaAvModel() if self.backhaul_model == "uma_av" else None
        return LinkModels(
            mbs_ue=self.ue_model(self.mbs_ue_model),
            uav_ue=self.ue_model(uav_ue_model),
            backhaul=backhaul,
        )

    def antenna_setup(self, name: str) -> AntennaSetup:
        if name == "omni":
            return AntennaSetup(mbs=Omni(), uav=Omni())
        if name == "dipole":
            return AntennaSetup(mbs=CrossedDipole(self.dipole.mbs_spin),
                                uav=CrossedDipole(self.dipole.uav_spin))
        raise ConfigError(f"unknown antenna mode {name!r}")

    def combinations(self):
        """(uav_ue_model, antenna, mode, LinkModels, AntennaSetup) in output order."""
        for model_name in self.uav_ue_models:
            models = self.link_models(model_name)
            for antenna_name in self.antenna_modes:
                ants = self.antenna_setup(antenna_name)
                for mode in self.modes:
                    yield model_name, antenna_name, mode, models, ants

    # -- validation ----------------------------------------------------------

    def validate(self) -> list[str]:
        """Every violated invariant, as human-readable diagnostics."""
        out: list[str] = []
        if self.schema_version != SCHEMA_VERSION:
            out.append(f"schema_version must be {SCHEMA_VERSION}, got {self.schema_version}")
        if self.realizations < 1:
            out.append("realizations must be >= 1")
        if self.master_seed < 0:
            out.append("master_seed must be >= 0")
        if self.mbs_ue_model not in UE_LINK_MODELS:
            out.append(f"mbs_ue_model must be one of {UE_LINK_MODELS}")
        for label, values, allowed in (("uav_ue_model", self.uav_ue_models, UE_LINK_MODELS),
                                       ("criterion", self.criteria, CRITERIA),
                                       ("mode", self.modes, MODES),
                                       ("antenna mode", self.antenna_modes, ANTENNA_MODES)):
            out += [f"{label} {v!r} must be one of {allowed}" for v in values if v not in allowed]
        if self.relay_rule not in RELAY_RULES:
            out.append(f"relay_rule must be one of {RELAY_RULES}")
        if self.backhaul_model is not None and self.backhaul_model not in BACKHAUL_MODELS:
            out.append(f"backhaul_model must be one of {BACKHAUL_MODELS} or null")
        if "relay" in self.modes and self.backhaul_model is None:
            out.append("relay mode requires a backhaul_model")
        if self.mplm.variant not in ("corrected", "as_written"):
            out.append("mplm.variant must be 'corrected' or 'as_written'")
        if isinstance(self.mplm.reference, str) and self.mplm.reference not in MPLM_REFERENCES:
            out.append(f"mplm.reference must be a dB number or one of {MPLM_REFERENCES}")
        if not (0 < self.mplm.a_hat < 1) or self.mplm.b_hat <= 0 or self.mplm.c_hat <= 0:
            out.append("mplm building parameters out of range")
        if self.dipole.mbs_spin not in (-1, 1) or self.dipole.uav_spin not in (-1, 1):
            out.append("dipole spins must be +1 or -1")

        uses_ohplm = self.mbs_ue_model == "ohplm" or "ohplm" in self.uav_ue_models
        lo, hi = OHPLM_FC_RANGE
        if uses_ohplm and not (lo <= self.physical.f_c_mhz <= hi):
            out.append(f"f_c_mhz={self.physical.f_c_mhz} outside OHPLM range [{lo}, {hi}]")

        need = t_min(self.mission.start, self.mission.finish, self.physical.v_max)
        for t in dict.fromkeys(tuple(self.sweep_t) + (self.showcase_t,)):
            if not math.isfinite(t):
                out.append(f"duration T={t} must be finite")
                continue
            if t < need:
                out.append(f"T={t}s is below T_min={need:.3f}s")
            n = t / self.mission.stage_dt
            if abs(n - round(n)) > 1e-9:
                out.append(f"T={t}s is not a multiple of stage_dt={self.mission.stage_dt}s")
        # expected node counts, computed as generate_scenario computes them
        area = area_km2(self.mission.area_ue)
        for label, n_mbs in ([("n_mbs", n) for n in self.sweep_n_mbs]
                             + [("showcase_n_mbs", self.showcase_n_mbs)]):
            if not n_mbs > 0:
                out.append(f"{label}={n_mbs} must be positive")
            elif not self.physical_for(n_mbs).lambda_mbs * area <= MAX_POISSON_MEAN:
                out.append(f"{label}={n_mbs} exceeds the largest expected node "
                           f"count {MAX_POISSON_MEAN:g}")
        if not self.physical.lambda_ue * area <= MAX_POISSON_MEAN:
            out.append(f"lambda_ue={self.physical.lambda_ue} over area_ue exceeds the "
                       f"largest expected node count {MAX_POISSON_MEAN:g}")

        if not rect_contains(self.mission.area_uav, [self.mission.start, self.mission.finish]):
            out.append("mission endpoints must lie inside the flight area")
        try:
            from .planner import ActionSet, StateGrid
            StateGrid.from_mission(self.mission, self.cell_m)
            ActionSet.standard(self.cell_m, self.mission.stage_dt, self.physical.v_max)
        except ValueError as exc:
            out.append(str(exc))
        return out

    def to_json_dict(self) -> dict:
        d = {
            "schema_version": self.schema_version,
            "master_seed": self.master_seed,
            "physical": asdict(self.physical),
            "mission": asdict(self.mission),
            "models": {
                "mbs_ue": self.mbs_ue_model,
                "uav_ue": list(self.uav_ue_models),
                "backhaul": self.backhaul_model,
                "mplm": asdict(self.mplm),
            },
            "run": {
                "criteria": list(self.criteria),
                "modes": list(self.modes),
                "relay_rule": self.relay_rule,
                "antenna_modes": list(self.antenna_modes),
                "dipole": asdict(self.dipole),
                "realizations": self.realizations,
                "cell_m": self.cell_m,
            },
            "sweep": {
                "t_values": list(self.sweep_t),
                "n_mbs_values": list(self.sweep_n_mbs),
            },
            "showcase": {"t": self.showcase_t, "n_mbs": self.showcase_n_mbs},
        }
        return d


def _take(section: dict, allowed: dict, where: str) -> dict:
    """Map JSON keys to kwargs, rejecting anything unknown."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object, got {section!r}")
    out = {}
    for key, value in section.items():
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}")
        out[allowed[key]] = value
    return out


def _number(kind, value, where: str):
    """int(value) or float(value), with a bad value reported as a ConfigError."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where} must be a number, got {value!r}") from exc


def _list(value, where: str, length: int | None = None) -> list:
    """A JSON list field; a bare string is a one-element list."""
    if isinstance(value, str):
        value = [value]
    if not isinstance(value, (list, tuple)) or length not in (None, len(value)):
        size = f" of {length}" if length else ""
        raise ConfigError(f"{where} must be a list{size}, got {value!r}")
    return list(value)


def _floats(value, where: str, length: int | None = None) -> tuple[float, ...]:
    return tuple(_number(float, v, where) for v in _list(value, where, length))


def from_json_dict(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    top_allowed = {"schema_version", "master_seed", "physical", "mission",
                   "models", "run", "sweep", "showcase"}
    for key in doc:
        if key not in top_allowed:
            raise ConfigError(f"unknown key {key!r} at top level")
    for key in ("schema_version", "master_seed"):
        if key not in doc:
            raise ConfigError(f"missing required key {key!r}")

    phys_fields = {f: f for f in PhysicalConfig.__dataclass_fields__}
    try:
        physical = PhysicalConfig(**_take(doc.get("physical", {}), phys_fields, "physical"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"physical: {exc}") from exc

    msec = dict(doc.get("mission", {}))
    m_allowed = {f: f for f in Mission.__dataclass_fields__}
    mkw = _take(msec, m_allowed, "mission")
    for key, length in (("start", 2), ("finish", 2), ("area_ue", 4), ("area_uav", 4)):
        if key in mkw:
            mkw[key] = _floats(mkw[key], f"mission.{key}", length)
    try:
        mission = Mission(**mkw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"mission: {exc}") from exc

    models = doc.get("models", {})
    mo = _take(models, {"mbs_ue": "mbs_ue", "uav_ue": "uav_ue",
                        "backhaul": "backhaul", "mplm": "mplm"}, "models")
    mplm_kw = _take(mo.get("mplm", {}),
                    {f: f for f in MplmSettings.__dataclass_fields__}, "models.mplm")
    for key in ("a_hat", "b_hat", "c_hat"):
        if key in mplm_kw:
            mplm_kw[key] = _number(float, mplm_kw[key], f"models.mplm.{key}")
    if not isinstance(mplm_kw.get("reference", ""), str):
        mplm_kw["reference"] = _number(float, mplm_kw["reference"], "models.mplm.reference")

    run = doc.get("run", {})
    ru = _take(run, {"criteria": "criteria", "modes": "modes",
                     "relay_rule": "relay_rule", "antenna_modes": "antenna_modes",
                     "dipole": "dipole", "realizations": "realizations",
                     "cell_m": "cell_m"}, "run")
    dipole_kw = _take(ru.get("dipole", {}),
                      {f: f for f in DipoleSettings.__dataclass_fields__}, "run.dipole")

    sweep = doc.get("sweep", {})
    sw = _take(sweep, {"t_values": "t_values", "n_mbs_values": "n_mbs_values"}, "sweep")

    showcase = doc.get("showcase", {})
    sc = _take(showcase, {"t": "t", "n_mbs": "n_mbs"}, "showcase")

    return RunConfig(
        physical=physical,
        mission=mission,
        mbs_ue_model=mo.get("mbs_ue", "ohplm"),
        uav_ue_models=tuple(_list(mo.get("uav_ue", ["ohplm"]), "models.uav_ue")),
        mplm=MplmSettings(**mplm_kw),
        backhaul_model=mo.get("backhaul"),
        relay_rule=ru.get("relay_rule", "best_direct"),
        criteria=tuple(_list(ru.get("criteria", ["pf"]), "run.criteria")),
        modes=tuple(_list(ru.get("modes", ["standalone"]), "run.modes")),
        antenna_modes=tuple(_list(ru.get("antenna_modes", ["omni"]), "run.antenna_modes")),
        dipole=DipoleSettings(**dipole_kw),
        sweep_t=_floats(sw.get("t_values", [mission.duration_t]), "sweep.t_values"),
        sweep_n_mbs=_floats(sw.get("n_mbs_values", [4.0]), "sweep.n_mbs_values"),
        realizations=_number(int, ru.get("realizations", 30), "run.realizations"),
        master_seed=_number(int, doc["master_seed"], "master_seed"),
        showcase_t=_number(float, sc.get("t", mission.duration_t), "showcase.t"),
        showcase_n_mbs=_number(float, sc.get("n_mbs", 4.0), "showcase.n_mbs"),
        cell_m=_number(float, ru.get("cell_m", 100.0), "run.cell_m"),
        schema_version=_number(int, doc["schema_version"], "schema_version"),
    )


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise FileNotFoundError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return from_json_dict(doc)
