"""Command-line entry point: run experiments, validate configs, dump tables.

Subcommands
    run              full sweep + showcase trajectories/heat maps + manifest
    validate         check a config without executing anything
    pathloss-table   loss-vs-distance CSV for every configured model
    antenna-pattern  crossed-dipole gain over (theta, phi)
    heatmap          reward/SIR heat maps for the showcase scenario only

Exit codes: 0 ok, 1 invalid config (diagnostics printed), 2 unreadable or
unparsable input.
"""
from __future__ import annotations

import argparse
import csv
import importlib.metadata
import importlib.resources
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import metrics, pathloss, radio, smoothing
from .antenna import CrossedDipole, radiation_gain
from .config import ConfigError, RunConfig, from_json_dict, load_config
from .planner import ActionSet, StateGrid, solve_dp
from .scenario import generate_scenario

PRESETS = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7")


def package_version() -> str:
    try:
        return importlib.metadata.version("uavrelay")
    except importlib.metadata.PackageNotFoundError:  # pragma: no cover
        return "unknown"


def load_preset(name: str) -> RunConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {PRESETS}")
    ref = importlib.resources.files("uavrelay").joinpath(f"presets/{name}.json")
    return from_json_dict(json.loads(ref.read_text(encoding="utf-8")))


def _resolve_config(args) -> RunConfig:
    if bool(args.config) == bool(args.preset):
        raise ConfigError("exactly one of --config or --preset is required")
    cfg = load_preset(args.preset) if args.preset else load_config(args.config)
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, master_seed=args.seed)
    return cfg


class _OutputTracker:
    """Collects files written by a run so failures leave no partial output."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.files: list[Path] = []

    def path(self, name: str) -> Path:
        p = self.out_dir / name
        self.files.append(p)
        return p

    def discard_all(self) -> None:
        for p in self.files:
            p.unlink(missing_ok=True)


def _write_showcase(cfg: RunConfig, out: _OutputTracker) -> list[str]:
    """Trajectories, smoothed curves and heat maps for the showcase scenario."""
    written = []
    physical = cfg.physical_for(cfg.showcase_n_mbs)
    mission = cfg.mission_for(cfg.showcase_t)
    scn = generate_scenario(physical, mission, cfg.master_seed, min_mbs=cfg.min_mbs)
    grid = StateGrid.from_mission(mission, cfg.cell_m)
    actions = ActionSet.standard(cfg.cell_m, mission.stage_dt, physical.v_max)
    for model_name, antenna_name, mode, models, ants in cfg.combinations():
        maps = radio.build_reward_maps(scn, cfg.criteria, mode, models, ants,
                                       grid, cfg.relay_rule)
        for criterion in cfg.criteria:
            tag = f"{criterion}_{mode}_{model_name}_{antenna_name}"
            maps[criterion].to_csv(out.path(f"heatmap_{tag}.csv"))
            written.append(f"heatmap_{tag}.csv")
            traj = solve_dp(maps[criterion], grid, actions, stage_dt=mission.stage_dt)
            traj.to_csv(out.path(f"trajectory_{tag}.csv"))
            traj.to_json(out.path(f"trajectory_{tag}.json"))
            written += [f"trajectory_{tag}.csv", f"trajectory_{tag}.json"]
            sm = smoothing.smooth(traj, v_max=physical.v_max)
            sm.to_csv(out.path(f"smoothed_{tag}.csv"))
            written.append(f"smoothed_{tag}.csv")
    return written


def cmd_run(args) -> int:
    cfg = _resolve_config(args)
    diagnostics = cfg.validate()
    if diagnostics:
        for d in diagnostics:
            print(f"config error: {d}", file=sys.stderr)
        return 1
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out = _OutputTracker(out_dir)
    pathloss.reset_validity_warnings()
    try:
        result = metrics.monte_carlo_sweep(cfg, jobs=args.jobs)
        result.to_csv(out.path("sweep.csv"))
        with open(out.path("sweep.json"), "w", encoding="utf-8", newline="\n") as fh:
            json.dump(result.to_json_dict(), fh, indent=1)
            fh.write("\n")
        outputs = ["sweep.csv", "sweep.json"]
        outputs += _write_showcase(cfg, out)
        manifest = {
            "package": "uavrelay",
            "version": package_version(),
            "master_seed": cfg.master_seed,
            "config": cfg.to_json_dict(),
            "outputs": sorted(outputs),
            "trajectory_violations": result.trajectory_violations,
            "mbs_rejections": result.mbs_rejections,
        }
        with open(out.path("manifest.json"), "w", encoding="utf-8", newline="\n") as fh:
            json.dump(manifest, fh, indent=1)
            fh.write("\n")
    except Exception:
        out.discard_all()
        raise
    print(f"wrote {len(outputs) + 1} files to {out_dir}")
    return 0


def cmd_validate(args) -> int:
    try:
        cfg = _resolve_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    diagnostics = cfg.validate()
    for d in diagnostics:
        print(f"config error: {d}")
    if not diagnostics:
        print("config ok")
    return 1 if diagnostics else 0


def cmd_pathloss_table(args) -> int:
    cfg = _resolve_config(args) if (args.config or args.preset) else RunConfig()
    phys = cfg.physical
    rows = []
    distances = np.arange(50.0, 1501.0, 25.0)
    ground = {
        "ohplm_mbs": lambda d: pathloss.hata_path_loss(d, phys.f_c_mhz, phys.h_bs, phys.h_ue),
        "ohplm_uav": lambda d: pathloss.hata_path_loss(d, phys.f_c_mhz, phys.h_uav, phys.h_ue),
        "fspl": lambda d: pathloss.fspl(d, phys.f_c_mhz),
        "backhaul_uma_av": lambda d: pathloss.backhaul_path_loss(d, phys.f_c_mhz, phys.h_uav),
    }
    mplm_model = cfg.ue_model("mplm")
    dh = phys.h_uav - phys.h_ue
    for name, fn in ground.items():
        for d in distances:
            rows.append((name, float(d), float(fn(d))))
    for d in distances:
        if d <= dh:
            continue  # slant range cannot be shorter than the height gap
        z = math.sqrt(d * d - dh * dh)
        loss = mplm_model.loss_db(d, z, f_c_mhz=phys.f_c_mhz, h_tx=phys.h_uav, h_rx=phys.h_ue)
        rows.append(("mplm", float(d), float(loss)))
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["model", "d_m", "loss_db"])
        for name, d, loss in rows:
            w.writerow([name, repr(d), repr(loss)])
    print(f"wrote {args.out}")
    return 0


def cmd_antenna_pattern(args) -> int:
    mode = CrossedDipole(spin=args.spin)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["theta_deg", "phi_deg", "gain_linear", "gain_db"])
        for theta in range(0, 181, 5):
            for phi in range(0, 360, 5):
                th = math.radians(theta)
                ph = math.radians(phi)
                d = (math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph), math.cos(th))
                g = float(radiation_gain(np.array(d), mode))
                w.writerow([theta, phi, repr(g), repr(10.0 * math.log10(g))])
    print(f"wrote {args.out}")
    return 0


def cmd_heatmap(args) -> int:
    cfg = _resolve_config(args)
    diagnostics = cfg.validate()
    if diagnostics:
        for d in diagnostics:
            print(f"config error: {d}", file=sys.stderr)
        return 1
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out = _OutputTracker(out_dir)
    try:
        written = _write_showcase(cfg, out)
    except Exception:
        out.discard_all()
        raise
    print(f"wrote {len(written)} files to {out_dir}")
    return 0


def _add_config_args(p: argparse.ArgumentParser, with_seed: bool = True) -> None:
    p.add_argument("--config", help="path to a JSON run configuration")
    p.add_argument("--preset", help=f"named preset, one of {', '.join(PRESETS)}")
    if with_seed:
        p.add_argument("--seed", type=int, help="override the master seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="uavrelay",
                                     description="UAV relay trajectory simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute a configured experiment")
    _add_config_args(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("validate", help="validate a config without running")
    _add_config_args(p, with_seed=False)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("pathloss-table", help="dump loss vs distance CSV")
    _add_config_args(p, with_seed=False)
    p.add_argument("--out", required=True, help="output CSV file")
    p.set_defaults(fn=cmd_pathloss_table)

    p = sub.add_parser("antenna-pattern", help="dump crossed-dipole gain CSV")
    p.add_argument("--out", required=True, help="output CSV file")
    p.add_argument("--spin", type=int, default=1, choices=(-1, 1))
    p.set_defaults(fn=cmd_antenna_pattern)

    p = sub.add_parser("heatmap", help="dump showcase heat maps and trajectories")
    _add_config_args(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_heatmap)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
