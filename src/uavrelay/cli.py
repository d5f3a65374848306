"""Command-line entry point: run experiments, validate configs, dump tables.

Subcommands
    run              full sweep + showcase trajectories/heat maps + manifest
    validate         check a config without executing anything
    pathloss-table   loss-vs-distance CSV for every configured model
    antenna-pattern  crossed-dipole gain over (theta, phi)
    heatmap          reward/SIR heat maps for the showcase scenario only

Exit codes: 0 ok; 1 the config was read but is not a valid config (not JSON
or not UTF-8, a bad key or value, or a failed validation; diagnostics printed);
2 the config file cannot be read, an output path cannot be written, or the
command line is malformed (argparse's usage error, e.g. --jobs below 1).
"""
from __future__ import annotations

import argparse
import importlib.resources
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, metrics, output, pathloss, radio
from .antenna import CrossedDipole, radiation_gain
from .config import ConfigError, RunConfig, from_json_dict, load_config
# unused here: perfbench/spans.py wraps cli.solve_dp and cli.generate_scenario by name
from .planner import solve_dp
from .scenario import generate_scenario

PRESETS = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7")


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
    """Names the files a run writes so a failure leaves no partial output."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.names: list[str] = []

    def path(self, name: str) -> Path:
        self.names.append(name)
        return self.out_dir / name


def _rejected(cfg: RunConfig) -> bool:
    """Print cfg's validation diagnostics to stderr; True if there are any."""
    diagnostics = cfg.validate()
    for d in diagnostics:
        print(f"config error: {d}", file=sys.stderr)
    return bool(diagnostics)


def _write_outputs(cfg: RunConfig, out_dir: str, write) -> int:
    """Validate cfg and print its OHPLM notes, then call write(cfg, tracker); on
    failure or interruption (Ctrl-C) remove what it wrote."""
    if _rejected(cfg):
        return 1
    for note in cfg.ohplm_notes():
        print(note, file=sys.stderr)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out = _OutputTracker(out_dir)
    try:
        write(cfg, out)
    except BaseException:
        for name in out.names:
            (out_dir / name).unlink(missing_ok=True)
        raise
    print(f"wrote {len(out.names)} files to {out_dir}")
    return 0


def _write_showcase(cfg: RunConfig, out: _OutputTracker, showcase=None) -> None:
    """Heat maps, trajectories and smoothed curves of sweep realization 0 at the showcase point.

    showcase is the sweep's plan of that point (SweepResult.showcase); without one,
    realization 0 runs here at (showcase_t,) for the same bits; its samples and counters go.
    """
    if showcase is None:
        showcase = metrics.run_realization(cfg, (cfg.showcase_t,), cfg.showcase_n_mbs, 0)[3]
    for tag, heat_map, traj, sm in showcase:
        heat_map.to_csv(out.path(f"heatmap_{tag}.csv"))
        traj.to_csv(out.path(f"trajectory_{tag}.csv"))
        traj.to_json(out.path(f"trajectory_{tag}.json"))
        sm.to_csv(out.path(f"smoothed_{tag}.csv"))


def cmd_run(args) -> int:
    def write(cfg: RunConfig, out: _OutputTracker) -> None:
        result = metrics.monte_carlo_sweep(cfg, jobs=args.jobs)
        result.write(out.path("sweep.csv"), out.path("sweep.json"))
        _write_showcase(cfg, out, result.showcase)
        manifest = {
            "package": "uavrelay",
            "version": __version__,
            "master_seed": cfg.master_seed,
            "config": cfg.to_json_dict(),
            "outputs": sorted(out.names),
            "trajectory_violations": result.trajectory_violations,
            "mbs_rejections": result.mbs_rejections,
        }
        output.write_json(out.path("manifest.json"), manifest)

    return _write_outputs(_resolve_config(args), args.out, write)


def cmd_validate(args) -> int:
    diagnostics = _resolve_config(args).validate()
    for d in diagnostics:
        print(f"config error: {d}")
    if not diagnostics:
        print("config ok")
    return 1 if diagnostics else 0


def cmd_pathloss_table(args) -> int:
    cfg = _resolve_config(args) if (args.config or args.preset) else RunConfig()
    if _rejected(cfg):
        return 1
    phys = cfg.physical
    distances = np.arange(50.0, 1501.0, 25.0)
    # name -> (model, h_tx, h_rx): each row is priced as a run prices that link
    models = {
        "ohplm_mbs": (radio.MBS_UE_LAW, phys.h_bs, phys.h_ue),
        "ohplm_uav": (cfg.ue_model("ohplm"), phys.h_uav, phys.h_ue),
        "fspl": (cfg.ue_model("fspl"), phys.h_uav, phys.h_ue),
        "backhaul_uma_av": (radio.BACKHAUL_LAW, phys.h_bs, phys.h_uav),
        "mplm": (cfg.ue_model("mplm"), phys.h_uav, phys.h_ue),
    }
    problem = pathloss.uma_av_altitude_problem(phys.h_uav)
    if problem:  # only relay mode uses the backhaul, so a standalone config may be here
        print(f"skipping backhaul_uma_av: {problem}", file=sys.stderr)
        del models["backhaul_uma_av"]
    # the two OHPLM rows are written whatever models the config runs
    notes = [note for h_tx in (phys.h_bs, phys.h_uav) for note in pathloss.ohplm_range_problems(
        phys.f_c_mhz, h_tx, phys.h_ue, distances[0], distances[-1])]
    for note in dict.fromkeys(notes):
        print(note, file=sys.stderr)
    rows = []
    for name, (model, h_tx, h_rx) in models.items():
        gap = h_tx - h_rx
        # a slant range cannot be shorter than the height gap; only MPLM reads z
        d = distances[distances > gap] if name == "mplm" else distances
        z = np.sqrt(np.maximum(d * d - gap * gap, 0.0))
        loss = model.loss_db(d, z, f_c_mhz=phys.f_c_mhz, h_tx=h_tx, h_rx=h_rx)
        rows += [(name, *row) for row in zip(d, loss)]
    output.write_csv(args.out, ["model", "d_m", "loss_db"], rows)
    print(f"wrote {args.out}")
    return 0


def cmd_antenna_pattern(args) -> int:
    angles = [(theta, phi) for theta in range(0, 181, 5) for phi in range(0, 360, 5)]
    radians = ((math.radians(theta), math.radians(phi)) for theta, phi in angles)
    dx, dy, dz = zip(*((math.sin(t) * math.cos(p), math.sin(t) * math.sin(p), math.cos(t))
                       for t, p in radians))
    gains = radiation_gain(dx, dy, dz, CrossedDipole()).tolist()
    output.write_csv(args.out, ["theta_deg", "phi_deg", "gain_linear", "gain_db"],
                     ((theta, phi, g, 10.0 * math.log10(g))
                      for (theta, phi), g in zip(angles, gains)))
    print(f"wrote {args.out}")
    return 0


def cmd_heatmap(args) -> int:
    return _write_outputs(_resolve_config(args), args.out, _write_showcase)


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


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
    p.add_argument("--jobs", type=positive_int, default=1, help="parallel workers (at least 1)")
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
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
