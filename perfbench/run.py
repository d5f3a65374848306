"""uavrelay benchmark: timed `uavrelay run` sweeps on two preset workloads.

Run from the repository root:

    python3 perfbench/run.py --workload fig7-relay-dipole --seed 272 --seconds 50 --trace 0

The program under test is imported from `src/` of the same checkout; with no
`src/uavrelay` there the benchmark exits with code 2 and prints no result.

Each run is one in-process `uavrelay.cli.main(["run", "--config", <generated
config>, "--out", <dir>, "--jobs", N])`, made by this single client process
one at a time (closed loop). The config is the workload's preset with only
`master_seed` (= --seed) and `realizations` set. A run fails if it raises,
returns non-zero, or writes CSVs whose sha256 digests differ from what they
must equal: the recorded reference (reference.json, seed 272, checked once
per invocation), the first timed run (every later run of the same config),
and, on the pool workload, a serial run of the same config. `attempted` counts
the distinct inputs run (reference config, workload config, serial twin) and
`failed` those with a failed run, so both repeat exactly for a given seed.

--trace 0 repeats untraced runs for --seconds and reports the end-to-end
metrics; --trace 1 alternates untraced and traced runs (see spans.py) and
reports per-layer metrics. The last stdout line is the result object; the
line before it carries provenance, samples and output digests.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import importlib.resources
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import spans as spanlib

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
REFERENCE_SEED = 272
MIN_REPEATS = 3
MIN_TRACED = 2
SETUP_SAMPLES = 7
WORKLOAD_OP = "workload config"


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    realizations: int
    jobs: int


WORKLOADS = {w.name: w for w in (
    Workload("fig7-relay-dipole", "fig7", 5, 1),
    Workload("fig5-mplm-jobs2", "fig5", 10, 2),
)}

E2E_UNITS = {"realizations_per_s": "1/s", "run_wall_s": "s", "setup_s": "s",
             "peak_rss_mb": "MiB"}

# ratios computed from counts alone; like the counts they must repeat exactly
EXACT_RATIOS = {"radio.link_budgets_per_position", "pathloss.mbs_ue.redundant_share",
                "planner.redundant_stage_share"}


def layer_unit(name: str) -> str:
    if name == "cli.bytes_written":
        return "bytes"
    if name.endswith("_s"):
        return "s"
    if "_ms_" in name:
        return "ms"
    if name.endswith(("_share", "_per_position")):
        return "ratio"
    return "count"


def is_exact(name: str) -> bool:
    return layer_unit(name) in ("count", "bytes") or name in EXACT_RATIOS


def import_program():
    """Import uavrelay from this checkout's src/, or exit 2 if it is absent."""
    if not (SRC / "uavrelay" / "__init__.py").is_file():
        print(f"error: no uavrelay package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    uavrelay = importlib.import_module("uavrelay")
    for name in ("cli", "config", "metrics", "pathloss", "radio", "smoothing"):
        importlib.import_module(f"uavrelay.{name}")
    if Path(uavrelay.__file__).resolve().parent != (SRC / "uavrelay").resolve():
        print(f"error: uavrelay imported from {uavrelay.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return uavrelay


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Attempt:
    wall: float
    digests: dict | None  # None when the run failed
    bytes_written: int = 0
    mbs_redraws: int = 0


class Bench:
    """Makes runs of one workload and keeps the failure accounting.

    An operation is one input the invocation runs: the reference config, the
    workload config, and on the pool workload the serial twin of the workload
    config. Timing repeats run the same input again, so `attempted` counts
    operations and an operation fails if any of its runs fails; both numbers
    depend on the inputs alone, not on how many repeats fit in --seconds.
    Every run is also counted, for the failed-run share in the provenance.
    """

    def __init__(self, uavrelay, workload: Workload, work_dir: Path):
        self.uavrelay = uavrelay
        self.workload = workload
        self.dir = work_dir
        self.operations: dict[str, bool] = {}  # operation -> failed
        self.runs = 0
        self.failed_runs = 0
        self.mismatches = 0
        self.errors: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.operations)

    @property
    def failed(self) -> int:
        return sum(self.operations.values())

    def write_config(self, seed: int) -> Path:
        preset = importlib.resources.files(self.uavrelay).joinpath(
            f"presets/{self.workload.preset}.json")
        doc = json.loads(preset.read_text(encoding="utf-8"))
        doc["master_seed"] = seed
        doc["run"]["realizations"] = self.workload.realizations
        path = self.dir / f"config-{seed}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        return path

    def network_realizations(self, cfg_path: Path) -> int:
        doc = json.loads(cfg_path.read_text(encoding="utf-8"))
        return len(doc["sweep"]["n_mbs_values"]) * doc["run"]["realizations"]

    def _fail(self, op: str, message: str) -> None:
        self.operations[op] = True
        self.failed_runs += 1
        error = f"{op}: {message}"
        if error not in self.errors:  # repeats of a failing input fail alike
            self.errors.append(error)
            print(f"[perfbench] run failed ({error})", file=sys.stderr)

    def attempt(self, cfg_path: Path, jobs: int, expect: dict | None, op: str) -> Attempt:
        """One `uavrelay run` of operation `op`; compares its CSV digests with
        `expect` if given."""
        out = self.dir / "out"
        shutil.rmtree(out, ignore_errors=True)
        argv = ["run", "--config", str(cfg_path), "--out", str(out), "--jobs", str(jobs)]
        self.operations.setdefault(op, False)
        self.runs += 1
        error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = self.uavrelay.cli.main(argv)
            if rc != 0:
                error = f"exit code {rc}"
        except SystemExit as exc:
            error = f"exit code {exc.code}"
        except Exception:  # a crash of the program is a counted failure
            error = traceback.format_exc().strip().splitlines()[-1]
        wall = time.perf_counter() - t0
        if error is not None:
            self._fail(op, error)
            return Attempt(wall, None)
        digests = {p.name: file_sha256(p) for p in sorted(out.glob("*.csv"))}
        if expect is not None and digests != expect:
            differ = sorted(k for k in digests.keys() | expect.keys()
                            if digests.get(k) != expect.get(k))
            self.mismatches += 1
            self._fail(op, f"output digests differ in {len(differ)} files, e.g. {differ[:3]}")
            return Attempt(wall, None)
        sweep = json.loads((out / "sweep.json").read_text(encoding="utf-8"))
        return Attempt(wall, digests,
                       bytes_written=sum(p.stat().st_size for p in out.iterdir()),
                       mbs_redraws=int(sweep["mbs_rejections"]))


def setup_samples(cfg_path: Path, n: int) -> list[float]:
    """Fresh interpreter: import uavrelay, load and validate the config.

    The child reports CLOCK_MONOTONIC (shared by all processes on Linux) once
    the config is valid, so interpreter teardown is not counted.
    """
    child = ("import sys, time\n"
             "sys.path.insert(0, sys.argv[1])\n"
             "import uavrelay.cli\n"
             "if uavrelay.cli.load_config(sys.argv[2]).validate():\n"
             "    sys.exit(1)\n"
             "print(time.monotonic())\n")
    samples = []
    for _ in range(n):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", child, str(SRC), str(cfg_path)],
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return samples


def peak_rss_mib() -> float:
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def layer_metrics(t: spanlib.SpanTable, a: Attempt, jobs: int) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    Code that some workloads never run (backhaul, antenna, non-OHPLM path
    loss) reports its time as a share of the run's wall time.
    """
    sweep = t.get("metrics.monte_carlo_sweep", "busy")
    cells = t.get("radio.build_reward_maps", "work")
    positions = t.get("radio.stage_rates", "work")
    m = {
        "radio.link_budget.calls": t.get("radio.link_budget", "calls"),
        "radio.link_budget.busy_s": t.get("radio.link_budget", "busy"),
        "radio.associate.calls": t.get("radio.associate", "calls"),
        "radio.associate.busy_s": t.get("radio.associate", "busy"),
        "radio.backhaul_budget.calls": t.get("radio.backhaul_budget", "calls"),
        "radio.backhaul_budget.busy_share": t.get("radio.backhaul_budget", "busy") / a.wall,
        "radio.build_reward_maps.self_s": t.get("radio.build_reward_maps", "self"),
        "radio.build_reward_maps.cells": cells,
        "radio.stage_rates.self_s": t.get("radio.stage_rates", "self"),
        "radio.stage_rates.positions": positions,
        "radio.link_budgets_per_position":
            t.get("radio.link_budget", "calls") / max(cells + positions, 1),
    }
    for model in ("ohplm", "mplm", "uma_av"):
        name = f"pathloss.{model}"
        m[f"{name}.calls"] = t.get(name, "calls")
        m[f"{name}.links"] = t.get(name, "work")
        if model == "ohplm":  # the MBS->UE model of every workload
            m[f"{name}.busy_s"] = t.get(name, "busy")
        else:
            m[f"{name}.busy_share"] = t.get(name, "busy") / a.wall
    m["pathloss.mbs_ue.redundant_share"] = t.redundant_share("radio.link_budget")
    for fn in ("ue_link_gain", "combined_gain"):
        m[f"antenna.{fn}.calls"] = t.get(f"antenna.{fn}", "calls")
        m[f"antenna.{fn}.busy_share"] = t.get(f"antenna.{fn}", "busy") / a.wall
    m.update({
        "planner.solve_dp.calls": t.get("planner.solve_dp", "calls"),
        "planner.solve_dp.busy_s": t.get("planner.solve_dp", "busy"),
        "planner.stages_solved": t.get("planner.solve_dp", "work"),
        "planner.redundant_stage_share": t.redundant_share("planner.solve_dp"),
        "planner.check_trajectory.busy_s": t.get("planner.check_trajectory", "busy"),
        "smoothing.smooth.calls": t.get("smoothing.smooth", "calls"),
        "smoothing.smooth.busy_s": t.get("smoothing.smooth", "busy"),
        "smoothing.samples": t.get("smoothing.smooth", "work"),
        "smoothing.evaluate_smoothed.self_s": t.get("smoothing.evaluate_smoothed", "self"),
        "scenario.generate_scenario.calls": t.get("scenario.generate_scenario", "calls"),
        "scenario.generate_scenario.busy_s": t.get("scenario.generate_scenario", "busy"),
        "scenario.mbs_redraws": a.mbs_redraws,
        "metrics.run_realization.calls": t.get("metrics.run_realization", "calls"),
        "metrics.run_realization.self_s": t.get("metrics.run_realization", "self"),
        "metrics.monte_carlo_sweep.wall_s": sweep,
        "metrics.pool_busy_share":
            t.get("metrics.run_realization", "busy") / (jobs * sweep) if sweep else 0.0,
        "config.load_validate_s":
            t.get("config.load_config", "busy") + t.get("config.validate", "busy"),
        "cli.outputs_s": a.wall - sweep,
        "cli.bytes_written": a.bytes_written,
    })
    return m


def run_untraced(bench: Bench, cfg: Path, seconds: float, expect: dict | None):
    """Closed loop of untraced runs for `seconds`.

    Returns (end-to-end metrics, samples, output digests, checks passed).
    """
    w = bench.workload
    walls = []
    end = time.perf_counter() + seconds
    # stop before a repeat would end after --seconds, so a run keeps its length
    while len(walls) < MIN_REPEATS or time.perf_counter() + statistics.median(walls) <= end:
        a = bench.attempt(cfg, w.jobs, expect, WORKLOAD_OP)
        expect = expect or a.digests
        walls.append(a.wall)
    rss = peak_rss_mib()  # before set-up spawns its own children
    setup = setup_samples(cfg, SETUP_SAMPLES)
    n = bench.network_realizations(cfg)
    metrics = {
        "realizations_per_s": statistics.median(n / s for s in walls),
        "run_wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss,
    }
    samples = {"repeats": len(walls), "run_wall_s": walls, "setup_s": setup,
               "network_realizations_per_run": n}
    return metrics, samples, expect, True


def run_traced(bench: Bench, cfg: Path, seconds: float, expect: dict | None):
    """Alternate untraced and traced runs for `seconds`.

    Returns (per-layer metrics, samples, output digests, checks passed); the
    checks are that every traced run saw every realization and that the
    exact counts agree between traced runs.
    """
    w = bench.workload
    untraced, traced, layers, realization_ms = [], [], [], []
    problems = []
    n = bench.network_realizations(cfg)
    end = time.perf_counter() + seconds
    while (len(layers) < MIN_TRACED
           or time.perf_counter() + statistics.median(untraced) + statistics.median(traced) <= end):
        a = bench.attempt(cfg, w.jobs, expect, WORKLOAD_OP)
        expect = expect or a.digests
        untraced.append(a.wall)
        tracer = spanlib.Tracer(bench.dir)
        spanlib.install(tracer, bench.uavrelay)
        try:
            a = bench.attempt(cfg, w.jobs, expect, WORKLOAD_OP)
        finally:
            tracer.restore()
        spans = tracer.collect()
        with open(bench.dir / "spans.jsonl", "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in spans)
        table = spanlib.SpanTable(spans)
        traced.append(a.wall)
        layers.append(layer_metrics(table, a, w.jobs))
        realization_ms += [d * 1000.0 for d in table.durations("metrics.run_realization")]
        if a.digests is not None and table.get("metrics.run_realization", "calls") != n:
            problems.append(f"trace saw {table.get('metrics.run_realization', 'calls')} "
                            f"of {n} realizations")
        if tracer.missing:
            problems.append(f"trace points missing: {tracer.missing}")
    first = layers[0]
    for other in layers[1:]:
        moved = [k for k in first if is_exact(k) and first[k] != other[k]]
        if moved:
            problems.append(f"exact counts differ between traced runs: {moved}")
    metrics = {k: (first[k] if is_exact(k) else statistics.median(r[k] for r in layers))
               for k in first}
    for q in (50, 90):  # 0 only when no traced run got as far as one realization
        metrics[f"metrics.realization_ms_p{q}"] = (
            float(np.percentile(realization_ms, q)) if realization_ms else 0.0)
    metrics["trace.overhead_share"] = statistics.median(traced) / statistics.median(untraced) - 1
    for p in problems:
        print(f"[perfbench] trace check failed: {p}", file=sys.stderr)
    samples = {"repeats": len(traced), "untraced_wall_s": untraced, "traced_wall_s": traced,
               "realizations_traced": len(realization_ms), "trace_problems": problems,
               "counts": {k: v for k, v in first.items() if is_exact(k)}}
    return metrics, samples, expect, not problems


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_sha256() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "uavrelay").rglob("*")):
        if p.is_file() and p.suffix in (".py", ".json"):
            h.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def measure(uavrelay, workload: Workload, seed: int, seconds: float, trace: bool,
            reference: dict) -> dict:
    """One benchmark invocation; returns {"result": ..., "provenance": ...}."""
    work_dir = OUT / workload.name
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    load_start = os.getloadavg()
    bench = Bench(uavrelay, workload, work_dir)

    bench.attempt(bench.write_config(REFERENCE_SEED), workload.jobs, reference,
                  f"reference config, seed {REFERENCE_SEED}")

    cfg = bench.write_config(seed)
    expect = None
    if workload.jobs > 1:
        expect = bench.attempt(cfg, 1, None, "serial twin of the workload config").digests
    runner = run_traced if trace else run_untraced
    metrics, samples, digests, checks_ok = runner(bench, cfg, seconds, expect)

    units = {k: (layer_unit(k) if trace else E2E_UNITS[k]) for k in metrics}
    result = {
        "correct": bench.mismatches == 0 and checks_ok,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    provenance = {
        "workload": workload.name, "preset": workload.preset,
        "realizations": workload.realizations, "jobs": workload.jobs,
        "seed": seed, "reference_seed": REFERENCE_SEED, "trace": trace,
        "seconds": seconds, "samples": samples,
        "operations": bench.operations, "runs": bench.runs, "failed_runs": bench.failed_runs,
        "failed_run_share": bench.failed_runs / bench.runs, "errors": bench.errors,
        "output_digests": digests,
        "git_commit": git_commit(), "source_sha256": source_sha256(),
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
    }
    shutil.rmtree(work_dir / "out", ignore_errors=True)
    return {"result": result, "provenance": provenance}


def load_reference(workload: Workload) -> dict:
    """Recorded digests at seed 272, or exit 2 if none match the workload's size."""
    doc = json.loads(REFERENCE.read_text(encoding="utf-8"))
    entry = doc["workloads"].get(workload.name)
    if entry is None or (entry["realizations"], entry["jobs"]) != (workload.realizations,
                                                                    workload.jobs):
        print(f"error: {REFERENCE.name} has no digests for {workload.name} at its size; "
              "run record_reference.py", file=sys.stderr)
        raise SystemExit(2)
    return entry["digests"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    uavrelay = import_program()
    workload = WORKLOADS[args.workload]
    out = measure(uavrelay, workload, args.seed, args.seconds, bool(args.trace),
                  load_reference(workload))
    print(json.dumps({"provenance": out["provenance"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
