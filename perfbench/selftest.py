"""Self-tests of the benchmark at a tiny size (one realization per run).

Run from the repository root:

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit, that
a corrupted reference digest is detected and counted as a failed run, that
runs that raise are counted, that the counts do not depend on the run length,
and that the benchmark exits non-zero without a result when src/ is absent.
Prints one line per check; exits 1 if any check fails.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import run

# the pool workload covers process fan-out, relay mode and worker span files
TINY = replace(run.WORKLOADS["fig5-mplm-jobs2"], name="selftest-fig5", realizations=1)


def tiny_reference(uavrelay) -> dict:
    work_dir = run.OUT / "selftest-reference"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    bench = run.Bench(uavrelay, TINY, work_dir)
    digests = bench.attempt(bench.write_config(run.REFERENCE_SEED), 1, None, "tiny").digests
    shutil.rmtree(work_dir)
    if digests is None:
        raise RuntimeError(f"tiny reference run failed: {bench.errors}")
    return digests


def check(failures: list[str], ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def main() -> int:
    uavrelay = run.import_program()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    reference = tiny_reference(uavrelay)
    failures: list[str] = []

    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result = run.measure(uavrelay, TINY, 7, 0.0, trace, reference)["result"]
        emitted = {k: v["unit"] for k, v in result["metrics"].items()}
        wanted = {m["name"]: m["unit"] for m in spec[section]}
        check(failures, emitted == wanted,
              f"--trace {int(trace)} emits exactly the {section} metrics with their units")
        check(failures, result["correct"] and result["failed"] == 0,
              f"--trace {int(trace)} run is correct with no failed runs")

    name = sorted(reference)[0]
    corrupted = dict(reference, **{name: "0" * 64})
    result = run.measure(uavrelay, TINY, run.REFERENCE_SEED, 0.0, False, corrupted)["result"]
    check(failures, not result["correct"] and result["failed"] == 1,
          "a corrupted reference digest is detected and counted as one failed run")

    real_main = uavrelay.cli.main

    def crashing_main(argv):
        raise ValueError("injected crash")

    uavrelay.cli.main = crashing_main
    try:
        result = run.measure(uavrelay, TINY, 7, 0.0, False, reference)["result"]
        longer = run.measure(uavrelay, TINY, 7, 0.5, False, reference)
    finally:
        uavrelay.cli.main = real_main
    check(failures, result["failed"] == result["attempted"] and result["attempted"] >= 1
          and set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]},
          "runs that raise are counted as failed and the invocation still reports")
    check(failures, (longer["result"]["attempted"], longer["result"]["failed"])
          == (result["attempted"], result["failed"])
          and longer["provenance"]["runs"] > run.MIN_REPEATS + 2,
          "attempted and failed count inputs, not how many repeats fit in the time")

    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, *spec["command"][1:], "--workload", "fig7-relay-dipole",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    check(failures, proc.returncode != 0 and not proc.stdout.strip(),
          "without src/ the benchmark exits non-zero and prints no result")

    print(f"{len(failures)} of 8 checks failed" if failures else "all 8 checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
