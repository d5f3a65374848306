"""Record the reference output digests of every workload at seed 272.

Run from the repository root, on the commit whose outputs are the reference:

    python3 perfbench/record_reference.py

Each workload's generated config is run serially and with the workload's
--jobs; the two must write identical CSVs. Their sha256 digests go to
perfbench/reference.json, which run.py checks once per invocation.
"""
from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    uavrelay = run.import_program()
    doc = {"seed": run.REFERENCE_SEED, "workloads": {}}
    for w in run.WORKLOADS.values():
        work_dir = run.OUT / w.name
        shutil.rmtree(work_dir, ignore_errors=True)
        work_dir.mkdir(parents=True)
        bench = run.Bench(uavrelay, w, work_dir)
        cfg = bench.write_config(run.REFERENCE_SEED)
        serial = bench.attempt(cfg, 1, None, "serial").digests
        if serial is None or bench.attempt(cfg, w.jobs, serial, f"jobs={w.jobs}").digests is None:
            print(f"error: {w.name}: {bench.errors}", file=sys.stderr)
            return 1
        doc["workloads"][w.name] = {"preset": w.preset, "realizations": w.realizations,
                                    "jobs": w.jobs, "digests": serial}
        shutil.rmtree(work_dir, ignore_errors=True)
        print(f"{w.name}: {len(serial)} CSV digests")
    run.REFERENCE.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
