"""Record the golden output digests that tests/test_golden.py checks.

Run from the repository root, on the commit whose outputs are the golden ones:

    PYTHONPATH=src python3 tests/record_golden.py

It runs every preset at full size, and the fine-lattice case lattice61.json,
serially and writes the sha256 of each CSV and JSON output, in separate sections, to tests/golden_digests.json,
together with the Python and numpy versions that produced them. Re-record
only for an intended output change, and say in CHANGES.md what changed.
"""
from __future__ import annotations

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from uavrelay import cli, metrics

GOLDEN = Path(__file__).with_name("golden_digests.json")
RECORD_COMMAND = "PYTHONPATH=src python3 tests/record_golden.py"
END_TO_END = ("fig2", "fig3")
SWEPT = ("fig4", "fig5", "fig6", "fig7")
# 61x61 cells of 20 m and 50 and 60 stages, where the path needs 50: the lattice and
# stage counts at which the DP, smoothing and process-pool rewrites can change bytes
LATTICE61 = Path(__file__).with_name("lattice61.json")


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def _cli(*argv: str) -> None:
    if cli.main(list(argv)) != 0:
        raise RuntimeError(f"uavrelay {' '.join(argv)} failed")


def write_outputs(root: Path, sweeps: dict, jobs: int = 1) -> None:
    """Write the golden file set under root.

    fig2, fig3 and lattice61 run end to end, manifest included, lattice61 with
    `jobs` workers. The SWEPT presets take their sweeps from `sweeps`
    (name -> SweepResult) and their showcase files from `heatmap`, so their
    manifests are not part of the set.
    """
    for name in END_TO_END:
        _cli("run", "--preset", name, "--out", str(root / name))
    _cli("run", "--config", str(LATTICE61), "--out", str(root / LATTICE61.stem),
         "--jobs", str(jobs))
    for name in SWEPT:
        out = root / name
        _cli("heatmap", "--preset", name, "--out", str(out))
        sweeps[name].write(out / "sweep.csv", out / "sweep.json")
    _cli("pathloss-table", "--out", str(root / "pathloss-table.csv"))
    _cli("antenna-pattern", "--out", str(root / "antenna-pattern.csv"))


def digests(root: Path) -> dict:
    """sha256 of every CSV and JSON file under root, by relative path, one section each."""
    out = {"csv": {}, "json": {}}
    for path in sorted(root.rglob("*")):
        if path.suffix in (".csv", ".json"):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            out[path.suffix[1:]][path.relative_to(root).as_posix()] = digest
    return out


def main() -> int:
    sweeps = {name: metrics.monte_carlo_sweep(cli.load_preset(name), jobs=1) for name in SWEPT}
    with tempfile.TemporaryDirectory() as tmp:
        write_outputs(Path(tmp), sweeps)
        doc = {**versions(), **digests(Path(tmp))}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{GOLDEN}: {len(doc['csv'])} CSV and {len(doc['json'])} JSON digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
