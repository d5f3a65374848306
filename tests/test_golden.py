"""Every preset's outputs are byte-identical to the recorded golden digests.

The fig4-fig7 sweeps come from the session fixture, which runs with
jobs=JOBS, and lattice61 and dense16 run with --jobs 2 (two realizations
each, so two pool tasks), while the digests were recorded serially, so this also checks byte
identity across --jobs.
"""
import json

from record_golden import GOLDEN, RECORD_COMMAND, digests, moved, versions, write_outputs


def test_outputs_match_golden_digests(preset_sweeps, tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    recorded = {key: golden[key] for key in versions()}
    assert versions() == recorded, (
        f"{GOLDEN.name} was recorded under {recorded}, this is {versions()}: "
        f"re-record with `{RECORD_COMMAND}` and check the diff")
    write_outputs(tmp_path, preset_sweeps, jobs=2)
    changed = moved(golden, digests(tmp_path))
    assert not changed, (
        f"outputs differ from {GOLDEN.name}: {changed}. If the change is "
        f"intended, re-record with `{RECORD_COMMAND}` and explain it in CHANGES.md")


def test_moved_names_each_digest_that_differs():
    old = {"csv": {"a.csv": "1", "b.csv": "2"}, "json": {"m.json": "3"}, "numpy": "2"}
    new = {"csv": {"a.csv": "1", "c.csv": "4"}, "json": {"m.json": "5"}}
    assert moved(old, new) == ["csv b.csv removed", "csv c.csv added", "json m.json changed"]
    assert moved(new, new) == []
    assert moved({}, new) == ["csv a.csv added", "csv c.csv added", "json m.json added"]
