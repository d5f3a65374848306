"""Every preset's outputs are byte-identical to the recorded golden digests.

The fig4-fig7 sweeps come from the session fixture, which runs with
jobs=JOBS, and lattice61 runs with --jobs 2 (two realizations, so two pool
tasks), while the digests were recorded serially, so this also checks byte
identity across --jobs.
"""
import json

from record_golden import GOLDEN, RECORD_COMMAND, digests, versions, write_outputs


def test_outputs_match_golden_digests(preset_sweeps, tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    recorded = {key: golden[key] for key in versions()}
    assert versions() == recorded, (
        f"{GOLDEN.name} was recorded under {recorded}, this is {versions()}: "
        f"re-record with `{RECORD_COMMAND}` and check the diff")
    write_outputs(tmp_path, preset_sweeps, jobs=2)
    got = digests(tmp_path)
    for section in ("csv", "json"):
        changed = sorted(name for name in golden[section].keys() | got[section].keys()
                         if golden[section].get(name) != got[section].get(name))
        assert not changed, (
            f"{section} outputs differ from {GOLDEN.name}: {changed}. If the change is "
            f"intended, re-record with `{RECORD_COMMAND}` and explain it in CHANGES.md")
