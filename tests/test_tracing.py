"""The benchmark's span tracer still finds and exercises every layer boundary.

perfbench/spans.py wraps uavrelay functions by name from outside the
package; a renamed or bypassed function would silently drop out of the
per-layer metrics. This runs one tiny traced `run` that reaches every
wrapped name: relay mode (backhaul), crossed dipoles (antenna gains) and
the three UE link models.
"""
import importlib.util
import json
from pathlib import Path

import uavrelay
from uavrelay import cli

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

TINY = {
    "schema_version": 1,
    "master_seed": 5,
    "models": {"uav_ue": ["ohplm", "mplm", "fspl"]},
    "run": {"criteria": ["pf"], "modes": ["relay"], "antenna_modes": ["dipole"],
            "realizations": 1},
    "sweep": {"t_values": [160], "n_mbs_values": [4]},
    "showcase": {"t": 160, "n_mbs": 4},
}


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_records_a_span(tmp_path):
    spans = load_spans()
    tracer = spans.Tracer(tmp_path)
    wrapped = []
    wrap = tracer.wrap

    def recording_wrap(owner, attr, name, **kwargs):
        wrapped.append(name)
        wrap(owner, attr, name, **kwargs)

    tracer.wrap = recording_wrap
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps(TINY))
    try:
        spans.install(tracer, uavrelay)
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    finally:
        tracer.restore()
    assert wrapped and tracer.missing == []
    recorded = {s[spans.NAME] for s in tracer.collect()}
    assert sorted(set(wrapped) - recorded) == []
