"""In-memory span tracer that wraps uavrelay's public functions from outside.

The tracer patches module attributes and class methods of an imported
uavrelay package, so every call through a patched name records one span:
(id, parent id, name, realization tag, start, end, work, key). `work` is a
per-call count (links, cells, positions, samples, stages) and `key` a token
for the object the call worked on (a scenario or a reward map), so that
redundant work can be counted. Spans stay in memory until `collect`.

Process-pool workers forked while a patch is active inherit it. A worker
keeps its own spans and appends them to `spans-<pid>.jsonl` in the spill
directory whenever its outermost span closes; `collect` reads those files.
"""
from __future__ import annotations

import functools
import itertools
import json
import os
import time
from pathlib import Path

import numpy as np

ID, PARENT, NAME, TAG, START, END, WORK, KEY, PID = range(9)


def _positional(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _mbs_ue_links(args, kwargs, out):
    """MBS->UE links a link_budget call evaluates for the real UEs (0 for probes)."""
    if _positional(args, kwargs, 4, "ue_xy") is not None:
        return 0
    scn = args[0]
    return scn.n_ue * scn.n_mbs


def _realization_tag(args, kwargs):
    return f"n{_positional(args, kwargs, 2, 'n_mbs')}-j{_positional(args, kwargs, 3, 'j')}"


class Tracer:
    def __init__(self, spill_dir: Path):
        self.spill_dir = Path(spill_dir)
        self.owner_pid = os.getpid()
        self.patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self._start_process()

    def _start_process(self) -> None:
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.ids = itertools.count()
        self.tokens = itertools.count()
        self._keyed: dict[int, tuple[str, object]] = {}

    def _token(self, obj) -> str:
        # the object is held until the spans are handed over, so ids stay unique
        entry = self._keyed.get(id(obj))
        if entry is None:
            entry = self._keyed[id(obj)] = (f"{self.pid}:{next(self.tokens)}", obj)
        return entry[0]

    def wrap(self, owner, attr: str, name: str, work=None, key=None, tag=None) -> None:
        """Replace owner.attr by a recording wrapper; a missing name is skipped."""
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid:
                tracer._start_process()
            parent = tracer.stack[-1] if tracer.stack else None
            span = [next(tracer.ids), parent[ID] if parent else None, name,
                    tag(args, kwargs) if tag else (parent[TAG] if parent else None),
                    time.perf_counter(), None, 0, None]
            tracer.spans.append(span)
            tracer.stack.append(span)
            try:
                out = original(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                tracer.stack.pop()
            if work is not None:
                span[WORK] = int(work(args, kwargs, out))
            if key is not None:
                span[KEY] = tracer._token(key(args, kwargs))
            if not tracer.stack and tracer.pid != tracer.owner_pid:
                tracer._spill()
            return out

        setattr(owner, attr, traced)
        self.patches.append((owner, attr, original))

    def _spill(self) -> None:
        with open(self.spill_dir / f"spans-{self.pid}.jsonl", "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span + [self.pid]) + "\n")
        self.spans = []
        self._keyed.clear()

    def restore(self) -> None:
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)

    def collect(self) -> list[list]:
        """Every finished span of this process and of its workers, with pids."""
        spans = [s + [self.pid] for s in self.spans]
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                spans += [json.loads(line) for line in fh]
            path.unlink()
        self.spans = []
        self._keyed.clear()
        return spans


def install(tracer: Tracer, uavrelay) -> None:
    """Wrap the layer boundaries of an imported uavrelay package."""
    cli, config, metrics, pathloss = uavrelay.cli, uavrelay.config, uavrelay.metrics, uavrelay.pathloss
    radio, smoothing = uavrelay.radio, uavrelay.smoothing
    w = tracer.wrap
    w(cli, "load_config", "config.load_config")
    w(config.RunConfig, "validate", "config.validate")
    w(metrics, "monte_carlo_sweep", "metrics.monte_carlo_sweep")
    w(metrics, "run_realization", "metrics.run_realization", tag=_realization_tag)
    for module in (metrics, cli):
        w(module, "generate_scenario", "scenario.generate_scenario")
        w(module, "solve_dp", "planner.solve_dp",
          work=lambda a, k, out: out.n_stages, key=lambda a, k: a[0])
    w(metrics, "check_trajectory", "planner.check_trajectory")
    w(radio, "build_reward_maps", "radio.build_reward_maps",
      work=lambda a, k, out: next(iter(out.values())).rewards.size)
    w(radio, "stage_rates", "radio.stage_rates", work=lambda a, k, out: out.shape[0])
    w(radio, "associate", "radio.associate")
    w(radio, "link_budget", "radio.link_budget", work=_mbs_ue_links, key=lambda a, k: a[0])
    w(radio, "backhaul_budget", "radio.backhaul_budget")
    w(radio, "ue_link_gain", "antenna.ue_link_gain")
    w(radio, "combined_gain", "antenna.combined_gain")
    w(smoothing, "smooth", "smoothing.smooth", work=lambda a, k, out: out.positions.shape[0])
    w(smoothing, "evaluate_smoothed", "smoothing.evaluate_smoothed")
    for cls in (pathloss.OhplmModel, pathloss.MplmModel, pathloss.FsplModel,
                pathloss.BackhaulUmaAvModel):
        w(cls, "loss_db", f"pathloss.{cls.name}", work=lambda a, k, out: np.size(a[1]))


class SpanTable:
    """Per-name sums over a list of collected spans."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        child_time: dict[tuple[int, int], float] = {}
        for s in spans:
            if s[PARENT] is not None:
                k = (s[PID], s[PARENT])
                child_time[k] = child_time.get(k, 0.0) + (s[END] - s[START])
        self.stats: dict[str, dict[str, float]] = {}
        for s in spans:
            st = self.stats.setdefault(s[NAME], {"calls": 0, "busy": 0.0, "self": 0.0, "work": 0})
            dur = s[END] - s[START]
            st["calls"] += 1
            st["busy"] += dur
            st["self"] += dur - child_time.get((s[PID], s[ID]), 0.0)
            st["work"] += s[WORK]

    def get(self, name: str, field: str):
        return self.stats.get(name, {}).get(field, 0)

    def durations(self, name: str) -> list[float]:
        return [s[END] - s[START] for s in self.spans if s[NAME] == name]

    def redundant_share(self, name: str) -> float:
        """1 - (work of each distinct key, counted once at its largest) / all work."""
        largest: dict[str, int] = {}
        total = 0
        for s in self.spans:
            if s[NAME] == name and s[WORK]:
                total += s[WORK]
                largest[s[KEY]] = max(largest.get(s[KEY], 0), s[WORK])
        return 1.0 - sum(largest.values()) / total if total else 0.0
