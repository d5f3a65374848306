"""Acceptance suite: one test per criterion, one printed verdict line each.

The trend criteria run on the shipped figure presets (30 realizations,
documented master seed 272). Criteria that compare configurations evaluated
on the same realizations use paired differences: the margin requirement
"more than 1 stderr" is checked against the standard error of the paired
per-realization difference. Unpaired orderings with a "within 1 stderr"
tolerance use the combined stderr of the two means.
"""
import csv
import json
import math
import time

import numpy as np
import pytest

from uavrelay import cli, radio
from uavrelay.antenna import G_MAX, CrossedDipole
from uavrelay.pathloss import (backhaul_path_loss, fspl, hata_coefficients,
                               hata_path_loss, los_probability)
from uavrelay.planner import ActionSet, StateGrid, solve_dp
from uavrelay.radio import RewardMap, relay_end_to_end_sir
from uavrelay.scenario import Mission

from conftest import JOBS
from oracles import LinkGeometry, enumerate_paths, tx_gain


def report(cid: str, detail: str) -> None:
    print(f"[acceptance] {cid}: PASS ({detail})")


def paired(a, b):
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    se = d.std(ddof=1) / math.sqrt(d.size) if d.size > 1 else 0.0
    return float(d.mean()), float(se)


# --- fig2 artifacts via the CLI (shared by criteria 2-7) --------------------

@pytest.fixture(scope="session")
def fig2_run(accept_dir):
    out = accept_dir / "fig2"
    t0 = time.monotonic()
    code = cli.main(["run", "--preset", "fig2", "--out", str(out),
                     "--jobs", str(JOBS)])
    elapsed = time.monotonic() - t0
    assert code == 0
    return out, elapsed


def fig2_points(fig2_run):
    doc = json.loads((fig2_run[0] / "sweep.json").read_text())
    return doc


def find_samples(doc, t_s, n_mbs, criterion, evaluation):
    hits = [p for p in doc["points"]
            if p["t_s"] == t_s and p["n_mbs"] == n_mbs
            and p["criterion"] == criterion and p["evaluation"] == evaluation]
    assert len(hits) == 1
    return hits[0]


def read_trajectory_csv(path):
    rows = list(csv.DictReader(open(path, encoding="utf-8")))
    xy = np.array([[float(r["x_m"]), float(r["y_m"])] for r in rows])
    v = np.array([float(r["v_mps"]) for r in rows])
    return xy, v


def read_heatmap_csv(path):
    rows = list(csv.DictReader(open(path, encoding="utf-8")))
    cells = {(float(r["cell_x_m"]), float(r["cell_y_m"])): float(r["reward"])
             for r in rows}
    return cells


# --- criteria ----------------------------------------------------------------

def test_c01_dp_exactness_against_exhaustive_search():
    rng = np.random.default_rng(20240517)
    actions = ActionSet.standard(100.0, 8.0, 17.7)
    t0 = time.monotonic()
    checked = 0
    while checked < 100:
        nx, ny = (int(v) for v in rng.integers(2, 5, size=2))
        n = int(rng.integers(1, 7))
        start = (int(rng.integers(0, nx)), int(rng.integers(0, ny)))
        finish = (int(rng.integers(0, nx)), int(rng.integers(0, ny)))
        if max(abs(start[0] - finish[0]), abs(start[1] - finish[1])) > n:
            continue
        grid = StateGrid(x0=0.0, y0=0.0, cell_m=100.0, nx=nx, ny=ny,
                         start_cell=start, finish_cell=finish, n_stages=n)
        rewards = rng.normal(size=(ny, nx))
        rm = RewardMap(criterion="pf", xs=grid.axis_x(), ys=grid.axis_y(),
                       rewards=rewards, max_sir_db=np.zeros((ny, nx)))
        a = solve_dp(rm, grid, actions)
        b = enumerate_paths(rm, grid, actions)
        assert a.value == b.value, (checked, a.value, b.value)
        checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report("C1 DP exactness", f"100 instances exact in {elapsed:.1f}s")


def test_c02_endpoint_and_speed_constraints(fig2_run, preset_sweeps):
    out, _ = fig2_run
    manifest = json.loads((out / "manifest.json").read_text())
    total = manifest["trajectory_violations"]
    for name, res in preset_sweeps.items():
        total += res.trajectory_violations
    assert total == 0
    # re-check the emitted showcase trajectories from their CSVs
    for crit in ("pf", "sum_rate", "p5"):
        xy, v = read_trajectory_csv(out / f"trajectory_{crit}_standalone_ohplm_omni.csv")
        assert np.array_equal(xy[0], [0.0, 0.0])
        assert np.array_equal(xy[-1], [1000.0, 1000.0])
        assert np.all(v <= 17.7 + 1e-9)
        steps = np.linalg.norm(np.diff(xy, axis=0), axis=1)
        assert np.all(steps <= 100.0 * math.sqrt(2.0) + 1e-9)
        sxy, sv = read_trajectory_csv(out / f"smoothed_{crit}_standalone_ohplm_omni.csv")
        assert np.all(sv <= 17.7 + 1e-9)
    report("C2 endpoint/speed constraints", "0 violations across all acceptance runs")


def test_c03_hover_at_best_reachable_cell(fig2_run):
    out, _ = fig2_run
    grid = StateGrid.from_mission(Mission(duration_t=240.0))
    n = grid.n_stages
    hovers_found = {}
    for crit in ("pf", "sum_rate", "p5"):
        cells = read_heatmap_csv(out / f"heatmap_{crit}_standalone_ohplm_omni.csv")
        xy, v = read_trajectory_csv(out / f"trajectory_{crit}_standalone_ohplm_omni.csv")
        # reachable = within the 8-neighbor stage budget from start and finish
        best_cell, best_reward = None, -np.inf
        for (cx, cy), reward in cells.items():
            d_start = max(abs(cx - 0.0), abs(cy - 0.0)) / 100.0
            d_finish = max(abs(cx - 1000.0), abs(cy - 1000.0)) / 100.0
            if d_start + d_finish <= n and reward > best_reward:
                best_cell, best_reward = (cx, cy), reward
        hover_positions = {tuple(xy[i]) for i in range(len(v) - 1) if v[i] == 0.0}
        assert best_cell in hover_positions, (crit, best_cell, hover_positions)
        hovers_found[crit] = best_cell
    report("C3 hover behavior", f"hover at per-criterion best cell {hovers_found}")


def test_c04_scheduler_ordering(fig2_run):
    doc = fig2_points(fig2_run)
    sr = find_samples(doc, 240.0, 4.0, "sum_rate", "discrete")
    pf = find_samples(doc, 240.0, 4.0, "pf", "discrete")
    dcap, dcap_se = paired(sr["capacity_samples"], pf["capacity_samples"])
    dout, dout_se = paired(sr["outage_samples"], pf["outage_samples"])
    assert dcap > dcap_se, (dcap, dcap_se)
    assert dout > dout_se, (dout, dout_se)
    _, elapsed = fig2_run
    assert elapsed < 600.0
    report("C4 scheduler ordering",
           f"cap margin {dcap/dcap_se:.1f} se, outage margin {dout/dout_se:.1f} se, "
           f"runtime {elapsed:.0f}s")


def test_c05_capacity_saturation(fig2_run):
    doc = fig2_points(fig2_run)
    ts = [80.0, 120.0, 160.0, 240.0, 320.0]
    samples = [np.asarray(find_samples(doc, t, 4.0, "pf", "discrete")["capacity_samples"])
               for t in ts]
    increments = []
    for a, b in zip(samples[:-1], samples[1:]):
        inc, se = paired(b, a)
        assert inc > -se  # non-decreasing within 1 stderr
        increments.append(inc)
    assert increments[-1] < 0.25 * increments[0], increments
    report("C5 capacity saturation",
           f"increments {['%.4f' % i for i in increments]}, "
           f"last/first {increments[-1]/increments[0]:.2f} < 0.25")


def test_c06_mbs_density_effect(fig2_run):
    # Fig 2(c) trend asserted on the cell-edge (5pSE) scheduler, where the
    # density effect is not compensated away by the UAV (see ledger); 2- and
    # 4-MBS arms are paired through the coupled scenario draws.
    doc = fig2_points(fig2_run)
    o2 = find_samples(doc, 240.0, 2.0, "p5", "discrete")
    o4 = find_samples(doc, 240.0, 4.0, "p5", "discrete")
    diff, se = paired(o2["outage_samples"], o4["outage_samples"])
    assert diff > se, (diff, se)
    report("C6 MBS-density effect", f"outage(2)-outage(4) = {diff:.4f} > {se:.4f}")


def test_c07_smoothing_gap(fig2_run):
    doc = fig2_points(fig2_run)
    worst = 0.0
    for t in (80.0, 120.0, 160.0, 240.0, 320.0):
        d = find_samples(doc, t, 4.0, "pf", "discrete")
        s = find_samples(doc, t, 4.0, "pf", "smoothed")
        gap = abs(np.mean(s["capacity_samples"]) - np.mean(d["capacity_samples"]))
        gap /= np.mean(d["capacity_samples"])
        worst = max(worst, gap)
    assert worst <= 0.05
    # Bernstein partition of unity and endpoint interpolation at 1e-12
    from oracles import BezierCurve, bernstein
    for t in (0.0, 0.3, 0.7, 1.0):
        assert abs(sum(bernstein(i, 24, t) for i in range(25)) - 1.0) < 1e-12
    rng = np.random.default_rng(1)
    control = rng.uniform(0, 1000, size=(31, 2))
    curve = BezierCurve(control)
    assert np.max(np.abs(curve.point(0.0) - control[0])) < 1e-12
    assert np.max(np.abs(curve.point(1.0) - control[-1])) < 1e-12
    report("C7 smoothing gap", f"max relative gap {100*worst:.2f}% <= 5%")


def test_c08_pathloss_model_ordering(preset_sweeps):
    res = preset_sweeps["fig4"]
    val = {m: res.find(t_s=240.0, uav_ue_model=m, evaluation="discrete")
           for m in ("ohplm", "mplm", "fspl")}
    cap = {m: val[m].capacity for m in val}
    out = {m: val[m].outage for m in val}

    def within(lhs, rhs, se):
        return lhs >= rhs - se

    # capacity FSPL >= OHPLM >= MPLM, coverage likewise, within 1 combined se
    assert within(cap["fspl"][0], cap["ohplm"][0], math.hypot(cap["fspl"][1], cap["ohplm"][1]))
    assert within(cap["ohplm"][0], cap["mplm"][0], math.hypot(cap["ohplm"][1], cap["mplm"][1]))
    assert within(out["ohplm"][0], out["fspl"][0], math.hypot(out["fspl"][1], out["ohplm"][1]))
    assert within(out["mplm"][0], out["ohplm"][0], math.hypot(out["mplm"][1], out["ohplm"][1]))
    report("C8 path-loss ordering",
           "cap fspl/ohplm/mplm = %.4f/%.4f/%.4f, outage %.3f/%.3f/%.3f" % (
               cap["fspl"][0], cap["ohplm"][0], cap["mplm"][0],
               out["fspl"][0], out["ohplm"][0], out["mplm"][0]))


def test_c09_backhaul_degradation(preset_sweeps):
    res = preset_sweeps["fig5"]
    sa = res.find(t_s=240.0, mode="standalone", evaluation="discrete")
    re_ = res.find(t_s=240.0, mode="relay", evaluation="discrete")
    dcap, dcap_se = paired(sa.capacity_samples, re_.capacity_samples)
    dout, dout_se = paired(re_.outage_samples, sa.outage_samples)
    assert dcap > dcap_se, (dcap, dcap_se)
    assert dout > dout_se, (dout, dout_se)
    # with the backhaul constraint FSPL is the worst of the three models
    fig6 = preset_sweeps["fig6"]
    v = {m: fig6.find(t_s=240.0, uav_ue_model=m, evaluation="discrete")
         for m in ("ohplm", "mplm", "fspl")}
    assert v["fspl"].capacity[0] <= min(v["ohplm"].capacity[0], v["mplm"].capacity[0])
    assert v["fspl"].outage[0] >= max(v["ohplm"].outage[0], v["mplm"].outage[0])
    report("C9 backhaul degradation",
           f"cap margin {dcap/dcap_se:.1f} se, outage margin {dout/dout_se:.1f} se, "
           f"FSPL worst under backhaul")


def test_c10_antenna_effect(preset_sweeps):
    res = preset_sweeps["fig7"]
    om = res.find(t_s=240.0, antenna="omni", evaluation="discrete")
    di = res.find(t_s=240.0, antenna="dipole", evaluation="discrete")
    dcap, dcap_se = paired(om.capacity_samples, di.capacity_samples)
    dout, dout_se = paired(di.outage_samples, om.outage_samples)
    assert dcap > dcap_se, (dcap, dcap_se)
    assert dout > dout_se, (dout, dout_se)
    nadir = tx_gain(LinkGeometry((0, 0, 120), (0, 0, 2), tx_mode=CrossedDipole()))
    assert nadir < G_MAX
    report("C10 antenna effect",
           f"cap margin {dcap/dcap_se:.1f} se, outage margin {dout/dout_se:.1f} se, "
           f"nadir gain {nadir:.2f} < {G_MAX}")


def test_c11_closed_form_pins():
    co = hata_coefficients(1500.0, 30.0, 2.0)
    corr = (1.1 * math.log10(1500.0) - 0.7) * 2.0 - 1.56 * math.log10(1500.0) - 0.8
    a = 69.55 + 26.16 * math.log10(1500.0) - 13.82 * math.log10(30.0) - corr
    b = 44.9 - 6.55 * math.log10(30.0)
    c = -2.0 * math.log10(1500.0 / 28.0) ** 2 - 5.4
    assert abs(co.a_coef - a) < 1e-6 and abs(co.b_coef - b) < 1e-6
    assert abs(co.c_coef - c) < 1e-6
    assert abs(hata_path_loss(1000.0, 1500.0, 30.0, 2.0) - (a + c)) < 1e-6

    assert abs(fspl(1000.0, 1500.0)
               - (60.0 + 20.0 * math.log10(1500.0) - 27.55)) < 1e-6
    assert abs(backhaul_path_loss(1000.0, 1500.0, 120.0)
               - (28.0 + 66.0 + 20.0 * math.log10(1.5))) < 1e-6

    assert los_probability(0.0, 120.0, 2.0) == 1.0
    m = math.floor(1000.0 * math.sqrt(10.0) / 1000.0 - 1.0)
    tau = 1.0
    for k in range(m + 1):
        tau *= 1.0 - math.exp(-((120.0 - (k + 0.5) * 118.0 / (m + 1)) ** 2) / 200.0)
    assert abs(los_probability(1000.0, 120.0, 2.0) - tau) < 1e-12

    assert abs(relay_end_to_end_sir(4.0, 1.0) - 1.6) < 1e-12
    assert abs(relay_end_to_end_sir(2.5, 2.5) - 2.5) < 1e-12
    report("C11 closed-form pins", "hata/fspl/backhaul within 1e-6 dB, "
                                   "los/relay within 1e-12")


def test_c12_run_determinism(accept_dir, tmp_path):
    cfg = {
        "schema_version": 1, "master_seed": 272,
        "run": {"criteria": ["pf"], "realizations": 2},
        "sweep": {"t_values": [160, 240], "n_mbs_values": [4]},
        "showcase": {"t": 160, "n_mbs": 4},
    }
    path = tmp_path / "small.json"
    path.write_text(json.dumps(cfg))
    out1, out2 = accept_dir / "det1", accept_dir / "det2"
    assert cli.main(["run", "--config", str(path), "--out", str(out1)]) == 0
    assert cli.main(["run", "--config", str(path), "--out", str(out2)]) == 0
    compared = 0
    for f in sorted(out1.iterdir()):
        if f.suffix == ".csv":
            assert (out2 / f.name).read_bytes() == f.read_bytes(), f.name
            compared += 1
    assert compared >= 4
    report("C12 determinism", f"{compared} CSVs byte-identical across reruns")
