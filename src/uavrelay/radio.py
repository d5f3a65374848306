"""Received power, association, SIR (direct and relayed), reward maps.

Transmitters are indexed 0..M-1 for the MBSs and M for the UAV. The network
is interference limited: a UE's SIR is its serving received power over the
sum of every other transmitter's received power, and the UAV transmits (and
interferes) at every position in both modes.

UAV positions come in batches shaped (..., 2), e.g. one (2,) point, a path
of (N, 2) samples or the whole (ny, nx, 2) cell grid; results keep that
leading shape: servers, SIRs and rates (..., K), bit-identical to one call
per position. One routine computes the received power of each link class
(MBS->UE, UAV->UE and the MBS->UAV backhaul), and link_budget is the one
place UE powers are computed: the UAV-independent MBS->UE block once per
call as (M, K) and the UAV->UE block as (..., K). One reduction, _best_sir,
takes the best SIR over a sequence of per-transmitter power arrays (their
sum in numpy's own summation order, then a running first maximum); the
standalone server, the relay donor and the heat-map probe all use it. A
reward map is one call over its grid, a re-evaluation one call over every
sampled position of its trajectories.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import output
from .antenna import AntennaMode, CrossedDipole, combined_gain, ue_link_gain
from .pathloss import BackhaulUmaAvModel, OhplmModel
from .scenario import Scenario

if TYPE_CHECKING:  # pragma: no cover
    from .planner import StateGrid

CRITERIA = ("pf", "sum_rate", "p5")
MODES = ("standalone", "relay")

# Rate floor applied before log10 in the PF reward; far below the outage
# threshold so it never reorders trajectories.
PF_RATE_FLOOR = 1e-9
# A UE's SIR is capped here before its rate. A direct SIR p / (total - p) with
# nonzero interference is below 2**53, because total - p is then at least one
# ulp of p; so the cap binds only where the interference rounds to 0.
SIR_CEILING = 2.0 ** 53
# A run varies only the UAV->UE law. As in the paper, the other two links have
# one law each: Okumura-Hata on every MBS->UE link, and the 3GPP UMa
# aerial-vehicle LoS law on relay mode's MBS->UAV backhaul.
MBS_UE_LAW = OhplmModel()
BACKHAUL_LAW = BackhaulUmaAvModel()


def dbm_to_mw(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0)


def _received_mw(tx_xy, h_tx: float, rx_xy, h_rx: float, p_dbm: float, model,
                 f_c_mhz: float, gain=None, *modes: AntennaMode) -> np.ndarray:
    """Received power (mW) of one link class, tx and rx ground points broadcast.

    The ground distance comes from the x and y planes of the points, with
    the bits of the norm over their last axis. The antenna gain(dx, dy, dz,
    *modes) of the tx->rx direction planes runs only where an end is a dipole.
    """
    dx = rx_xy[..., 0] - tx_xy[..., 0]
    dy = rx_xy[..., 1] - tx_xy[..., 1]
    g = None
    if any(isinstance(m, CrossedDipole) for m in modes):  # before the loss, for a lower peak
        g = gain(dx, dy, h_rx - h_tx, *modes)
    z = np.sqrt(dx * dx + dy * dy)
    loss = model.loss_db(np.sqrt(z ** 2 + (h_tx - h_rx) ** 2), z, f_c_mhz=f_c_mhz,
                         h_tx=h_tx, h_rx=h_rx)
    p = dbm_to_mw(p_dbm) * 10.0 ** (-loss / 10.0)
    return p if g is None else p * g


def link_budget(scn: Scenario, uav_pos, uav_ue, antenna: AntennaMode,
                ue_xy: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Received power (mW) at each UE: MBS->UE block (M, K) and UAV->UE block (..., K).

    uav_pos is a batch of UAV positions (..., 2). The MBS->UE links take
    MBS_UE_LAW and the UAV->UE links the uav_ue law; every MBS and the UAV
    carry the one antenna, and UEs are omnidirectional. ue_xy replaces the
    scenario's UEs by probe points, either (K, 2) shared by every position
    or (..., K, 2) with one set per position; the MBS block is then (..., M, K).
    """
    cfg = scn.config
    if scn.n_mbs < 1:
        raise ValueError("scenario has no MBS; interference-limited SIR undefined")
    uav_xy = np.asarray(uav_pos, dtype=float)
    ue_xy = scn.ue_xy if ue_xy is None else np.asarray(ue_xy, dtype=float)
    p_mbs = _received_mw(scn.mbs_xy[:, None, :], cfg.h_bs, ue_xy[..., None, :, :], cfg.h_ue,
                         cfg.p_mbs_dbm, MBS_UE_LAW, cfg.f_c_mhz, ue_link_gain, antenna)
    p_uav = _received_mw(uav_xy[..., None, :], cfg.h_uav, ue_xy, cfg.h_ue,
                         cfg.p_uav_dbm, uav_ue, cfg.f_c_mhz, ue_link_gain, antenna)
    return p_mbs, p_uav


def backhaul_budget(scn: Scenario, uav_pos, antenna: AntennaMode) -> np.ndarray:
    """Received power (mW) at the UAV from each MBS, gains included; (..., M)."""
    cfg = scn.config
    uav_xy = np.asarray(uav_pos, dtype=float)
    return _received_mw(scn.mbs_xy, cfg.h_bs, uav_xy[..., None, :], cfg.h_uav,
                        cfg.p_mbs_dbm, BACKHAUL_LAW, cfg.f_c_mhz,
                        combined_gain, antenna, antenna)


def relay_end_to_end_sir(gamma_backhaul, gamma_access):
    """Amplify-and-forward end-to-end SIR 2 g1 g2 / (g1 + g2); g2 = 0 in a dipole null."""
    g1 = np.asarray(gamma_backhaul, dtype=float)
    g2 = np.asarray(gamma_access, dtype=float)
    if np.any(g1 <= 0) or np.any(g2 < 0):
        raise ValueError("relay SIRs must be positive (the access SIR may be 0)")
    out = 2.0 * g1 * g2 / (g1 + g2)
    return out if out.ndim else float(out)


@dataclass(eq=False)
class AssociationSnapshot:
    """Who serves whom at a batch of UAV positions, with loads, SIRs and rates."""

    server: np.ndarray        # (..., K) transmitter index per UE; M is the UAV
    loads: np.ndarray         # (..., M+1) scheduled units per transmitter
    sir: np.ndarray           # (..., K) linear; end-to-end for UAV-served UEs in relay mode
    rate: np.ndarray          # (..., K) bps/Hz, Shannon rate / server load
    donor: np.ndarray | None = None  # (...,) MBS feeding the UAV backhaul (relay mode)


def associate(scn: Scenario, uav_pos, mode: str, uav_ue,
              antenna: AntennaMode) -> AssociationSnapshot:
    """Associate every UE at each UAV position of a (..., 2) batch.

    standalone: each UE takes the transmitter (MBS or UAV) with the highest
    direct SIR. relay: the UAV forwards its best-SIR donor MBS; a UE joins
    the UAV when the amplify-and-forward end-to-end SIR beats its best direct
    MBS SIR. The UAV occupies one scheduling unit at its donor. Exact SIR ties
    resolve to the lowest transmitter index.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    server, sir, donor = _best_server(scn, uav_pos, mode, uav_ue, antenna)
    np.minimum(sir, SIR_CEILING, out=sir)
    m = scn.n_mbs
    # one scheduling unit per served UE, plus the UAV's at its donor
    units = server if donor is None else np.concatenate([server, donor[..., None]], axis=-1)
    batch = units.shape[:-1]
    n_pos = math.prod(batch)
    slots = units.reshape(n_pos, units.shape[-1]) + (m + 1) * np.arange(n_pos)[:, None]
    loads = np.bincount(slots.ravel(), minlength=n_pos * (m + 1)).reshape(batch + (m + 1,))
    rate = np.log2(1.0 + sir) / np.take_along_axis(loads, server, axis=-1)
    return AssociationSnapshot(server=server, loads=loads,
                               sir=sir, rate=rate, donor=donor)


def _best_server(scn: Scenario, uav_pos, mode: str, uav_ue, antenna: AntennaMode):
    """(server, sir, donor) per UE, reducing over the M+1 transmitters one at a time."""
    p_mbs, p_uav = link_budget(scn, uav_pos, uav_ue, antenna)
    if mode == "standalone":
        sir, server = _best_sir([*p_mbs, p_uav])
        return server, sir, None

    m = scn.n_mbs
    if m < 2:
        raise ValueError("relay mode needs >= 2 MBSs for a backhaul interference set")
    # (..., M, 1): one (..., 1) array per MBS, so gamma_bh broadcasts over the UEs
    bh = backhaul_budget(scn, uav_pos, antenna)[..., None]
    gamma_bh, donor = _best_sir(np.moveaxis(bh, -2, 0))

    sir, server = _best_sir([*p_mbs, p_uav], m)  # best direct MBS
    gamma_e2e = relay_end_to_end_sir(gamma_bh, p_uav / _leading_sum(p_mbs))
    on_uav = gamma_e2e > sir
    np.copyto(sir, gamma_e2e, where=on_uav)
    np.copyto(server, m, where=on_uav)
    return server, sir, donor[..., 0]


def _best_sir(powers, candidates: int | None = None):
    """(SIR, index) of the best of the first `candidates` transmitters (default all).

    powers is a sequence of equal-shaped received-power arrays, one per
    transmitter; each SIR is its power over the sum of all the others, inf
    where those round to 0.
    """
    total = _leading_sum(powers)
    with np.errstate(divide="ignore"):
        return _first_max(p / (total - p) for p in powers[:candidates])


def _leading_sum(terms):
    """Sum of a sequence of broadcastable arrays, in numpy's own last-axis order.

    np.sum over a last axis of n terms adds them in order below 8 terms, in
    eight interleaved partial sums from 8 to 128 terms, and splits the range
    in two (at a multiple of 8) above 128. Following that order gives the
    bits of the sum over a (..., M+1) last axis without building that array.
    """
    n = len(terms)
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return _leading_sum(terms[:half]) + _leading_sum(terms[half:])
    if n < 8:
        out = terms[0]
        for t in terms[1:]:
            out = out + t
        return out
    full = n - n % 8
    acc = list(terms[:8])
    for i in range(8, full, 8):
        acc = [a + t for a, t in zip(acc, terms[i:i + 8])]
    out = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
    for t in terms[full:]:
        out = out + t
    return out


def _first_max(values):
    """(maximum, index) over a stream of equal-shaped arrays; a tie keeps the lowest index.

    The first array is updated in place into the maximum.
    """
    values = iter(values)
    best = next(values)
    index = np.zeros(best.shape, dtype=np.intp)
    for i, v in enumerate(values, start=1):
        better = v > best
        np.copyto(best, v, where=better)
        np.copyto(index, i, where=better)
    return best, index


def criterion_reward(rates, criterion: str):
    """Stage reward for one criterion, reducing per-UE rates over the last axis."""
    if criterion not in CRITERIA:
        raise ValueError(f"unknown criterion {criterion!r}")
    rates = np.asarray(rates, dtype=float)
    if rates.shape[-1] == 0:
        out = np.zeros(rates.shape[:-1])
    elif criterion == "pf":
        out = np.sum(np.log10(np.maximum(rates, PF_RATE_FLOOR)), axis=-1)
    elif criterion == "sum_rate":
        out = np.sum(rates, axis=-1)
    else:
        k = math.ceil(0.05 * rates.shape[-1])
        out = np.sort(rates, axis=-1)[..., k - 1]
    return out if out.ndim else float(out)


def stage_rates(positions, scn: Scenario, mode: str, uav_ue,
                antenna: AntennaMode) -> np.ndarray:
    """Per-UE rates at each UAV position; shape (len(positions), K)."""
    positions = np.asarray(positions, dtype=float).reshape(-1, 2)
    return associate(scn, positions, mode, uav_ue, antenna).rate


@dataclass(eq=False)
class RewardMap:
    """Per-cell stage reward for one criterion.

    rewards[iy, ix] is the reward with the UAV hovering over cell (ix, iy).
    rates[iy, ix] holds the per-UE rates behind the reward when the map was
    built from a scenario. max_sir_db, the heat-map diagnostic of
    max_sir_map, must be set before to_csv.
    """

    criterion: str
    xs: np.ndarray         # (nx,) cell center x, meters
    ys: np.ndarray         # (ny,) cell center y, meters
    rewards: np.ndarray    # (ny, nx)
    max_sir_db: np.ndarray | None = None  # (ny, nx)
    rates: np.ndarray | None = None  # (ny, nx, K)

    def rates_at(self, cells) -> np.ndarray:
        """Per-UE rates with the UAV over each (ix, iy) cell; (len(cells), K)."""
        ix, iy = np.asarray(cells, dtype=int).reshape(-1, 2).T
        return self.rates[iy, ix]

    def to_csv(self, path) -> None:
        if self.max_sir_db is None:
            raise ValueError("the heat map needs max_sir_db; fill it from max_sir_map")
        output.write_csv(path, ["cell_x_m", "cell_y_m", "reward", "max_sir_db"],
                         ((x, y, self.rewards[iy, ix], self.max_sir_db[iy, ix])
                          for iy, y in enumerate(self.ys) for ix, x in enumerate(self.xs)))


def build_reward_maps(scn: Scenario, criteria, mode: str, uav_ue, antenna: AntennaMode,
                      grid: "StateGrid") -> dict[str, RewardMap]:
    """One association call over the whole grid, shared by all requested criteria."""
    criteria = tuple(criteria)
    for c in criteria:
        if c not in CRITERIA:
            raise ValueError(f"unknown criterion {c!r}")
    xs, ys = grid.axis_x(), grid.axis_y()
    rates = associate(scn, _cell_centres(xs, ys), mode, uav_ue, antenna).rate
    return {c: RewardMap(criterion=c, xs=xs, ys=ys, rewards=criterion_reward(rates, c),
                         rates=rates)
            for c in criteria}


def _cell_centres(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """(ny, nx, 2) grid of (x, y) cell centres; [iy, ix] is cell (ix, iy)."""
    return np.stack(np.meshgrid(xs, ys), axis=-1)


def max_sir_map(scn: Scenario, uav_ue, antenna: AntennaMode, grid: "StateGrid") -> np.ndarray:
    """Best-transmitter SIR (dB) of a probe UE on the ground below each cell; (ny, nx)."""
    cells = _cell_centres(grid.axis_x(), grid.axis_y())
    p_mbs, p_uav = link_budget(scn, cells, uav_ue, antenna, ue_xy=cells[..., None, :])
    # one MBS and a probe in the UAV dipole's nadir null: no interference, SIR inf
    sir, _ = _best_sir([*np.moveaxis(p_mbs, -2, 0), p_uav])
    return 10.0 * np.log10(sir[..., 0])
