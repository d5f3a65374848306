"""Received power, association, SIR (direct and relayed), reward maps.

Transmitters are indexed 0..M-1 for the MBSs and M for the UAV. The network
is interference limited: a UE's SIR is its serving received power over the
sum of every other transmitter's received power, and the UAV transmits (and
interferes) at every position in both modes.

UAV positions come in batches shaped (..., 2), e.g. one (2,) point or a grid
row (nx, 2); results keep that leading shape: powers (..., K, M+1), servers,
SIRs and rates (..., K), bit-identical to one call per position. The
UAV-independent MBS->UE block is computed once per call and broadcast. The
scalar received-power and direct-SIR helpers are no longer exported.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import output
from .antenna import AntennaMode, Omni, combined_gain, ue_link_gain
from .pathloss import LinkModels
from .scenario import Scenario

if TYPE_CHECKING:  # pragma: no cover
    from .planner import StateGrid

CRITERIA = ("pf", "sum_rate", "p5")
MODES = ("standalone", "relay")
RELAY_RULES = ("best_direct", "backhaul_literal")

# Rate floor applied before log10 in the PF reward; far below the outage
# threshold so it never reorders trajectories.
PF_RATE_FLOOR = 1e-9


def dbm_to_mw(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0)


@dataclass(frozen=True)
class AntennaSetup:
    """Antenna mode per transmitter class; UEs are always omnidirectional."""

    mbs: AntennaMode = Omni()
    uav: AntennaMode = Omni()

    @property
    def name(self) -> str:
        return "omni" if isinstance(self.uav, Omni) and isinstance(self.mbs, Omni) else "dipole"


@dataclass(eq=False)
class LinkBudget:
    """Received power (mW) at each UE from each transmitter, UAV last."""

    powers_mw: np.ndarray  # (..., K, M+1)
    n_mbs: int

    @property
    def uav_index(self) -> int:
        return self.n_mbs


def _xyz(xy: np.ndarray, height: float) -> np.ndarray:
    """(..., 2) ground points lifted to (..., 3) at a fixed height."""
    return np.concatenate([xy, np.full(xy.shape[:-1] + (1,), height)], axis=-1)


def link_budget(scn: Scenario, uav_pos, models: LinkModels, ants: AntennaSetup,
                ue_xy: np.ndarray | None = None) -> LinkBudget:
    """Downlink budget at the UEs for a batch of UAV positions (..., 2).

    ue_xy replaces the scenario's UEs by probe points, either (K, 2) shared
    by every position or (..., K, 2) with one set per position.
    """
    cfg = scn.config
    m = scn.n_mbs
    if m < 1:
        raise ValueError("scenario has no MBS; interference-limited SIR undefined")
    uav_xy = np.asarray(uav_pos, dtype=float)
    ue_xy = scn.ue_xy if ue_xy is None else np.asarray(ue_xy, dtype=float)

    z_mbs = np.linalg.norm(ue_xy[..., :, None, :] - scn.mbs_xy, axis=-1)
    d_mbs = np.sqrt(z_mbs ** 2 + (cfg.h_bs - cfg.h_ue) ** 2)
    z_uav = np.linalg.norm(ue_xy - uav_xy[..., None, :], axis=-1)
    d_uav = np.sqrt(z_uav ** 2 + (cfg.h_uav - cfg.h_ue) ** 2)

    loss_mbs = models.mbs_ue.loss_db(d_mbs, z_mbs, f_c_mhz=cfg.f_c_mhz,
                                     h_tx=cfg.h_bs, h_rx=cfg.h_ue)
    loss_uav = models.uav_ue.loss_db(d_uav, z_uav, f_c_mhz=cfg.f_c_mhz,
                                     h_tx=cfg.h_uav, h_rx=cfg.h_ue)

    p_mbs = dbm_to_mw(cfg.p_mbs_dbm) * 10.0 ** (-loss_mbs / 10.0)
    p_uav = dbm_to_mw(cfg.p_uav_dbm) * 10.0 ** (-loss_uav / 10.0)

    ue_xyz = _xyz(ue_xy, cfg.h_ue)
    if not isinstance(ants.mbs, Omni):
        p_mbs = p_mbs * ue_link_gain(ue_xyz[..., :, None, :] - _xyz(scn.mbs_xy, cfg.h_bs),
                                     ants.mbs)
    if not isinstance(ants.uav, Omni):
        p_uav = p_uav * ue_link_gain(ue_xyz - _xyz(uav_xy, cfg.h_uav)[..., None, :], ants.uav)

    # p_uav already has the batch shape (..., K); the MBS block is shared
    powers = np.concatenate([np.broadcast_to(p_mbs, p_uav.shape + (m,)), p_uav[..., None]],
                            axis=-1)
    return LinkBudget(powers_mw=powers, n_mbs=m)


def backhaul_budget(scn: Scenario, uav_pos, models: LinkModels,
                    ants: AntennaSetup) -> np.ndarray:
    """Received power (mW) at the UAV from each MBS, gains included; (..., M)."""
    if models.backhaul is None:
        raise ValueError("relay mode requires a backhaul path-loss model")
    cfg = scn.config
    uav_xy = np.asarray(uav_pos, dtype=float)
    z = np.linalg.norm(scn.mbs_xy - uav_xy[..., None, :], axis=-1)
    d3d = np.sqrt(z ** 2 + (cfg.h_uav - cfg.h_bs) ** 2)
    loss = models.backhaul.loss_db(d3d, z, f_c_mhz=cfg.f_c_mhz,
                                   h_tx=cfg.h_bs, h_rx=cfg.h_uav)
    p = dbm_to_mw(cfg.p_mbs_dbm) * 10.0 ** (-loss / 10.0)
    directions = _xyz(uav_xy, cfg.h_uav)[..., None, :] - _xyz(scn.mbs_xy, cfg.h_bs)
    return p * combined_gain(directions, ants.mbs, ants.uav)


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

    mode: str
    server: np.ndarray        # (..., K) transmitter index per UE
    loads: np.ndarray         # (..., M+1) scheduled units per transmitter
    sir: np.ndarray           # (..., K) linear; end-to-end for UAV-served UEs in relay mode
    rate: np.ndarray          # (..., K) bps/Hz, Shannon rate / server load
    n_mbs: int
    donor: np.ndarray | None = None  # (...,) MBS feeding the UAV backhaul (relay mode)

    @property
    def uav_index(self) -> int:
        return self.n_mbs


def associate(scn: Scenario, uav_pos, mode: str, models: LinkModels,
              ants: AntennaSetup, relay_rule: str = "best_direct") -> AssociationSnapshot:
    """Associate every UE at each UAV position of a (..., 2) batch.

    standalone: each UE takes the transmitter (MBS or UAV) with the highest
    direct SIR. relay: the UAV forwards its best-SIR donor MBS; a UE joins
    the UAV when the amplify-and-forward end-to-end SIR beats its best direct
    MBS SIR (relay_rule='best_direct') or the backhaul SIR itself
    (relay_rule='backhaul_literal', the looser comparison). The UAV occupies
    one scheduling unit at its donor. Exact SIR ties resolve to the lowest
    transmitter index.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if relay_rule not in RELAY_RULES:
        raise ValueError(f"unknown relay rule {relay_rule!r}")
    budget = link_budget(scn, uav_pos, models, ants)
    powers = budget.powers_mw
    m = budget.n_mbs
    transmitters = np.arange(m + 1)
    total = powers.sum(axis=-1, keepdims=True)

    donor = None
    if mode == "standalone":
        sir_all = powers / (total - powers)
        server = np.argmax(sir_all, axis=-1)  # first max -> lowest index
        sir = sir_all.max(axis=-1)
    else:
        if m < 2:
            raise ValueError("relay mode needs >= 2 MBSs for a backhaul interference set")
        bh = backhaul_budget(scn, uav_pos, models, ants)
        bh_sir = bh / (bh.sum(axis=-1, keepdims=True) - bh)
        donor = np.argmax(bh_sir, axis=-1)
        gamma_bh = bh_sir.max(axis=-1, keepdims=True)

        direct = powers[..., :m] / (total - powers[..., :m])
        direct_server = np.argmax(direct, axis=-1)
        direct_sirs = direct.max(axis=-1)
        gamma_acc = powers[..., m] / powers[..., :m].sum(axis=-1)
        gamma_e2e = relay_end_to_end_sir(gamma_bh, gamma_acc)

        threshold = direct_sirs if relay_rule == "best_direct" else gamma_bh
        on_uav = gamma_e2e > threshold
        server = np.where(on_uav, m, direct_server)
        sir = np.where(on_uav, gamma_e2e, direct_sirs)

    loads = np.sum(server[..., None] == transmitters, axis=-2)
    if donor is not None:
        loads = loads + (transmitters == donor[..., None])  # the UAV at its donor
    rate = np.log2(1.0 + sir) / np.take_along_axis(loads, server, axis=-1)
    return AssociationSnapshot(mode=mode, server=server, loads=loads,
                               sir=sir, rate=rate, n_mbs=m, donor=donor)


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


def stage_rates(positions, scn: Scenario, mode: str, models: LinkModels,
                ants: AntennaSetup, relay_rule: str = "best_direct") -> np.ndarray:
    """Per-UE rates at each UAV position; shape (len(positions), K)."""
    positions = np.asarray(positions, dtype=float).reshape(-1, 2)
    return associate(scn, positions, mode, models, ants, relay_rule).rate


@dataclass(eq=False)
class RewardMap:
    """Per-cell stage reward for one criterion plus a max-SIR diagnostic.

    rewards[iy, ix] is the reward with the UAV hovering over cell (ix, iy);
    max_sir_db[iy, ix] is the best-transmitter SIR a probe UE on the ground
    below that cell would see, for heat-map export. rates[iy, ix] holds the
    per-UE rates behind the reward when the map was built from a scenario.
    """

    criterion: str
    xs: np.ndarray         # (nx,) cell center x, meters
    ys: np.ndarray         # (ny,) cell center y, meters
    rewards: np.ndarray    # (ny, nx)
    max_sir_db: np.ndarray  # (ny, nx)
    rates: np.ndarray | None = None  # (ny, nx, K)

    def rates_at(self, cells) -> np.ndarray:
        """Per-UE rates with the UAV over each (ix, iy) cell; (len(cells), K)."""
        ix, iy = np.asarray(cells, dtype=int).reshape(-1, 2).T
        return self.rates[iy, ix]

    def to_csv(self, path) -> None:
        output.write_csv(path, ["cell_x_m", "cell_y_m", "reward", "max_sir_db"],
                         ((x, y, self.rewards[iy, ix], self.max_sir_db[iy, ix])
                          for iy, y in enumerate(self.ys) for ix, x in enumerate(self.xs)))


def build_reward_maps(scn: Scenario, criteria, mode: str, models: LinkModels,
                      ants: AntennaSetup, grid: "StateGrid",
                      relay_rule: str = "best_direct") -> dict[str, RewardMap]:
    """One association sweep over the grid, shared by all requested criteria.

    Each grid row is one batch: the UAV over every cell of the row, and a
    probe UE below the UAV for the max-SIR diagnostic.
    """
    criteria = tuple(criteria)
    for c in criteria:
        if c not in CRITERIA:
            raise ValueError(f"unknown criterion {c!r}")
    xs, ys = grid.axis_x(), grid.axis_y()
    rates = np.empty((ys.size, xs.size, scn.n_ue))
    max_sir = np.empty((ys.size, xs.size))
    for iy, y in enumerate(ys):
        row = np.column_stack([xs, np.full(xs.size, y)])
        rates[iy] = associate(scn, row, mode, models, ants, relay_rule).rate
        probe = link_budget(scn, row, models, ants, ue_xy=row[:, None, :]).powers_mw[:, 0]
        sir = probe / (probe.sum(axis=-1, keepdims=True) - probe)
        max_sir[iy] = 10.0 * np.log10(sir.max(axis=-1))
    return {
        c: RewardMap(criterion=c, xs=xs, ys=ys, rewards=criterion_reward(rates, c),
                     max_sir_db=max_sir, rates=rates)
        for c in criteria
    }


def build_reward_map(scn: Scenario, criterion: str, mode: str, models: LinkModels,
                     ants: AntennaSetup, grid: "StateGrid",
                     relay_rule: str = "best_direct") -> RewardMap:
    return build_reward_maps(scn, (criterion,), mode, models, ants, grid, relay_rule)[criterion]
