"""Closed-form path-loss models for every link class.

All functions take scalars or numpy arrays and return loss in dB as pure,
power-independent gains (meters, MHz); the radio layer applies transmit power.
The MPLM LoS probability is a product over the building rows a ray crosses.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Okumura-Hata empirical validity box. The simulation routinely uses the
# model below 1 km (distances here top out around 1.4 km), so violations are
# noted once per command (see ohplm_range_problems) instead of rejected.
OHPLM_FC_RANGE = (150.0, 1500.0)
OHPLM_HBS_RANGE = (30.0, 200.0)
OHPLM_HUE_RANGE = (1.0, 10.0)
OHPLM_D_RANGE = (1000.0, 10_000.0)

# 3GPP UMa aerial-vehicle LoS model validity (receiver altitude, meters).
UMA_AV_ALTITUDE_RANGE = (22.5, 300.0)


@dataclass(frozen=True)
class HataCoefficients:
    """dB-domain coefficients of the suburban Okumura-Hata closed form."""

    a_coef: float
    b_coef: float
    c_coef: float


def hata_coefficients(f_c_mhz: float, h_bs: float, h_ue: float) -> HataCoefficients:
    """A, B and C for a suburban environment.

    A = 69.55 + 26.16 log10(f) - 13.82 log10(h_bs) - a(h_ue)
    B = 44.9 - 6.55 log10(h_bs)
    C = -2 (log10(f/28))^2 - 5.4
    """
    a_ue = (1.1 * math.log10(f_c_mhz) - 0.7) * h_ue - 1.56 * math.log10(f_c_mhz) - 0.8
    a = 69.55 + 26.16 * math.log10(f_c_mhz) - 13.82 * math.log10(h_bs) - a_ue
    b = 44.9 - 6.55 * math.log10(h_bs)
    c = -2.0 * math.log10(f_c_mhz / 28.0) ** 2 - 5.4
    return HataCoefficients(a_coef=a, b_coef=b, c_coef=c)


def hata_path_loss(d, f_c_mhz: float, h_tx: float, h_ue: float):
    """Okumura-Hata suburban loss A + B log10(d_km) + C, d in meters.

    h_tx is the elevated end (an MBS or the UAV standing in for one).
    """
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0):
        raise ValueError("hata_path_loss requires d > 0")
    co = hata_coefficients(f_c_mhz, h_tx, h_ue)
    out = np.divide(d, 1000.0, out=np.empty(d.shape))  # A + B log10(d_km) + C, in place
    np.log10(out, out=out)
    np.multiply(co.b_coef, out, out=out)
    np.add(co.a_coef, out, out=out)
    np.add(out, co.c_coef, out=out)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class BuildingModel:
    """Square-grid suburb: built-up fraction, density, Rayleigh height scale."""

    a_hat: float = 0.1    # fraction of land occupied by buildings
    b_hat: float = 100.0  # buildings per km^2
    c_hat: float = 10.0   # Rayleigh parameter of building heights, m

    def __post_init__(self) -> None:
        # los_probability tabulates a factor per building row a ray crosses and per
        # row count: at most one row per metre keeps that table small. Height scales
        # from 1 mm to 1 km keep 2 c_hat^2 a normal, finite double.
        if not (0 < self.a_hat < 1 and 0 < self.b_hat and 1e-3 <= self.c_hat <= 1e3
                and math.sqrt(self.a_hat * self.b_hat) <= 1000.0):
            raise ValueError("mplm building parameters out of range: need 0 < a_hat < 1, "
                             "b_hat > 0, 1e-3 <= c_hat <= 1e3 m and sqrt(a_hat*b_hat) <= "
                             f"1000 rows per km, got {self}")


def los_probability(z, h_uav: float, h_ue: float, building: BuildingModel | None = None):
    """Probability of a line-of-sight air-to-ground link at horizontal range z.

    The ray crosses m+1 building rows, m = floor(z*sqrt(a_hat*b_hat)/1000 - 1);
    each row is cleared independently by a Rayleigh-height building, and tau
    is the product of the m+1 row factors in a (row, m) factor table. A row's
    factor is the grid-building clearance 1 - exp(-h_ray^2 / (2 c_hat^2)), with
    the ray height h_ray interpolated across the m+1 rows.
    """
    if h_uav <= 0 or h_ue <= 0 or h_uav <= h_ue:
        raise ValueError("heights must satisfy h_uav > h_ue > 0")
    bm = building or BuildingModel()
    z = np.asarray(z, dtype=float)
    if np.any(z < 0):
        raise ValueError("horizontal distance must be non-negative")

    m = np.floor(z * math.sqrt(bm.a_hat * bm.b_hat) / 1000.0 - 1.0).astype(int)
    # tau depends on z only through m >= -1: tabulate it once per m, then gather
    ms = np.arange(-1, (int(m.max()) if m.size else -1) + 1)
    rows = np.maximum(ms, 0) + 1  # avoids 0 division where the product is empty
    dh = h_uav - h_ue
    two_c2 = 2.0 * bm.c_hat ** 2
    table = np.ones(ms.shape)
    # blocks of about 2^20 (row n, m) factors bound the memory; rows multiply in turn
    for n in np.array_split(np.arange(ms[-1] + 1)[:, None], 1 + ms.size ** 2 // 2 ** 20):
        h_ray = h_uav - (n + 0.5) * dh / rows
        factor = 1.0 - np.exp(-(h_ray ** 2) / two_c2)
        factor = np.where(n <= ms, factor, 1.0)  # row n > m: not crossed
        table = np.prod(np.vstack([table, factor]), axis=0)
    tau = table[m + 1]
    return tau if tau.ndim else float(tau)


def mixture_path_gain(d, z, h_uav: float, h_ue: float,
                      alpha_los: float, alpha_nlos: float,
                      building: BuildingModel | None = None,
                      ref_db: float = 0.0):
    """LoS/NLoS mixture loss -10 log10(d^-aL tau_L + d^-aN tau_N) + ref_db.

    d is the 3D distance, z the horizontal distance (both meters). The bare
    exponent law is anchored at a 1 m unit reference; ref_db shifts the whole
    curve by a constant (e.g. the free-space loss at 1 m) without changing
    any within-model ordering.
    """
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0):
        raise ValueError("mixture_path_gain requires d > 0")
    tau_l = np.asarray(los_probability(z, h_uav, h_ue, building))
    # mix = d^-aL tau_L + d^-aN (1 - tau_L), in place; tau_L is a fresh array
    mix = np.power(d, -alpha_los, out=np.empty(np.broadcast_shapes(d.shape, tau_l.shape)))
    np.multiply(mix, tau_l, out=mix)
    nlos = np.power(d, -alpha_nlos, out=np.empty(mix.shape))
    np.multiply(nlos, np.subtract(1.0, tau_l, out=tau_l), out=nlos)
    out = np.add(mix, nlos, out=mix)
    np.log10(out, out=out)  # ref_db - 10 log10(mix)
    np.multiply(10.0, out, out=out)
    np.subtract(ref_db, out, out=out)
    return out if out.ndim else float(out)


def fspl(d, f_c_mhz: float):
    """Free-space loss 20 log10(d) + 20 log10(f_c) - 27.55, d in m, f in MHz."""
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0):
        raise ValueError("fspl requires d > 0")
    out = 20.0 * np.log10(d) + 20.0 * math.log10(f_c_mhz) - 27.55
    return out if out.ndim else float(out)


def ohplm_range_problems(f_c_mhz: float, h_tx: float, h_ue: float,
                         d_min: float, d_max: float) -> list[str]:
    """Where an Okumura-Hata link over 3D distances [d_min, d_max] leaves the validity box."""
    out = []
    if not (OHPLM_FC_RANGE[0] <= f_c_mhz <= OHPLM_FC_RANGE[1]):
        out.append(f"OHPLM carrier {f_c_mhz} MHz outside {OHPLM_FC_RANGE}")
    if not (OHPLM_HBS_RANGE[0] <= h_tx <= OHPLM_HBS_RANGE[1]):
        out.append(f"OHPLM tx height {h_tx} m outside {OHPLM_HBS_RANGE}")
    if not (OHPLM_HUE_RANGE[0] <= h_ue <= OHPLM_HUE_RANGE[1]):
        out.append(f"OHPLM UE height {h_ue} m outside {OHPLM_HUE_RANGE}")
    if d_min < OHPLM_D_RANGE[0] or d_max > OHPLM_D_RANGE[1]:
        out.append("OHPLM applied outside its 1-10 km distance range")
    return out


def uma_av_altitude_problem(h_uav: float) -> str | None:
    """Why the UMa-AV backhaul model rejects UAV altitude h_uav, or None if it is valid."""
    lo, hi = UMA_AV_ALTITUDE_RANGE
    if lo <= h_uav <= hi:
        return None
    return f"UMa-AV backhaul model requires altitude in [{lo}, {hi}] m"


def backhaul_path_loss(d3d, f_c_mhz: float, h_uav: float = 120.0):
    """3GPP UMa aerial-vehicle LoS loss 28 + 22 log10(d3D) + 20 log10(f_GHz).

    Valid for receiver altitudes between 22.5 m and 300 m, where the UMa-AV
    LoS probability is 1.
    """
    problem = uma_av_altitude_problem(h_uav)
    if problem:
        raise ValueError(problem)
    d3d = np.asarray(d3d, dtype=float)
    if np.any(d3d <= 0):
        raise ValueError("backhaul_path_loss requires d3d > 0")
    out = 28.0 + 22.0 * np.log10(d3d) + 20.0 * math.log10(f_c_mhz / 1000.0)
    return out if out.ndim else float(out)


# --- model selection -------------------------------------------------------
#
# Each link class is priced by one of the tagged models below: a run picks the
# UAV->UE law, and radio fixes the MBS->UE law and the backhaul law. The radio
# layer calls loss_db with the full link geometry and lets the model pick
# what it needs.


@dataclass(frozen=True)
class OhplmModel:
    name = "ohplm"

    def loss_db(self, d3d, z, *, f_c_mhz, h_tx, h_rx):
        return hata_path_loss(d3d, f_c_mhz, h_tx, h_rx)


@dataclass(frozen=True)
class MplmModel:
    """The LoS/NLoS mixture anchored at the free-space loss at 1 m."""

    building: BuildingModel = BuildingModel()
    alpha_los: float = 2.09
    alpha_nlos: float = 3.75
    name = "mplm"

    def loss_db(self, d3d, z, *, f_c_mhz, h_tx, h_rx):
        return mixture_path_gain(
            d3d, z, h_tx, h_rx, self.alpha_los, self.alpha_nlos,
            self.building, fspl(1.0, f_c_mhz),
        )


@dataclass(frozen=True)
class FsplModel:
    name = "fspl"

    def loss_db(self, d3d, z, *, f_c_mhz, h_tx, h_rx):
        return fspl(d3d, f_c_mhz)


@dataclass(frozen=True)
class BackhaulUmaAvModel:
    name = "uma_av"

    def loss_db(self, d3d, z, *, f_c_mhz, h_tx, h_rx):
        return backhaul_path_loss(d3d, f_c_mhz, h_uav=h_rx)

