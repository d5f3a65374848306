"""Crossed-dipole radiation and polarization gains.

The 3D pattern models two Hertzian dipoles, one along the z-axis and one
along the y-axis, fed in phase quadrature so the pair radiates circular (in
general elliptical) polarization. Splitting unit power across the arms and
using the 1.5 peak gain of a single Hertzian dipole gives the radiated power
pattern

    g(u) = 0.75 * (sin^2 theta_z + sin^2 theta_y) = 0.75 * (1 + u_x^2),

which integrates to 1 over the sphere, peaks at G_MAX = 1.5 on the x-axis
and drops to 0.75 anywhere in the y-z plane (including straight down).

Links to UEs carry one further transmitter-side factor: the UE's
omnidirectional antenna is a vertical whip, azimuth-omni but blind along z,
so the fraction of the incident wave it captures (elevation pattern times
polarization alignment with the transmit Jones vector) is absorbed into
ue_link_gain. The combined UE-link gain is 0.75 * ((1 - u_z^2)^2 + u_y^2 u_z^2):
zero for a receiver at nadir, at most 0.75 near the horizon.

The sign of the quadrature feed ('spin') labels the handedness of the pair.
Equal spins are polarization matched in every direction; opposite spins
mismatch, with full nulls along the x-axis.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

G_MAX = 1.5  # peak linear power gain of the crossed-dipole radiation pattern

_Z = np.array([0.0, 0.0, 1.0])
_Y = np.array([0.0, 1.0, 0.0])


@dataclass(frozen=True)
class Omni:
    name = "omni"


@dataclass(frozen=True)
class CrossedDipole:
    spin: int = 1  # handedness: sign of the quadrature feed on the y arm

    name = "dipole"

    def __post_init__(self) -> None:
        if self.spin not in (-1, 1):
            raise ValueError(f"dipole spins must be +1 or -1, got {self.spin!r}")


AntennaMode = Omni | CrossedDipole


def _unit(directions: np.ndarray) -> np.ndarray:
    d = np.asarray(directions, dtype=float)
    # np.linalg.norm's sum of squares, without its conj() copy of a real array
    norm = np.sqrt(np.sum(d * d, axis=-1, keepdims=True))
    if np.any(norm == 0):
        raise ValueError("zero-length link direction")
    return d / norm


def radiation_gain(directions, mode: AntennaMode):
    """Radiated power gain of `mode` along `directions` (..., 3)."""
    u = _unit(directions)
    if isinstance(mode, Omni):
        out = np.ones(u.shape[:-1])
    else:
        out = 0.75 * (1.0 + u[..., 0] ** 2)
    return out if out.ndim else float(out)


def ue_link_gain(directions, mode: AntennaMode):
    """Transmitter-side gain toward a UE: radiation times whip capture."""
    u = _unit(directions)
    if isinstance(mode, Omni):
        out = np.ones(u.shape[:-1])
    else:
        a2 = 1.0 - u[..., 2] ** 2
        c2 = (u[..., 1] * u[..., 2]) ** 2
        out = 0.75 * (a2 ** 2 + c2)
    return out if out.ndim else float(out)


def polarization_jones(directions, spin: int) -> np.ndarray:
    """Unit complex far-field polarization vector of the quadrature pair."""
    u = _unit(directions)
    pz = _Z - u * u[..., 2:3]
    py = _Y - u * u[..., 1:2]
    e = pz + 1j * spin * py
    # |pz|^2 + |py|^2 = 1 + u_x^2 >= 1, never degenerate
    norm = np.sqrt(np.sum(np.abs(e) ** 2, axis=-1, keepdims=True))
    return e / norm


def polarization_loss_factor(directions, tx_mode: AntennaMode, rx_mode: AntennaMode):
    """|e_tx . conj(e_rx)|^2 for a link along `directions` (tx towards rx).

    Equal spins give 1 in every direction; opposite spins give
    ((a^2-b^2)^2 + 4c^2) / (a^2+b^2)^2, which is 0 on the x-axis and 1 in
    the y-z plane. An omnidirectional end is treated as perfectly matched.
    """
    if isinstance(tx_mode, Omni) or isinstance(rx_mode, Omni):
        u = _unit(directions)
        out = np.ones(u.shape[:-1])
        return out if out.ndim else float(out)
    e_tx = polarization_jones(directions, tx_mode.spin)
    # transverse projections are identical for +/-u, so reuse the direction
    e_rx = polarization_jones(directions, rx_mode.spin)
    out = np.abs(np.sum(e_tx * np.conj(e_rx), axis=-1)) ** 2
    return out if out.ndim else float(out)


def combined_gain(directions, tx_mode: AntennaMode, rx_mode: AntennaMode):
    """Radiation gain at both ends times the polarization loss factor, per tx->rx direction."""
    u = np.asarray(directions, dtype=float)
    g = radiation_gain(u, tx_mode) * radiation_gain(-u, rx_mode)
    return g * polarization_loss_factor(u, tx_mode, rx_mode)
