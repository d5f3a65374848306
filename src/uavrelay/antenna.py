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

Directions come in as broadcastable x, y and z planes (dx, dy, dz), such
as a link batch's ground offsets and its one height difference. Each sum
over the three components is added in the order of np.sum over the last
axis of a (..., 3) block, so it has the bits of that reduction. A single
direction (three scalars) is a batch of one, with the bits it has in any batch.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

G_MAX = 1.5  # peak linear power gain of the crossed-dipole radiation pattern


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


def _unit_components(dx, dy, dz):
    """Unit-vector planes (ux, uy, uz) of broadcastable direction planes, at least 1-d.

    The norm adds the squares in np.sum's last-axis order, so each plane
    has the bits of the interleaved `d / norm(d)`. A single direction is a
    batch of one: numpy's scalar complex product rounds differently from
    its array loop.
    """
    x, y, z = (np.atleast_1d(np.asarray(c, dtype=float)) for c in (dx, dy, dz))
    norm = np.sqrt(x * x + y * y + z * z)
    if np.any(norm == 0):
        raise ValueError("zero-length link direction")
    return x / norm, y / norm, z / norm


def _per_direction(out: np.ndarray, dx, dy, dz):
    """Plane results as they are, or a float when (dx, dy, dz) are scalars: one direction."""
    return out if np.ndim(dx) or np.ndim(dy) or np.ndim(dz) else float(out[0])


def _radiation(ux, mode: AntennaMode):
    """Radiated power gain from the x plane of the unit directions; even in ux."""
    if isinstance(mode, Omni):
        return np.ones(ux.shape)
    return 0.75 * (1.0 + ux ** 2)


def radiation_gain(dx, dy, dz, mode: AntennaMode):
    """Radiated power gain of `mode` along the directions (dx, dy, dz)."""
    ux, _, _ = _unit_components(dx, dy, dz)
    return _per_direction(_radiation(ux, mode), dx, dy, dz)


def ue_link_gain(dx, dy, dz, mode: AntennaMode):
    """Transmitter-side gain toward a UE: radiation times whip capture."""
    _, uy, uz = _unit_components(dx, dy, dz)
    if isinstance(mode, Omni):
        out = np.ones(uz.shape)
    else:
        a2 = 1.0 - uz ** 2
        c2 = (uy * uz) ** 2
        out = 0.75 * (a2 ** 2 + c2)
    return _per_direction(out, dx, dy, dz)


def _jones(u, spin: int):
    """Jones planes (ex, ey, ez) of the unit direction planes u.

    The transverse projections of the z and y arms, pz = z - u u_z and
    py = y - u u_y, combined in phase quadrature as pz + 1j spin py.
    """
    ux, uy, uz = u
    quad = 1j * spin
    ex = (0.0 - ux * uz) + quad * (0.0 - ux * uy)
    ey = (0.0 - uy * uz) + quad * (1.0 - uy * uy)
    ez = (1.0 - uz * uz) + quad * (0.0 - uz * uy)
    # |pz|^2 + |py|^2 = 1 + u_x^2 >= 1, never degenerate
    norm = np.sqrt(np.abs(ex) ** 2 + np.abs(ey) ** 2 + np.abs(ez) ** 2)
    return ex / norm, ey / norm, ez / norm


def polarization_jones(dx, dy, dz, spin: int) -> np.ndarray:
    """Unit complex far-field polarization vector of the quadrature pair; (..., 3)."""
    e = np.stack(_jones(_unit_components(dx, dy, dz), spin), axis=-1)
    return e if np.ndim(dx) or np.ndim(dy) or np.ndim(dz) else e[0]


def _polarization(u, tx_mode: AntennaMode, rx_mode: AntennaMode):
    """|e_tx . conj(e_rx)|^2 from the unit direction planes u."""
    if isinstance(tx_mode, Omni) or isinstance(rx_mode, Omni):
        return np.ones(u[0].shape)
    e_tx = _jones(u, tx_mode.spin)
    # transverse projections are identical for +/-u, so reuse the direction
    e_rx = e_tx if rx_mode.spin == tx_mode.spin else _jones(u, rx_mode.spin)
    (tx, ty, tz), (rx, ry, rz) = e_tx, e_rx
    return np.abs(tx * np.conj(rx) + ty * np.conj(ry) + tz * np.conj(rz)) ** 2


def polarization_loss_factor(dx, dy, dz, tx_mode: AntennaMode, rx_mode: AntennaMode):
    """|e_tx . conj(e_rx)|^2 for a link along the directions (dx, dy, dz), tx towards rx.

    Equal spins give 1 in every direction; opposite spins give
    ((a^2-b^2)^2 + 4c^2) / (a^2+b^2)^2, which is 0 on the x-axis and 1 in
    the y-z plane. An omnidirectional end is treated as perfectly matched.
    """
    return _per_direction(_polarization(_unit_components(dx, dy, dz), tx_mode, rx_mode),
                          dx, dy, dz)


def combined_gain(dx, dy, dz, tx_mode: AntennaMode, rx_mode: AntennaMode):
    """Radiation gain at both ends times the polarization loss factor, per tx->rx direction."""
    u = _unit_components(dx, dy, dz)
    # the receiver radiates along -u, and the pattern is even in u_x
    g = _radiation(u[0], tx_mode) * _radiation(u[0], rx_mode)
    return _per_direction(g * _polarization(u, tx_mode, rx_mode), dx, dy, dz)
