"""Crossed-dipole radiation gains.

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
polarization alignment with the transmitted wave) is absorbed into
ue_link_gain. The combined UE-link gain is 0.75 * ((1 - u_z^2)^2 + u_y^2 u_z^2):
zero for a receiver at nadir, at most 0.75 near the horizon.

Both ends of a backhaul link carry the same pair, with the same feed, so
they are polarization matched in every direction and the backhaul gain is
the product of the two radiated gains.

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
    """Unit gain in every direction."""


@dataclass(frozen=True)
class CrossedDipole:
    """The crossed-dipole pair: radiated gain 0.75 (1 + u_x^2)."""


AntennaMode = Omni | CrossedDipole


def _unit_components(dx, dy, dz, axes):
    """The unit-vector planes along `axes` (0, 1, 2 for x, y, z) of broadcastable directions.

    Returns two fresh planes of the directions' broadcast shape, at least
    1-d: the one or two unit planes asked for, then a free plane when one
    was. Only those are divided out, into the norm's two working planes, so
    a gain can finish its arithmetic in them. The norm adds the squares in
    np.sum's last-axis order, so each unit plane has the bits of the
    interleaved `d / norm(d)`. A single direction is a batch of one: it runs
    through the same numpy array loops as any batch.
    """
    c = [np.atleast_1d(np.asarray(v, dtype=float)) for v in (dx, dy, dz)]
    shape = np.broadcast_shapes(*(v.shape for v in c))
    norm = np.multiply(c[0], c[0], out=np.empty(shape))
    spare = np.multiply(c[1], c[1], out=np.empty(shape))
    np.add(norm, spare, out=norm)
    np.add(norm, c[2] * c[2], out=norm)
    np.sqrt(norm, out=norm)
    if np.any(norm == 0):
        raise ValueError("zero-length link direction")
    if len(axes) == 2:
        np.divide(c[axes[0]], norm, out=spare)
        return spare, np.divide(c[axes[1]], norm, out=norm)
    (axis,) = axes
    return np.divide(c[axis], norm, out=norm), spare


def _per_direction(out: np.ndarray, dx, dy, dz):
    """Plane results as they are, or a float when (dx, dy, dz) are scalars: one direction."""
    return out if np.ndim(dx) or np.ndim(dy) or np.ndim(dz) else float(out[0])


def _radiation(ux, mode: AntennaMode, out: np.ndarray) -> np.ndarray:
    """Radiated power gain from the x plane of the unit directions, into out; even in ux."""
    if isinstance(mode, Omni):
        out.fill(1.0)
        return out
    np.square(ux, out=out)
    np.add(1.0, out, out=out)
    return np.multiply(0.75, out, out=out)  # 0.75 * (1 + ux^2)


def radiation_gain(dx, dy, dz, mode: AntennaMode):
    """Radiated power gain of `mode` along the directions (dx, dy, dz)."""
    ux, _ = _unit_components(dx, dy, dz, (0,))
    return _per_direction(_radiation(ux, mode, ux), dx, dy, dz)


def ue_link_gain(dx, dy, dz, mode: AntennaMode):
    """Transmitter-side gain toward a UE: radiation times whip capture."""
    uy, uz = _unit_components(dx, dy, dz, (1, 2))
    if isinstance(mode, Omni):
        uz.fill(1.0)
        return _per_direction(uz, dx, dy, dz)
    c2 = np.square(np.multiply(uy, uz, out=uy), out=uy)  # (uy uz)^2
    a2 = np.subtract(1.0, np.square(uz, out=uz), out=uz)  # 1 - uz^2
    np.add(np.square(a2, out=a2), c2, out=a2)
    return _per_direction(np.multiply(0.75, a2, out=a2), dx, dy, dz)  # 0.75 (a2^2 + c2)


def combined_gain(dx, dy, dz, tx_mode: AntennaMode, rx_mode: AntennaMode):
    """Product of the radiation gains at both ends, per tx->rx direction."""
    ux, spare = _unit_components(dx, dy, dz, (0,))
    # the receiver radiates along -u, and the pattern is even in u_x
    g_tx = _radiation(ux, tx_mode, spare)
    return _per_direction(np.multiply(g_tx, _radiation(ux, rx_mode, ux), out=ux), dx, dy, dz)
