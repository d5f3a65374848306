import itertools

import numpy as np
import pytest

from uavrelay.antenna import (G_MAX, CrossedDipole, Omni, combined_gain,
                              polarization_jones, polarization_loss_factor,
                              radiation_gain, ue_link_gain)

from oracles import (LinkGeometry, interleaved_combined_gain,
                     interleaved_polarization_jones,
                     interleaved_polarization_loss_factor,
                     interleaved_radiation_gain, interleaved_ue_link_gain, tx_gain)


def sphere_points(n=400, seed=2):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def test_omni_is_unity_everywhere():
    for u in sphere_points(50):
        geom = LinkGeometry((0, 0, 0), tuple(100 * u), tx_mode=Omni())
        assert tx_gain(geom) == 1.0


def test_radiation_peak_on_x_axis():
    dip = CrossedDipole()
    assert radiation_gain(np.array([1.0, 0.0, 0.0]), dip) == pytest.approx(G_MAX)
    assert radiation_gain(np.array([-5.0, 0.0, 0.0]), dip) == pytest.approx(G_MAX)
    g = radiation_gain(sphere_points(), dip)
    assert np.all(g <= G_MAX + 1e-12)
    assert np.all(g >= 0.75 - 1e-12)


def test_radiation_integrates_to_isotropic():
    # power conservation: mean over the sphere of the radiated gain is 1
    g = radiation_gain(sphere_points(200_000), CrossedDipole())
    assert np.mean(g) == pytest.approx(1.0, abs=5e-3)


def test_nadir_gain_below_peak_and_zero_capture():
    dip = CrossedDipole()
    nadir = np.array([0.0, 0.0, -1.0])
    # z arm is silent at nadir: only the y arm radiates there
    assert radiation_gain(nadir, dip) == pytest.approx(0.75)
    assert radiation_gain(nadir, dip) < G_MAX
    # the vertical-whip capture factor nulls the UE link entirely
    geom = LinkGeometry((0, 0, 120), (0, 0, 2), tx_mode=dip)
    assert tx_gain(geom) == pytest.approx(0.0, abs=1e-15)
    assert tx_gain(geom) < G_MAX


def test_tx_gain_mirror_symmetry_in_y():
    dip = CrossedDipole()
    rng = np.random.default_rng(3)
    for _ in range(40):
        d = rng.normal(size=3)
        m = d * np.array([1.0, -1.0, 1.0])
        assert ue_link_gain(d, dip) == pytest.approx(ue_link_gain(m, dip), rel=1e-12)
        assert radiation_gain(d, dip) == pytest.approx(radiation_gain(m, dip), rel=1e-12)


def test_tx_gain_bounds():
    g = ue_link_gain(sphere_points(), CrossedDipole())
    assert np.all(g >= 0.0)
    assert np.all(g <= G_MAX + 1e-12)


def test_zero_length_direction_rejected():
    with pytest.raises(ValueError):
        tx_gain(LinkGeometry((1, 2, 3), (1, 2, 3), tx_mode=CrossedDipole()))


def test_jones_vector_is_unit_and_transverse():
    for u in sphere_points(60):
        e = polarization_jones(u, 1)
        assert np.sum(np.abs(e) ** 2) == pytest.approx(1.0, rel=1e-12)
        assert abs(np.dot(e, u)) < 1e-12


class TestPolarizationLossFactor:
    def test_omni_ends_are_matched(self):
        u = np.array([0.3, -0.4, 0.866])
        assert polarization_loss_factor(u, Omni(), CrossedDipole()) == 1.0
        assert polarization_loss_factor(u, Omni(), Omni()) == 1.0

    def test_same_handedness_matched_everywhere(self):
        for u in sphere_points(100):
            plf = polarization_loss_factor(u, CrossedDipole(1), CrossedDipole(1))
            assert plf == pytest.approx(1.0, rel=1e-12)

    def test_opposite_handedness_null_at_boresight(self):
        u = np.array([1.0, 0.0, 0.0])
        plf = polarization_loss_factor(u, CrossedDipole(1), CrossedDipole(-1))
        assert plf == pytest.approx(0.0, abs=1e-15)

    def test_always_in_unit_interval(self):
        for spins in ((1, 1), (1, -1), (-1, -1)):
            plf = polarization_loss_factor(sphere_points(), CrossedDipole(spins[0]),
                                           CrossedDipole(spins[1]))
            assert np.all(plf >= -1e-15)
            assert np.all(plf <= 1.0 + 1e-12)


def backhaul_gain(tx, rx, tx_mode=Omni(), rx_mode=Omni()) -> float:
    return combined_gain(np.subtract(rx, tx, dtype=float), tx_mode, rx_mode)


class TestBackhaulCombinedGain:
    def test_both_omni(self):
        assert backhaul_gain((0, 0, 30), (500, 300, 120)) == 1.0

    def test_matched_pair_is_product_of_radiation_gains(self):
        g = backhaul_gain((0, 0, 30), (500, 300, 120), CrossedDipole(1), CrossedDipole(1))
        d = np.array([500.0, 300.0, 90.0])
        expected = radiation_gain(d, CrossedDipole(1)) * radiation_gain(-d, CrossedDipole(1))
        assert g == pytest.approx(float(expected), rel=1e-12)

    def test_mismatched_pair_null_on_x_link(self):
        g = backhaul_gain((0, 0, 120), (800, 0, 120), CrossedDipole(1), CrossedDipole(-1))
        assert g == pytest.approx(0.0, abs=1e-15)

    def test_bounded_by_gmax_squared(self):
        rng = np.random.default_rng(5)
        for spins in ((1, 1), (1, -1)):
            for _ in range(60):
                a = rng.uniform(-1000, 1000, size=3)
                b = rng.uniform(-1000, 1000, size=3)
                if np.allclose(a, b):
                    continue
                g = backhaul_gain(a, b, CrossedDipole(spins[0]), CrossedDipole(spins[1]))
                assert 0.0 <= g <= G_MAX ** 2 + 1e-12


def test_crossed_dipole_validates_spin():
    with pytest.raises(ValueError):
        CrossedDipole(spin=2)


MODES = (Omni(), CrossedDipole(1), CrossedDipole(-1))

# nadir and zenith, the y = 0 plane, both ways along x (the opposite-spin
# null), along y, horizontal, and components many orders of magnitude apart
SPECIAL_DIRECTIONS = np.array([
    [0.0, 0.0, -118.0], [0.0, 0.0, 90.0], [0.0, 0.0, -1e-150],
    [350.0, 0.0, -118.0], [-0.25, 0.0, 3.0], [1e-9, 0.0, -1.0],
    [1.0, 0.0, 0.0], [-800.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -5.0, 0.0],
    [300.0, -400.0, 0.0], [1.0, 1e-17, 0.0], [1e-17, 1.0, 1e-17],
])


def direction_batch(shape, seed):
    """(*shape, 3) directions: the special ones, the rest normal at mixed scales."""
    rng = np.random.default_rng(seed)
    n = int(np.prod(shape))
    d = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
    k = min(n, len(SPECIAL_DIRECTIONS))
    d[rng.permutation(n)[:k]] = SPECIAL_DIRECTIONS[rng.permutation(len(SPECIAL_DIRECTIONS))[:k]]
    return d.reshape(tuple(shape) + (3,))


BATCH_SHAPES = [(1,), (13,), (300,), (7, 11), (5, 4, 26), (2, 3, 50)]


class TestPlanesMatchInterleavedForms:
    """Every gain has the bits of its (..., 3) last-axis reduction form."""

    @pytest.mark.parametrize("shape", BATCH_SHAPES)
    @pytest.mark.parametrize("mode", MODES, ids=str)
    def test_single_end_gains(self, shape, mode):
        for seed in range(4):
            d = direction_batch(shape, seed)
            for got, want in ((radiation_gain(d, mode), interleaved_radiation_gain(d, mode)),
                              (ue_link_gain(d, mode), interleaved_ue_link_gain(d, mode))):
                assert got.shape == shape
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("shape", BATCH_SHAPES)
    @pytest.mark.parametrize("spin", (1, -1))
    def test_polarization_jones(self, shape, spin):
        for seed in range(4):
            d = direction_batch(shape, seed)
            got = polarization_jones(d, spin)
            assert got.shape == shape + (3,)
            assert np.array_equal(got, interleaved_polarization_jones(d, spin))

    @pytest.mark.parametrize("shape", BATCH_SHAPES)
    @pytest.mark.parametrize("tx_mode,rx_mode", itertools.product(MODES, MODES), ids=str)
    def test_two_end_gains(self, shape, tx_mode, rx_mode):
        for seed in range(4):
            d = direction_batch(shape, seed)
            plf = polarization_loss_factor(d, tx_mode, rx_mode)
            assert np.array_equal(plf, interleaved_polarization_loss_factor(d, tx_mode, rx_mode))
            g = combined_gain(d, tx_mode, rx_mode)
            assert np.array_equal(g, interleaved_combined_gain(d, tx_mode, rx_mode))

    @pytest.mark.parametrize("tx_mode,rx_mode", itertools.product(MODES, MODES), ids=str)
    def test_a_single_direction_has_its_bits_in_a_batch(self, tx_mode, rx_mode):
        batch = direction_batch((40,), 7)
        whole = [radiation_gain(batch, tx_mode), ue_link_gain(batch, tx_mode),
                 polarization_loss_factor(batch, tx_mode, rx_mode),
                 combined_gain(batch, tx_mode, rx_mode)]
        for i, d in enumerate(batch):
            single = [radiation_gain(d, tx_mode), ue_link_gain(d, tx_mode),
                      polarization_loss_factor(d, tx_mode, rx_mode),
                      combined_gain(d, tx_mode, rx_mode)]
            assert all(type(s) is float for s in single)
            assert single == [w[i] for w in whole]
            assert np.array_equal(polarization_jones(d, 1), polarization_jones(batch, 1)[i])


ZERO_DIRECTIONS = [np.zeros(3), np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])]
MODE_CALLS = {
    "radiation_gain": radiation_gain,
    "ue_link_gain": ue_link_gain,
    "polarization_loss_factor": lambda d, m: polarization_loss_factor(d, m, m),
    "combined_gain": lambda d, m: combined_gain(d, m, m),
}


@pytest.mark.parametrize("directions", ZERO_DIRECTIONS, ids=("single", "batch"))
@pytest.mark.parametrize("mode", (Omni(), CrossedDipole(1)), ids=str)
@pytest.mark.parametrize("name", MODE_CALLS)
def test_zero_length_direction_rejected_everywhere(name, mode, directions):
    with pytest.raises(ValueError, match="zero-length"):
        MODE_CALLS[name](directions, mode)


@pytest.mark.parametrize("directions", ZERO_DIRECTIONS, ids=("single", "batch"))
@pytest.mark.parametrize("spin", (1, -1))
def test_zero_length_direction_has_no_jones_vector(spin, directions):
    with pytest.raises(ValueError, match="zero-length"):
        polarization_jones(directions, spin)
