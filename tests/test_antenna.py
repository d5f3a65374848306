import numpy as np
import pytest

from uavrelay.antenna import (G_MAX, CrossedDipole, Omni, combined_gain,
                              polarization_jones, polarization_loss_factor,
                              radiation_gain, ue_link_gain)

from oracles import LinkGeometry, tx_gain


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
