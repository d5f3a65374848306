import itertools

import numpy as np
import pytest

from uavrelay import antenna
from uavrelay.antenna import G_MAX, CrossedDipole, Omni

from oracles import (LinkGeometry, interleaved_combined_gain, interleaved_radiation_gain,
                     interleaved_ue_link_gain, on_planes, tx_gain)

# the package's gains take direction planes; these take (..., 3) directions
radiation_gain, ue_link_gain, combined_gain = map(
    on_planes, (antenna.radiation_gain, antenna.ue_link_gain, antenna.combined_gain))


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


MODES = (Omni(), CrossedDipole())

# nadir and zenith, the y = 0 plane, both ways along x (the radiation
# peak), along y, horizontal, and components many orders of magnitude apart
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


def backhaul_gain(tx, rx, tx_mode=Omni(), rx_mode=Omni()) -> float:
    return combined_gain(np.subtract(rx, tx, dtype=float), tx_mode, rx_mode)


class TestBackhaulCombinedGain:
    def test_both_omni(self):
        assert backhaul_gain((0, 0, 30), (500, 300, 120)) == 1.0

    def test_matched_pair_is_product_of_radiation_gains(self):
        dip = CrossedDipole()
        for seed, shape in enumerate(BATCH_SHAPES):
            d = direction_batch(shape, seed)
            want = radiation_gain(d, dip) * radiation_gain(-d, dip)
            assert np.array_equal(combined_gain(d, dip, dip), want)

    def test_bounded_by_gmax_squared(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            a = rng.uniform(-1000, 1000, size=3)
            b = rng.uniform(-1000, 1000, size=3)
            if np.allclose(a, b):
                continue
            g = backhaul_gain(a, b, CrossedDipole(), CrossedDipole())
            assert 0.0 <= g <= G_MAX ** 2 + 1e-12


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
    @pytest.mark.parametrize("tx_mode,rx_mode", itertools.product(MODES, MODES), ids=str)
    def test_two_end_gains(self, shape, tx_mode, rx_mode):
        for seed in range(4):
            d = direction_batch(shape, seed)
            g = combined_gain(d, tx_mode, rx_mode)
            assert np.array_equal(g, interleaved_combined_gain(d, tx_mode, rx_mode))

    @pytest.mark.parametrize("tx_mode,rx_mode", itertools.product(MODES, MODES), ids=str)
    def test_a_single_direction_has_its_bits_in_a_batch(self, tx_mode, rx_mode):
        batch = direction_batch((40,), 7)
        whole = [radiation_gain(batch, tx_mode), ue_link_gain(batch, tx_mode),
                 combined_gain(batch, tx_mode, rx_mode)]
        for i, d in enumerate(batch):
            single = [radiation_gain(d, tx_mode), ue_link_gain(d, tx_mode),
                      combined_gain(d, tx_mode, rx_mode)]
            assert all(type(s) is float for s in single)
            assert single == [w[i] for w in whole]


ZERO_DIRECTIONS = [np.zeros(3), np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])]
MODE_CALLS = {
    "radiation_gain": radiation_gain,
    "ue_link_gain": ue_link_gain,
    "combined_gain": lambda d, m: combined_gain(d, m, m),
}


@pytest.mark.parametrize("directions", ZERO_DIRECTIONS, ids=("single", "batch"))
@pytest.mark.parametrize("mode", MODES, ids=str)
@pytest.mark.parametrize("name", MODE_CALLS)
def test_zero_length_direction_rejected_everywhere(name, mode, directions):
    with pytest.raises(ValueError, match="zero-length"):
        MODE_CALLS[name](directions, mode)



MODE_PAIRS = list(itertools.product(MODES, MODES))


class TestGainSymmetries:
    """Each gain reads its direction through squares of unit components: exact symmetries."""

    @pytest.mark.parametrize("mode", MODES, ids=str)
    @pytest.mark.parametrize("name", MODE_CALLS)
    @pytest.mark.parametrize("axis", range(3), ids=("x", "y", "z"))
    def test_even_in_each_axis(self, axis, name, mode):
        flip = np.ones(3)
        flip[axis] = -1.0
        for seed, shape in enumerate(BATCH_SHAPES):
            d = direction_batch(shape, seed)
            assert np.array_equal(MODE_CALLS[name](d * flip, mode), MODE_CALLS[name](d, mode))

    @pytest.mark.parametrize("mode", MODES, ids=str)
    @pytest.mark.parametrize("name", MODE_CALLS)
    @pytest.mark.parametrize("scale", [2.0 ** -10, 0.5, 2.0, 2.0 ** 10])
    def test_independent_of_link_length(self, scale, name, mode):
        for seed, shape in enumerate(BATCH_SHAPES):
            d = direction_batch(shape, seed)
            assert np.array_equal(MODE_CALLS[name](d * scale, mode), MODE_CALLS[name](d, mode))

    @pytest.mark.parametrize("shape", BATCH_SHAPES)
    @pytest.mark.parametrize("tx_mode,rx_mode", MODE_PAIRS, ids=str)
    def test_backhaul_is_reciprocal(self, shape, tx_mode, rx_mode):
        d = direction_batch(shape, 11)
        assert np.array_equal(combined_gain(d, tx_mode, rx_mode),
                              combined_gain(-d, rx_mode, tx_mode))

    @pytest.mark.parametrize("shape", BATCH_SHAPES)
    @pytest.mark.parametrize("tx_mode,rx_mode", MODE_PAIRS, ids=str)
    def test_backhaul_is_product_of_end_gains(self, shape, tx_mode, rx_mode):
        # the receiver radiates back along -d
        d = direction_batch(shape, 12)
        want = radiation_gain(d, tx_mode) * radiation_gain(-d, rx_mode)
        assert np.array_equal(combined_gain(d, tx_mode, rx_mode), want)

    @pytest.mark.parametrize("tx_mode,rx_mode", MODE_PAIRS, ids=str)
    def test_symmetric_about_the_x_axis(self, tx_mode, rx_mode):
        # both radiated patterns depend on u_x alone: turning d about x keeps the gains
        d = direction_batch((300,), 13)
        for angle in np.linspace(0.1, 2 * np.pi, 7):
            c, s = np.cos(angle), np.sin(angle)
            turned = np.stack([d[:, 0], c * d[:, 1] - s * d[:, 2], s * d[:, 1] + c * d[:, 2]],
                              axis=-1)
            np.testing.assert_allclose(radiation_gain(turned, tx_mode),
                                       radiation_gain(d, tx_mode), rtol=1e-12)
            np.testing.assert_allclose(combined_gain(turned, tx_mode, rx_mode),
                                       combined_gain(d, tx_mode, rx_mode), rtol=1e-12)


# exact ranges: 0.75 (1 + u_x^2) with |u_x| <= 1, and at most 0.75 toward a UE
GAIN_RANGES = {
    ("radiation_gain", Omni): (1.0, 1.0),
    ("radiation_gain", CrossedDipole): (0.75, G_MAX),
    ("ue_link_gain", Omni): (1.0, 1.0),
    ("ue_link_gain", CrossedDipole): (0.0, 0.75),
    ("combined_gain", Omni): (1.0, 1.0),
    ("combined_gain", CrossedDipole): (0.75 ** 2, G_MAX ** 2),
}


@pytest.mark.parametrize("mode", MODES, ids=str)
@pytest.mark.parametrize("name", MODE_CALLS)
def test_gains_stay_in_their_ranges(name, mode):
    lo, hi = GAIN_RANGES[name, type(mode)]
    for seed, shape in enumerate(BATCH_SHAPES):
        g = MODE_CALLS[name](direction_batch(shape, seed), mode)
        assert np.all(g >= lo)
        assert np.all(g <= hi * (1 + 4 * np.finfo(float).eps))
