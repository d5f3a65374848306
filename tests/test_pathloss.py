import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavrelay.pathloss import (BuildingModel, backhaul_path_loss, fspl,
                               hata_coefficients, hata_path_loss,
                               los_probability, mixture_path_gain)


def hand_hata(f_c, h_bs, h_ue, d_m):
    # independent straight-line evaluation of the suburban closed forms
    corr = (1.1 * math.log10(f_c) - 0.7) * h_ue - 1.56 * math.log10(f_c) - 0.8
    a = 69.55 + 26.16 * math.log10(f_c) - 13.82 * math.log10(h_bs) - corr
    b = 44.9 - 6.55 * math.log10(h_bs)
    c = -2.0 * (math.log10(f_c / 28.0)) ** 2 - 5.4
    return a + b * math.log10(d_m / 1000.0) + c, a, b, c


class TestHata:
    def test_pinned_coefficients_and_total(self):
        total, a, b, c = hand_hata(1500.0, 30.0, 2.0, 1000.0)
        co = hata_coefficients(1500.0, 30.0, 2.0)
        assert co.a_coef == pytest.approx(a, abs=1e-6)
        assert co.b_coef == pytest.approx(b, abs=1e-6)
        assert co.c_coef == pytest.approx(c, abs=1e-6)
        assert hata_path_loss(1000.0, 1500.0, 30.0, 2.0) == pytest.approx(total, abs=1e-6)
        # headline values
        assert round(co.a_coef, 2) == 132.39
        assert round(co.b_coef, 2) == 35.22
        assert round(co.c_coef, 2) == -11.38
        assert round(total, 1) == 121.0

    def test_doubling_distance_adds_b_log2(self):
        co = hata_coefficients(1500.0, 30.0, 2.0)
        l1 = hata_path_loss(700.0, 1500.0, 30.0, 2.0)
        l2 = hata_path_loss(1400.0, 1500.0, 30.0, 2.0)
        assert l2 - l1 == pytest.approx(co.b_coef * math.log10(2.0), abs=1e-9)

    def test_uav_height_gives_smaller_loss(self):
        low = hata_path_loss(1000.0, 1500.0, 30.0, 2.0)
        high = hata_path_loss(1000.0, 1500.0, 120.0, 2.0)
        assert high < low
        assert high == pytest.approx(hand_hata(1500.0, 120.0, 2.0, 1000.0)[0], abs=1e-6)

    def test_monotone_in_distance(self):
        d = np.linspace(50.0, 1500.0, 200)
        losses = hata_path_loss(d, 1500.0, 30.0, 2.0)
        assert np.all(np.diff(losses) > 0)

    def test_rejects_zero_distance(self):
        with pytest.raises(ValueError):
            hata_path_loss(0.0, 1500.0, 30.0, 2.0)


class TestLosProbability:
    def test_overhead_is_certain(self):
        assert los_probability(0.0, 120.0, 2.0) == 1.0
        # any z below the first building row keeps the empty product
        assert los_probability(300.0, 120.0, 2.0) == 1.0

    def test_row_count_floor(self):
        # a_hat=0.1, b_hat=100 -> m = floor(z*sqrt(10)/1000 - 1); z=1000 -> 2
        bm = BuildingModel(0.1, 100.0, 10.0)
        m = math.floor(1000.0 * math.sqrt(0.1 * 100.0) / 1000.0 - 1.0)
        assert m == 2
        # independent product over rows n=0..2
        expected = 1.0
        for n in range(m + 1):
            h_ray = 120.0 - (n + 0.5) * (120.0 - 2.0) / (m + 1)
            expected *= 1.0 - math.exp(-h_ray ** 2 / (2.0 * 10.0 ** 2))
        assert los_probability(1000.0, 120.0, 2.0, bm) == pytest.approx(expected, rel=1e-12)

    def test_non_increasing_sweep(self):
        z = np.linspace(0.0, 1500.0, 301)
        for variant in ("corrected", "as_written"):
            tau = los_probability(z, 120.0, 2.0, variant=variant)
            assert np.all(np.diff(tau) <= 1e-12)
            assert np.all((tau >= 0.0) & (tau <= 1.0))

    def test_bounds_for_extreme_buildings(self):
        z = np.linspace(0.0, 3000.0, 100)
        for bm in (BuildingModel(0.9, 900.0, 50.0), BuildingModel(0.01, 1.0, 0.1)):
            for variant in ("corrected", "as_written"):
                tau = los_probability(z, 120.0, 2.0, bm, variant)
                assert np.all((tau >= 0.0) & (tau <= 1.0))

    def test_as_written_overflow_stays_silent(self):
        # rays below the rooftops overflow exp; the clip already maps them to 0
        bm = BuildingModel(0.5, 500.0, 0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tau = los_probability(np.linspace(0.0, 1500.0, 7), 120.0, 2.0, bm, "as_written")
        assert tau.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]

    def test_rejects_bad_variant(self):
        with pytest.raises(ValueError):
            los_probability(10.0, 120.0, 2.0, variant="other")


def los_probability_by_rows(z, h_uav, h_ue, bm, variant):
    """The per-building-row loop over the whole z array that the m table replaced."""
    z = np.asarray(z, dtype=float)
    m = np.floor(z * math.sqrt(bm.a_hat * bm.b_hat) / 1000.0 - 1.0).astype(int)
    rows = np.maximum(m, 0) + 1
    tau = np.ones_like(z, dtype=float)
    dh = h_uav - h_ue
    two_c2 = 2.0 * bm.c_hat ** 2
    for n in range(0, int(m.max()) + 1 if m.size else 0):
        if variant == "corrected":
            h_ray = h_uav - (n + 0.5) * dh / rows
            factor = 1.0 - np.exp(-(h_ray ** 2) / two_c2)
        else:
            h_ray = h_uav - (n + 0.5) * dh
            factor = 1.0 - np.exp(-h_ray / two_c2)
        tau = np.where(m >= n, tau * np.clip(factor, 0.0, 1.0), tau)
    return tau


@settings(max_examples=200, deadline=None, database=None)
@given(a_hat=st.floats(0.01, 0.9), b_hat=st.floats(1.0, 900.0), c_hat=st.floats(0.5, 50.0),
       h_ue=st.floats(0.5, 10.0), h_gap=st.floats(1.0, 300.0),
       variant=st.sampled_from(["corrected", "as_written"]),
       z_max=st.floats(0.0, 3000.0), shape=st.sampled_from([(0,), (1,), (37,), (13, 29)]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_los_table_equals_the_row_loop(a_hat, b_hat, c_hat, h_ue, h_gap, variant, z_max,
                                       shape, seed):
    bm = BuildingModel(a_hat, b_hat, c_hat)
    z = np.random.default_rng(seed).uniform(0.0, z_max, shape)
    with np.errstate(over="ignore"):  # as_written overflows exp; the clip handles it
        got = los_probability(z, h_ue + h_gap, h_ue, bm, variant)
        want = los_probability_by_rows(z, h_ue + h_gap, h_ue, bm, variant)
        assert np.array_equal(got, want)
        if z.size:
            assert los_probability(float(z.flat[0]), h_ue + h_gap, h_ue, bm,
                                   variant) == want.flat[0]


class TestMixture:
    def test_pure_los_reduces_to_exponent_law(self):
        # tau_L = 1 at z=0: loss = 10 * alpha_L * log10(d)
        d0 = 118.0
        loss = mixture_path_gain(d0, 0.0, 120.0, 2.0, 2.09, 3.75)
        assert loss == pytest.approx(10.0 * 2.09 * math.log10(d0), rel=1e-12)

    def test_bounded_by_pure_los_and_nlos(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            z = float(rng.uniform(0.0, 1500.0))
            d = math.hypot(z, 118.0)
            loss = mixture_path_gain(d, z, 120.0, 2.0, 2.09, 3.75)
            lo = 10.0 * 2.09 * math.log10(d)
            hi = 10.0 * 3.75 * math.log10(d)
            assert lo - 1e-9 <= loss <= hi + 1e-9

    def test_independent_evaluation_pin(self):
        # d=500, z=489 (h_uav=120, h_ue=2): spreadsheet-style re-derivation
        z, h_uav, h_ue, c_hat = 489.0, 120.0, 2.0, 10.0
        m = math.floor(z * math.sqrt(0.1 * 100.0) / 1000.0 - 1.0)
        tau = 1.0
        for n in range(m + 1):
            tau *= 1.0 - math.exp(-((h_uav - (n + 0.5) * (h_uav - h_ue) / (m + 1)) ** 2)
                                  / (2.0 * c_hat ** 2))
        mix = 500.0 ** -2.09 * tau + 500.0 ** -3.75 * (1.0 - tau)
        expected = -10.0 * math.log10(mix)
        got = mixture_path_gain(500.0, 489.0, 120.0, 2.0, 2.09, 3.75)
        assert got == pytest.approx(expected, abs=1e-9)

    def test_variants_agree_under_certain_los(self):
        d, z = 250.0, 200.0  # below the first row threshold, tau_L = 1
        a = mixture_path_gain(d, z, 120.0, 2.0, 2.09, 3.75, variant="corrected")
        b = mixture_path_gain(d, z, 120.0, 2.0, 2.09, 3.75, variant="as_written")
        assert a == b

    def test_reference_offset_shifts_uniformly(self):
        d, z = 700.0, 650.0
        base = mixture_path_gain(d, z, 120.0, 2.0, 2.09, 3.75)
        shifted = mixture_path_gain(d, z, 120.0, 2.0, 2.09, 3.75, ref_db=35.97)
        assert shifted - base == pytest.approx(35.97, rel=1e-12)

    def test_strictly_increasing_in_distance(self):
        z = 400.0
        d = np.sqrt(np.linspace(450.0, 1500.0, 64) ** 2)
        loss = mixture_path_gain(d, z, 120.0, 2.0, 2.09, 3.75)
        assert np.all(np.diff(loss) > 0)

    def test_rejects_zero_distance(self):
        with pytest.raises(ValueError):
            mixture_path_gain(0.0, 0.0, 120.0, 2.0, 2.09, 3.75)


class TestFspl:
    def test_pinned_value(self):
        expected = 20.0 * math.log10(1000.0) + 20.0 * math.log10(1500.0) - 27.55
        assert fspl(1000.0, 1500.0) == pytest.approx(expected, abs=1e-9)
        assert round(float(fspl(1000.0, 1500.0)), 2) == 95.97

    def test_unit_arguments(self):
        assert fspl(1.0, 1.0) == pytest.approx(-27.55, abs=1e-12)

    def test_doubling_distance(self):
        assert fspl(800.0, 1500.0) - fspl(400.0, 1500.0) == pytest.approx(
            20.0 * math.log10(2.0), abs=1e-9)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            fspl(0.0, 1500.0)


class TestBackhaul:
    def test_pinned_value(self):
        # 28 + 22*log10(1000) + 20*log10(1.5) = 97.52
        assert backhaul_path_loss(1000.0, 1500.0, 120.0) == pytest.approx(
            28.0 + 66.0 + 20.0 * math.log10(1.5), abs=1e-9)
        assert round(float(backhaul_path_loss(1000.0, 1500.0, 120.0)), 2) == 97.52

    def test_doubling_distance(self):
        d1 = backhaul_path_loss(400.0, 1500.0, 120.0)
        d2 = backhaul_path_loss(800.0, 1500.0, 120.0)
        assert d2 - d1 == pytest.approx(22.0 * math.log10(2.0), abs=1e-9)

    def test_monotone(self):
        d = np.linspace(95.0, 1500.0, 100)
        loss = backhaul_path_loss(d, 1500.0, 120.0)
        assert np.all(np.diff(loss) > 0)

    def test_altitude_validity(self):
        with pytest.raises(ValueError, match="altitude"):
            backhaul_path_loss(500.0, 1500.0, 15.0)
        with pytest.raises(ValueError, match="altitude"):
            backhaul_path_loss(500.0, 1500.0, 400.0)
