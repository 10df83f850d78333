import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cellray.geometry import ArrayLayout, Fusiform, Spherical
from cellray.optics import (
    DB_PER_NEPER,
    Media,
    Medium,
    Wavelength,
    absorbance,
    elementwise,
    total_path_loss,
    transmittance,
)
from conftest import CELL, TISSUE
from measures import dpf, light_speed_m_per_s


def dpf_oracle(medium: Medium, d_mm: float) -> float:
    # Independent rearrangement: A * x / (1 + x) with x = d * sqrt(3 mu_a mu_s').
    x = d_mm * math.sqrt(3.0 * medium.mu_a * medium.mu_s_prime)
    return math.sqrt(3.0 * medium.mu_s_prime / medium.mu_a) / 2.0 * x / (1.0 + x)


def exact_transmittance(medium: Medium, d_mm: float) -> Decimal:
    """exp(-mu_a * d * DPF(d)) in 60-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 60
        mu_a, mu_s, d = Decimal(medium.mu_a), Decimal(medium.mu_s_prime), Decimal(d_mm)
        x = d * (3 * mu_a * mu_s).sqrt()
        return (-mu_a * d * (3 * mu_s / mu_a).sqrt() / 2 * x / (1 + x)).exp()


class TestMedium:
    def test_rejects_bad_constants(self):
        with pytest.raises(ValueError):
            Medium(n=0.9, mu_a=1.0, mu_s_prime=1.0)
        with pytest.raises(ValueError):
            Medium(n=1.35, mu_a=0.0, mu_s_prime=1.0)
        with pytest.raises(ValueError):
            Medium(n=1.35, mu_a=1.0, mu_s_prime=-1.0)

    def test_light_speed(self):
        assert light_speed_m_per_s(TISSUE) == pytest.approx(299792458.0 / 1.35)


class TestDpf:
    def test_zero_distance(self):
        assert dpf(CELL, 0.0) == 0.0

    def test_large_distance_limit(self):
        # Bound is 0.5*sqrt(3*3.43/0.9) ~ 1.690 for the cell constants.
        bound = 0.5 * math.sqrt(3.0 * 3.43 / 0.9)
        assert bound == pytest.approx(1.690, abs=1e-3)
        assert dpf(CELL, 1e6) == pytest.approx(bound, rel=1e-6)
        assert dpf(CELL, 1e6) < bound

    def test_matches_independent_form(self):
        val = dpf(TISSUE, 0.45)
        assert val == pytest.approx(dpf_oracle(TISSUE, 0.45), rel=1e-14)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            dpf(CELL, -0.1)

    @given(st.floats(min_value=1e-6, max_value=100.0),
           st.floats(min_value=1e-6, max_value=100.0))
    def test_monotone_and_bounded(self, d1, d2):
        lo, hi = sorted((d1, d2))
        bound = 0.5 * math.sqrt(3.0 * CELL.mu_s_prime / CELL.mu_a)
        assert dpf(CELL, lo) <= dpf(CELL, hi) < bound


class TestTransmittance:
    def test_identity_at_zero(self):
        assert transmittance(CELL, 0.0) == 1.0

    def test_total_distance_dpf(self):
        # Multiplicativity holds only with the DPF on the total distance.
        d1, d2 = 0.1, 0.35
        direct = transmittance(TISSUE, d1 + d2)
        assert direct == pytest.approx(
            math.exp(-TISSUE.mu_a * (d1 + d2) * dpf(TISSUE, d1 + d2)), rel=1e-14)
        assert direct != pytest.approx(
            transmittance(TISSUE, d1) * transmittance(TISSUE, d2), rel=1e-3)

    def test_cell_chord_value(self):
        d = 0.0235  # one spherical average chord, in mm
        oracle = math.exp(-CELL.mu_a * d * dpf_oracle(CELL, d))
        assert transmittance(CELL, d) == pytest.approx(oracle, rel=1e-13)

    @given(st.floats(min_value=0.0, max_value=50.0))
    def test_bounds(self, d):
        t = transmittance(TISSUE, d)
        assert 0.0 < t <= 1.0

    @given(st.floats(min_value=1e-6, max_value=10.0),
           st.floats(min_value=1e-6, max_value=10.0))
    def test_strictly_decreasing(self, d1, d2):
        # Non-increasing everywhere, strict wherever the step is resolvable:
        # where the exact transmittances differ by more than 2**-49.
        lo, hi = sorted((d1, d2))
        assert transmittance(CELL, hi) <= transmittance(CELL, lo)
        if exact_transmittance(CELL, lo) - exact_transmittance(CELL, hi) > Decimal(2) ** -49:
            assert transmittance(CELL, hi) < transmittance(CELL, lo)

    def test_neighbouring_distances_can_tie(self):
        d = 1e-6
        assert transmittance(CELL, math.nextafter(d, 1.0)) == transmittance(CELL, d)

    def test_array_matches_scalar(self):
        d = np.concatenate([[0.0, 1e-6], np.geomspace(1e-7, 20.0, 5001)])
        got = transmittance(TISSUE, d)
        assert got.tolist() == [transmittance(TISSUE, x) for x in d.tolist()]
        assert transmittance(TISSUE, d[:0]).shape == (0,)
        with pytest.raises(ValueError):
            transmittance(TISSUE, np.array([0.1, -0.1]))

    def test_decreasing_in_coefficients(self):
        base = transmittance(CELL, 1.0)
        more_absorbing = Medium(CELL.n, CELL.mu_a * 2, CELL.mu_s_prime)
        more_scattering = Medium(CELL.n, CELL.mu_a, CELL.mu_s_prime * 2)
        assert transmittance(more_absorbing, 1.0) < base
        assert transmittance(more_scattering, 1.0) < base


class TestTotalPathLoss:
    def layout(self, n, media=None):
        return ArrayLayout(shape=Fusiform(30.0, 20.0), n_cells=n, gap=5.0,
                           source_gap=5.0, detector_gap=5.0)

    def test_empty_array_closed_form(self, media):
        layout = ArrayLayout(shape=Spherical(10.0), n_cells=0, gap=5.0,
                             source_gap=5.0, detector_gap=445.0)
        expected = DB_PER_NEPER * TISSUE.mu_a * 0.45 * dpf(TISSUE, 0.45)
        assert total_path_loss(layout, media) == pytest.approx(expected, rel=1e-12)
        # Loss in dB is -10 log10 of the matching transmittance.
        assert total_path_loss(layout, media) == pytest.approx(
            -10.0 * math.log10(transmittance(TISSUE, 0.45)), rel=1e-12)

    def test_monotone_in_cell_count(self, media):
        losses = [total_path_loss(self.layout(n), media) for n in range(7)]
        assert all(b > a for a, b in zip(losses, losses[1:]))

    def test_termwise_oracle_18_cells(self, media):
        shape = Fusiform(30.0, 20.0)
        layout = ArrayLayout(shape=shape, n_cells=18, gap=5.0,
                             source_gap=5.0, detector_gap=0.0)
        d_a, d_e = shape.avg_distances(5.0)
        d_a, d_e = d_a / 1000.0, d_e / 1000.0

        def term(mu_a, mu_s, d):
            x = d * math.sqrt(3.0 * mu_a * mu_s)
            pathlen_factor = 0.5 * math.sqrt(3.0 * mu_s / mu_a) * x / (1.0 + x)
            return mu_a * d * pathlen_factor

        expected = 4.342944819032518 * (
            18 * term(0.9, 3.43, d_a)
            + 17 * term(1.34, 3.43, d_e)
            + term(1.34, 3.43, 0.005)
        )
        assert total_path_loss(layout, media) == pytest.approx(expected, rel=1e-12)


def test_absorbance_accepts_small_negative_average():
    # The analytic fusiform gap average can be slightly negative; the
    # attenuation product d * DPF(d) stays non-negative there.
    val = absorbance(TISSUE, -6.4e-4)
    assert val >= 0.0
    with pytest.raises(ValueError):
        absorbance(TISSUE, -1.0)


def test_wavelength_carrier():
    lam = Wavelength(456.0)
    assert lam.frequency_hz == pytest.approx(6.574e14, rel=1e-3)
    with pytest.raises(ValueError):
        Wavelength(0.0)


def test_elementwise_is_a_math_loop_bit_for_bit():
    rng = np.random.default_rng(7)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310]
    x = np.concatenate([special, rng.normal(0.0, 10.0, 2000),
                        rng.uniform(-1e3, 1e3, 2000), 10.0 ** rng.uniform(-300, 300, 500)])
    y = rng.permutation(x)
    for f, args in ((math.exp, (-np.abs(x),)), (math.tan, (x,)), (math.atan2, (y, x))):
        got = elementwise(f, *args)
        want = [f(*values) for values in zip(*(a.tolist() for a in args))]
        assert got.dtype == float and got.shape == args[0].shape
        assert got.tobytes() == np.array(want).tobytes()
    assert elementwise(math.atan2, np.empty(0), np.empty(0)).shape == (0,)
