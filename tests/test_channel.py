import math

import numpy as np
import pytest

from cellray.channel import (
    DegenerateFocus,
    EmptyChannel,
    ImpulseResponse,
    PathOutsideDetector,
    build_cir,
    contributions,
    coordinate_clusters,
    cumulative_gamma,
    detector_map,
    focusing_gain,
    path_contribution,
    power_delay_profile,
    rebin,
)
from cellray.geometry import (
    ArrayLayout,
    CellFocus,
    FocusReport,
    RayPath,
    RayState,
    Spherical,
    collimated_bundle,
    trace_array,
)
from cellray.optics import SPEED_OF_LIGHT_M_PER_S, Media
from conftest import CELL, TISSUE

MEDIA = Media(cell=CELL, tissue=TISSUE)


def synthetic_path(segments, exit_h=0.0, status="arrived", index=0):
    total_x = sum(length for _, length in segments)
    return RayPath(ray_index=index, segments=list(segments), status=status,
                   loss_cell=None if status == "arrived" else 0,
                   exit=RayState(total_x, exit_h, 0.0))


def gain_oracle(d_a_um, d_e_um):
    def leg(mu_a, mu_s, d_mm):
        x = d_mm * math.sqrt(3.0 * mu_a * mu_s)
        return math.exp(-mu_a * d_mm * 0.5 * math.sqrt(3.0 * mu_s / mu_a)
                        * x / (1.0 + x))

    return leg(0.9, 3.43, d_a_um / 1000.0) * leg(1.34, 3.43, d_e_um / 1000.0)


class TestPathContribution:
    def test_single_tissue_segment_delay(self):
        path = synthetic_path([("tissue", 450.0)])
        c = path_contribution(path, MEDIA)
        expected = 450e-6 * 1.35 / SPEED_OF_LIGHT_M_PER_S
        assert c.delay_s == pytest.approx(expected, rel=1e-15)
        assert c.delay_s == pytest.approx(2.026e-12, rel=1e-3)

    def test_short_path_limit(self):
        path = synthetic_path([("tissue", 1e-6)])
        c = path_contribution(path, MEDIA)
        assert c.gain == pytest.approx(1.0, abs=1e-12)
        assert 0.0 < c.delay_s < 1e-20

    def test_termwise_gain_oracle(self):
        d_a = 18 * 23.561944901923447
        d_e = 450.0 - d_a
        path = synthetic_path([("cell", d_a), ("tissue", d_e)])
        c = path_contribution(path, MEDIA)
        assert c.gain == pytest.approx(gain_oracle(d_a, d_e), rel=1e-13)

    def test_rejects_leaked(self):
        path = synthetic_path([("tissue", 10.0)], status="leaked")
        with pytest.raises(ValueError):
            path_contribution(path, MEDIA)

    def test_detector_extent(self):
        path = synthetic_path([("tissue", 450.0)], exit_h=25.0)
        with pytest.raises(PathOutsideDetector):
            path_contribution(path, MEDIA, detector_extent_um=40.0)
        kept, outside = contributions([path], MEDIA, None, 40.0)
        assert kept == [] and len(outside) == 1


class TestBuildCir:
    def test_single_path_single_bin(self):
        path = synthetic_path([("tissue", 450.0)])
        cir = build_cir([path], MEDIA, dt_s=10e-15)
        c = path_contribution(path, MEDIA)
        idx = int(round(c.delay_s / 10e-15))
        assert np.count_nonzero(cir.bins) == 1
        assert cir.bins[idx] == pytest.approx(c.gain)
        assert cir.dominant_bin()[0] == pytest.approx(idx * 10e-15)

    def test_gain_split_over_bundle(self):
        paths = [synthetic_path([("tissue", 450.0)], index=i) for i in range(4)]
        cir = build_cir(paths, MEDIA, dt_s=10e-15)
        single = path_contribution(paths[0], MEDIA).gain
        assert cir.total_gain() == pytest.approx(single, rel=1e-12)

    def test_empty_channel(self):
        path = synthetic_path([("tissue", 10.0)], status="leaked")
        with pytest.raises(EmptyChannel):
            build_cir([path], MEDIA, dt_s=10e-15)

    def test_aggregate_mode_scales(self):
        path = synthetic_path([("tissue", 450.0)])
        base = build_cir([path], MEDIA, dt_s=10e-15)
        scaled = build_cir([path], MEDIA, dt_s=10e-15, gamma_mode="aggregate",
                           aggregate_gamma=2.25)
        assert scaled.total_gain() == pytest.approx(2.25 * base.total_gain())
        with pytest.raises(ValueError):
            build_cir([path], MEDIA, dt_s=10e-15, gamma_mode="aggregate")

    def test_merge_order_invariance(self):
        layout = ArrayLayout(Spherical(10.0), 18, 5.0, 5.0, 0.0)
        paths, _ = trace_array(layout, MEDIA, collimated_bundle(layout.shape, 201))
        forward = build_cir(paths, MEDIA, dt_s=10e-15)
        backward = build_cir(list(reversed(paths)), MEDIA, dt_s=10e-15)
        np.testing.assert_allclose(forward.bins, backward.bins, rtol=1e-12)

    def test_rebin_conserves_gain(self):
        layout = ArrayLayout(Spherical(10.0), 18, 5.0, 5.0, 0.0)
        paths, _ = trace_array(layout, MEDIA, collimated_bundle(layout.shape, 201))
        cir = build_cir(paths, MEDIA, dt_s=10e-15)
        halved = rebin(cir, 5e-15)
        assert halved.total_gain() == pytest.approx(cir.total_gain(), rel=1e-12)
        assert halved.dt == 5e-15

    def test_delay_ordering_and_gain_bounds(self):
        layout = ArrayLayout(Spherical(10.0), 18, 5.0, 5.0, 0.0)
        paths, report = trace_array(layout, MEDIA,
                                    collimated_bundle(layout.shape, 201))
        floor = layout.total_length * 1e-6 * 1.35 / SPEED_OF_LIGHT_M_PER_S
        detected, _ = contributions(paths, MEDIA)
        assert detected
        for c in detected:
            assert c.delay_s >= floor * (1.0 - 1e-12)
            assert 0.0 < c.gain < 1.0
        cir = build_cir(paths, MEDIA, dt_s=10e-15)
        assert cir.total_gain() <= 1.0
        assert cir.total_gain() <= cumulative_gamma(report)

    def test_more_cells_arrive_later(self):
        delays = []
        for n in (0, 6, 12, 18):
            span = n * 20.0 + max(n - 1, 0) * 5.0
            layout = ArrayLayout(Spherical(10.0), n, 5.0, 5.0, 450.0 - 5.0 - span)
            paths, _ = trace_array(layout, MEDIA,
                                   collimated_bundle(layout.shape, 201))
            cir = build_cir(paths, MEDIA, dt_s=10e-15)
            delays.append(cir.dominant_bin()[0])
        assert delays == sorted(delays)


class TestPowerDelayProfile:
    def test_zero_and_square(self):
        cir = ImpulseResponse(0.0, 1e-14, np.zeros(8))
        assert not power_delay_profile(cir).bins.any()
        cir.bins[3] = 0.5
        pdp = power_delay_profile(cir)
        assert pdp.bins[3] == pytest.approx(0.25)
        assert pdp.dt == cir.dt and pdp.t0 == cir.t0

    def test_energy_matches_per_path_sum(self):
        # Distinct delays, one atom per bin, so PDP energy is sum of g^2/K^2.
        paths = [synthetic_path([("tissue", 100.0 * (i + 1))], index=i)
                 for i in range(5)]
        cir = build_cir(paths, MEDIA, dt_s=10e-15)
        pdp = power_delay_profile(cir)
        k = len(paths)
        expected = sum((path_contribution(p, MEDIA).gain / k) ** 2 for p in paths)
        assert pdp.bins.sum() == pytest.approx(expected, rel=1e-12)


class TestFocusingGain:
    def report(self, radii, source=15.0, detector=10.0):
        cells = [CellFocus(i, 0.1, 50.0, r) for i, r in enumerate(radii)]
        return FocusReport(source_radius=source, cells=cells,
                           detector_radius=detector)

    def test_unit_ratio(self):
        gammas = focusing_gain(self.report([15.0], detector=15.0))
        assert gammas == [pytest.approx(1.0), pytest.approx(1.0)]

    def test_area_ratio(self):
        gammas = focusing_gain(self.report([10.0], source=15.0, detector=10.0))
        assert gammas[0] == pytest.approx(2.25)

    def test_cumulative_telescopes(self):
        report = self.report([12.0, 4.0, 9.0], source=15.0, detector=5.0)
        assert cumulative_gamma(report) == pytest.approx((15.0 / 5.0) ** 2, rel=1e-12)

    def test_degenerate_focus(self):
        with pytest.raises(DegenerateFocus):
            focusing_gain(self.report([1e-5]))

    def test_fusiform_run_alternates(self):
        from cellray.geometry import Fusiform

        layout = ArrayLayout(Fusiform(30.0, 20.0), 18, 5.0, 5.0, 0.0)
        _, report = trace_array(layout, MEDIA, collimated_bundle(layout.shape, 301))
        gammas = focusing_gain(report)
        assert any(g > 1.0 for g in gammas) and any(g < 1.0 for g in gammas)


class TestDetectorMap:
    def test_free_space_uniform(self):
        layout = ArrayLayout(Spherical(10.0), 0, 5.0, 5.0, 445.0)
        paths, _ = trace_array(layout, MEDIA, collimated_bundle(layout.shape, 51))
        dmap = detector_map(paths, MEDIA, detector_extent_um=40.0)
        powers = [p for _, p, _ in dmap.samples]
        assert len(dmap.samples) == 51
        assert all(p == pytest.approx(1.0) for p in powers)
        coords = [c for c, _, _ in dmap.samples]
        assert coords == sorted(coords)

    def test_extent_filters(self):
        layout = ArrayLayout(Spherical(10.0), 0, 5.0, 5.0, 445.0)
        paths, _ = trace_array(layout, MEDIA, collimated_bundle(layout.shape, 51))
        dmap = detector_map(paths, MEDIA, detector_extent_um=10.0)
        assert all(abs(c) <= 5.0 for c, _, _ in dmap.samples)
        assert 0 < len(dmap.samples) < 51

    def test_cluster_splitting(self):
        dmap_samples = [(-18.0, 0.4, 2e-12), (-17.9, 0.4, 2e-12),
                        (-3.0, 1.0, 2e-12), (-2.8, 0.9, 2e-12), (0.0, 1.0, 2e-12)]
        from cellray.channel import DetectorMap

        clusters = coordinate_clusters(DetectorMap(20.0, dmap_samples), gap_um=1.0)
        assert len(clusters) == 2
