import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad

from cell_step import trace_cell, walked_cells
from cellray.geometry import (
    CROSSED,
    DEVIATED,
    STATUS,
    ArrayLayout,
    Fusiform,
    Pyramidal,
    Spherical,
    TOL,
    collimated_bundle,
    trace_array,
    trace_arrays,
)
from cellray.optics import Media, Medium
from conftest import CELL, TISSUE
from scalar_tracer import NoIntersection, RayState, TotalInternalReflection

MEDIA = Media(cell=CELL, tissue=TISSUE)


# ---------------------------------------------------------------------------
# Shape construction
# ---------------------------------------------------------------------------

class TestShapes:
    def test_fusiform_curvature_is_derived(self):
        f = Fusiform(h_c=30.0, w_c=20.0)
        assert f.curvature_radius == pytest.approx((30**2 + 20**2) / (4 * 20))

    def test_fusiform_rejects_wide_lens(self):
        with pytest.raises(ValueError):
            Fusiform(h_c=20.0, w_c=30.0)

    def test_positive_dimensions(self):
        for bad in (Fusiform, Pyramidal):
            with pytest.raises(ValueError):
                bad(h_c=-1.0, w_c=1.0)
        with pytest.raises(ValueError):
            Spherical(r_c=0.0)

    def test_chords(self):
        f = Fusiform(30.0, 20.0)
        assert f.chord_at(0.0) == pytest.approx(20.0)
        assert f.chord_at(15.0) == 0.0
        s = Spherical(10.0)
        assert s.chord_at(0.0) == pytest.approx(20.0)
        assert s.chord_at(10.0) == 0.0
        p = Pyramidal(30.0, 20.0)
        assert p.chord_at(-15.0) == 0.0  # open interval at the base corners
        assert p.chord_at(0.0) == pytest.approx(10.0)
        assert p.chord_at(15.0) == 0.0

    def test_layout_total_length(self):
        layout = ArrayLayout(Fusiform(30.0, 20.0), 18, 5.0, 5.0, 0.0)
        assert layout.total_length == pytest.approx(5 + 18 * 20 + 17 * 5)
        assert layout.cell_entry_x(1) == pytest.approx(30.0)


@pytest.mark.parametrize("call, message", [
    (lambda: ArrayLayout(Spherical(10.0), -1, 5.0, 5.0, 0.0), "n_cells must be >= 0"),
    (lambda: ArrayLayout(Spherical(10.0), 18, -1.0, 5.0, 0.0), "gaps must be non-negative"),
    (lambda: ArrayLayout(Spherical(10.0), 18, 5.0, -1.0, 0.0), "gaps must be non-negative"),
    (lambda: ArrayLayout(Spherical(10.0), 18, 5.0, 5.0, -1.0), "gaps must be non-negative"),
    (lambda: collimated_bundle(Spherical(10.0), 0), "bundle needs at least one ray"),
    (lambda: trace_arrays([ArrayLayout(Spherical(10.0), 18, 5.0, 5.0, 0.0)], MEDIA,
                          np.zeros(0)), "empty ray bundle"),
], ids=["n-cells-negative", "gap-negative", "source-gap-negative", "detector-gap-negative",
        "bundle-of-no-ray", "trace-of-no-ray"])
def test_geometry_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# ---------------------------------------------------------------------------
# Average distances against quadrature oracles
# ---------------------------------------------------------------------------

def fusiform_quadrature(h_c, w_c, gap):
    r = (h_c**2 + w_c**2) / (4 * w_c)
    lo, hi = (r - h_c) / 2.0, r / 2.0
    d_a = 4.0 / h_c * quad(lambda x: math.sqrt(r * r - x * x) - (r - w_c / 2.0),
                           lo, hi, epsabs=1e-13, epsrel=1e-13)[0]
    d_e = gap + 2.0 / h_c * quad(lambda x: w_c / 2.0 - math.sqrt(r * r - x * x),
                                 lo, hi, epsabs=1e-13, epsrel=1e-13)[0]
    return d_a, d_e


def spherical_quadrature(r_c, gap):
    d_a = 2.0 / r_c * quad(lambda x: math.sqrt(r_c * r_c - x * x),
                           0.0, r_c, epsabs=1e-13, epsrel=1e-13)[0]
    # Dimensionally consistent integrand, linear in r.
    d_e = gap + 1.0 / r_c * quad(lambda x: r_c - math.sqrt(r_c * r_c - x * x),
                                 0.0, r_c, epsabs=1e-13, epsrel=1e-13)[0]
    return d_a, d_e


def pyramidal_chord_average(h_c, w_c, gap):
    # Chord of a triangle of base w_c at height y above the base, and the
    # half-chord average for the inter-cell path.
    chord = lambda y: w_c * (1.0 - y / h_c)
    d_a = quad(chord, 0.0, h_c, epsabs=1e-13, epsrel=1e-13)[0] / h_c
    d_e = gap + quad(lambda y: chord(y) / 2.0, 0.0, h_c,
                     epsabs=1e-13, epsrel=1e-13)[0] / h_c
    return d_a, d_e


class TestAvgDistances:
    @pytest.mark.parametrize("h,w", [(30.0, 20.0), (25.0, 10.0), (40.0, 12.0)])
    def test_fusiform_matches_quadrature(self, h, w):
        d_a, d_e = Fusiform(h, w).avg_distances(5.0)
        qa, qe = fusiform_quadrature(h, w, 5.0)
        assert d_a == pytest.approx(qa, rel=1e-9)
        assert d_e == pytest.approx(qe, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("r", [7.5, 10.0, 15.0])
    def test_spherical_matches_quadrature(self, r):
        d_a, d_e = Spherical(r).avg_distances(5.0)
        qa, qe = spherical_quadrature(r, 5.0)
        assert d_a == pytest.approx(qa, rel=1e-9)
        assert d_e == pytest.approx(qe, rel=1e-9)

    def test_spherical_closed_forms(self):
        d_a, d_e = Spherical(15.0).avg_distances(5.0)
        assert d_a == pytest.approx(math.pi * 15.0 / 2.0, rel=1e-12)  # ~23.562
        assert d_e == pytest.approx(5.0 + (1.0 - math.pi / 4.0) * 15.0, rel=1e-12)

    @pytest.mark.parametrize("h,w", [(30.0, 20.0), (30.0, 30.0), (50.0, 14.0)])
    def test_pyramidal_matches_chord_average(self, h, w):
        d_a, d_e = Pyramidal(h, w).avg_distances(5.0)
        qa, qe = pyramidal_chord_average(h, w, 5.0)
        assert d_a == pytest.approx(qa, rel=1e-9)
        assert d_e == pytest.approx(qe, rel=1e-9)
        assert d_a == pytest.approx(w / 2.0, rel=1e-12)
        assert d_e == pytest.approx(5.0 + w / 4.0, rel=1e-12)


# ---------------------------------------------------------------------------
# Single-cell tracing
# ---------------------------------------------------------------------------

class TestTraceCell:
    def test_axial_ray_through_sphere(self):
        shape = Spherical(15.0)
        ct = trace_cell(shape, MEDIA, RayState(0.0, 0.0, 0.0), entry_x=5.0)
        assert ct.outgoing.theta == pytest.approx(0.0, abs=1e-15)
        assert ct.chord == pytest.approx(2 * 15.0, abs=1e-9)
        assert ct.outgoing.x == pytest.approx(35.0, abs=1e-9)

    def test_paraxial_sphere_matches_lensmaker(self):
        # Thick-lens oracle for a ball lens: f = r * n_c / (2 (n_c - n_t)),
        # measured from the sphere centre; exit slope of a parallel ray at
        # height h is then -h/f.
        shape = Spherical(15.0)
        ct = trace_cell(shape, MEDIA, RayState(0.0, 1.0, 0.0), entry_x=5.0)
        f = 15.0 * 1.36 / (2.0 * (1.36 - 1.35))
        assert ct.outgoing.theta == pytest.approx(-1.0 / f, rel=0.05)

    def test_pyramid_matches_two_snell_prism(self):
        # Independent oracle: two sequential flat-surface refractions.
        shape = Pyramidal(h_c=30.0, w_c=30.0)
        apex = 2.0 * math.atan(30.0 / 60.0)
        i1 = apex / 2.0  # axis-parallel incidence on the tilted face
        r1 = math.asin(math.sin(i1) * 1.35 / 1.36)
        r2 = apex - r1
        e = math.asin(math.sin(r2) * 1.36 / 1.35)
        deviation = i1 + e - apex
        ct = trace_cell(shape, MEDIA, RayState(0.0, 0.0, 0.0), entry_x=5.0)
        assert -ct.outgoing.theta == pytest.approx(deviation, abs=1e-12)

    def test_miss_raises(self):
        shape = Spherical(10.0)
        with pytest.raises(NoIntersection):
            trace_cell(shape, MEDIA, RayState(0.0, 12.0, 0.0), entry_x=5.0)

    def test_equal_indices_pass_straight(self):
        flat = Media(cell=Medium(1.35, 0.9, 3.43), tissue=Medium(1.35, 1.34, 3.43))
        for shape, h in ((Spherical(10.0), 4.0), (Fusiform(30.0, 20.0), 7.0),
                         (Pyramidal(30.0, 20.0), -3.0)):
            ct = trace_cell(shape, flat, RayState(0.0, h, 0.0), entry_x=5.0)
            assert ct.outgoing.theta == pytest.approx(0.0, abs=1e-12)
            assert ct.outgoing.h == pytest.approx(h, abs=1e-9)
            assert ct.chord == pytest.approx(shape.chord_at(h), abs=1e-9)

    def test_focus_reported_for_radial_only(self):
        sph = trace_cell(Spherical(10.0), MEDIA, RayState(0.0, 3.0, 0.0), 5.0)
        assert sph.focus is not None and sph.focus.theta_f > 0.0
        pyr = trace_cell(Pyramidal(30.0, 20.0), MEDIA, RayState(0.0, 3.0, 0.0), 5.0)
        assert pyr.focus is None


radial_shape = st.one_of(
    st.builds(Spherical, r_c=st.floats(4.0, 25.0)),
    st.tuples(st.floats(10.0, 50.0), st.floats(0.2, 1.0)).map(
        lambda t: Fusiform(h_c=t[0], w_c=t[0] * t[1])),
)
shape_strategy = st.one_of(
    radial_shape,
    st.builds(Pyramidal, h_c=st.floats(10.0, 50.0), w_c=st.floats(5.0, 40.0)),
)


@st.composite
def shape_and_ray(draw):
    shape = draw(shape_strategy)
    h = draw(st.floats(-0.9, 0.9)) * shape.half_aperture
    theta = draw(st.floats(-0.15, 0.15))
    return shape, RayState(x=0.0, h=h, theta=theta)


class TestTraceProperties:
    @given(shape_and_ray())
    @settings(max_examples=150, deadline=None)
    def test_snell_consistency(self, shape_ray):
        shape, ray = shape_ray
        try:
            ct = trace_cell(shape, MEDIA, ray, entry_x=4.0)
        except (NoIntersection, TotalInternalReflection):
            assume(False)
        for ev in ct.events:
            lhs = ev.n_in * math.sin(ev.theta_in - ev.normal_angle)
            rhs = ev.n_out * math.sin(ev.theta_out - ev.normal_angle)
            assert abs(lhs - rhs) < 1e-12

    @given(shape_and_ray())
    @settings(max_examples=150, deadline=None)
    def test_reversibility(self, shape_ray):
        shape, ray = shape_ray
        try:
            ct = trace_cell(shape, MEDIA, ray, entry_x=4.0)
        except (NoIntersection, TotalInternalReflection):
            assume(False)
        # Base exits cannot be re-entered through the entry face; skip them.
        assume(ct.outgoing.h > -shape.half_aperture + 1e-6)
        centre = 4.0 + shape.axial_extent / 2.0
        reverse = RayState(x=2.0 * centre - ct.outgoing.x, h=ct.outgoing.h,
                           theta=-ct.outgoing.theta)
        back = trace_cell(shape, MEDIA, reverse, entry_x=4.0)
        assert 2.0 * centre - back.outgoing.x == pytest.approx(ct.entry.x, abs=1e-9)
        assert back.outgoing.h == pytest.approx(ct.entry.h, abs=1e-9)
        assert -back.outgoing.theta == pytest.approx(ray.theta, abs=1e-9)

    @given(shape_and_ray())
    @settings(max_examples=100, deadline=None)
    def test_chord_within_shape_bound(self, shape_ray):
        shape, ray = shape_ray
        try:
            ct = trace_cell(shape, MEDIA, ray, entry_x=4.0)
        except (NoIntersection, TotalInternalReflection):
            assume(False)
        assert 0.0 < ct.chord <= shape.axial_extent * (1.0 + 1e-9) / math.cos(0.25)


# ---------------------------------------------------------------------------
# Array tracing
# ---------------------------------------------------------------------------

def default_layout(shape, n=18, gap=5.0, d_src=5.0, d_det=0.0):
    return ArrayLayout(shape=shape, n_cells=n, gap=gap,
                       source_gap=d_src, detector_gap=d_det)


class TestTraceArray:
    def test_empty_array_single_tissue_segment(self):
        layout = ArrayLayout(Fusiform(30.0, 20.0), 0, 5.0, 5.0, 445.0)
        batch, report = trace_array(layout, MEDIA, collimated_bundle(layout.shape, 11))
        assert (batch.fate == CROSSED).all()
        assert batch.cell_length.tolist() == [0.0] * 11
        assert batch.tissue_length.tolist() == pytest.approx([450.0] * 11)
        assert report.radius.size == report.theta_f.size == report.x_f.size == 0

    def test_fusiform_survivors_traverse_all_cells(self):
        layout = default_layout(Fusiform(30.0, 20.0))
        bundle = collimated_bundle(layout.shape, 301)
        batch, _ = trace_array(layout, MEDIA, bundle)
        arrived = batch.fate == CROSSED
        assert arrived.any()
        assert (batch.loss_cell[arrived] == -1).all()
        for h in bundle[arrived].tolist():
            chords = [ct.chord for ct in walked_cells(layout, MEDIA, h)]
            assert len(chords) == 18 and all(chord > TOL for chord in chords)

    def test_segment_ledger_structure(self):
        layout = default_layout(Spherical(10.0), d_det=5.0)
        bundle = collimated_bundle(layout.shape, 101)
        batch, _ = trace_array(layout, MEDIA, bundle)
        arrived = np.flatnonzero(batch.fate == CROSSED)
        assert arrived.size
        for i in arrived.tolist():
            # Tissue leg and chord alternate, each positive, and end in a
            # tissue leg to the detector; their sums are the batch's lengths.
            cells = walked_cells(layout, MEDIA, bundle[i])
            assert len(cells) == layout.n_cells
            assert all(ct.tissue_leg > TOL and ct.chord > TOL for ct in cells)
            assert batch.cell_length[i] == sum(ct.chord for ct in cells)
            last = cells[-1].outgoing
            final = (layout.total_length - last.x) / math.cos(last.theta)
            assert final > TOL
            assert batch.tissue_length[i] == \
                pytest.approx(sum(ct.tissue_leg for ct in cells) + final, rel=1e-12)
            assert batch.cell_length[i] <= layout.n_cells * layout.shape.axial_extent
            assert batch.exit_x[i] == pytest.approx(layout.total_length)

    def test_monotone_leakage_with_gap(self):
        counts = []
        for gap in (2.0, 5.0, 10.0, 20.0, 40.0):
            layout = ArrayLayout(Spherical(10.0), 18, gap, 5.0, 5.0)
            batch, _ = trace_array(layout, MEDIA, collimated_bundle(layout.shape, 301))
            counts.append(int(np.count_nonzero(~batch.delivered)))
        assert counts == sorted(counts)

    def test_pyramidal_deviation_walks_downward(self):
        layout = default_layout(Pyramidal(30.0, 20.0))
        batch, _ = trace_array(layout, MEDIA, collimated_bundle(layout.shape, 301))
        assert {"deviated", "leaked"} <= set(STATUS[batch.fate].tolist())
        deviated = batch.fate == DEVIATED
        assert (batch.loss_cell[deviated] >= 0).all()
        assert (batch.exit_theta[deviated] < 0.0).all()  # prism pushes rays toward the base
        assert batch.exit_x[deviated].tolist() == \
            pytest.approx([layout.total_length] * int(deviated.sum()))

    def test_radial_alternation_visible_in_radii(self):
        layout = default_layout(Fusiform(30.0, 20.0))
        _, report = trace_array(layout, MEDIA, collimated_bundle(layout.shape, 301))
        radii = report.radius.tolist()
        # Converging then diverging: the radius dips well below the source
        # radius and recovers afterwards.
        assert min(radii) < 0.5 * report.source_radius
        assert radii.index(min(radii)) < len(radii) - 1
        assert radii[-1] > 2.0 * min(radii)

    def test_equal_indices_straight_lines(self):
        flat = Media(cell=Medium(1.35, 0.9, 3.43), tissue=Medium(1.35, 1.34, 3.43))
        layout = default_layout(Spherical(10.0), d_det=5.0)
        bundle = collimated_bundle(layout.shape, 51)
        batch, _ = trace_array(layout, flat, bundle)
        assert (batch.fate == CROSSED).all()
        np.testing.assert_allclose(batch.exit_h, bundle, rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(batch.exit_theta, 0.0, rtol=0.0, atol=1e-12)
        expected_cell = [18 * layout.shape.chord_at(h) for h in bundle.tolist()]
        np.testing.assert_allclose(batch.cell_length, expected_cell, rtol=0.0, atol=1e-6)

    def test_bundle_is_deterministic_and_uniform(self):
        bundle = collimated_bundle(Fusiform(30.0, 20.0), 5)
        assert isinstance(bundle, np.ndarray) and bundle.dtype == float
        hs = bundle.tolist()
        assert hs == sorted(hs)
        steps = [b - a for a, b in zip(hs, hs[1:])]
        assert all(s == pytest.approx(steps[0]) for s in steps)
        assert hs[0] == pytest.approx(-15.0 + steps[0] / 2.0)
        assert collimated_bundle(Fusiform(30.0, 20.0), 5).tolist() == hs


@given(radial_shape, st.integers(1, 401), st.integers(0, 18), st.floats(0.0, 10.0),
       st.floats(0.0, 50.0))
@settings(max_examples=60, deadline=None)
def test_radial_bundle_is_mirror_symmetric(shape, k, n_cells, gap, detector_gap):
    # Ray i and ray K-1-i start at mirrored heights, so they share a fate and
    # leave at mirrored heights, up to the rounding of the launch grid.
    layout = ArrayLayout(shape=shape, n_cells=n_cells, gap=gap, source_gap=5.0,
                         detector_gap=detector_gap)
    batch, _ = trace_array(layout, MEDIA, collimated_bundle(shape, k))
    assert batch.fate.tolist() == batch.fate[::-1].tolist()
    np.testing.assert_allclose(batch.exit_h, -batch.exit_h[::-1], rtol=0.0, atol=1e-9)
