"""The batch tracer against the per-ray scalar tracer it replaced.

Equality is exact (==): the batch tracer performs the same floating-point
operations in the same order, so any difference is a defect, not noise.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scalar_tracer as oracle
from cellray.channel import EmptyChannel, build_cir, contributions
from cellray.config import default_scenario
from cellray.geometry import (
    ArrayLayout,
    Fusiform,
    NoIntersection,
    Pyramidal,
    RayBatch,
    RayState,
    Spherical,
    TotalInternalReflection,
    collimated_bundle,
    trace_array,
    trace_cell,
)
from cellray.optics import Media, Medium
from conftest import CELL, TISSUE

MEDIA = Media(cell=CELL, tissue=TISSUE)
SHAPES = ("fusiform", "spherical", "pyramidal")


def event_fields(events):
    return [(e.x, e.h, e.normal_angle, e.theta_in, e.theta_out, e.n_in, e.n_out)
            for e in events]


def focus_fields(report):
    """FocusReport as nested tuples, with NaN made comparable by repr."""
    cells = [(c.cell_index, c.theta_f, c.x_f, c.illumination_radius)
             for c in report.cells]
    return repr((report.source_radius, cells, report.detector_radius))


def walked_events(layout, media, ray):
    """Refraction events of one ray walked through the cells by trace_cell."""
    state, events = RayState(*ray), []
    for cell in range(layout.n_cells):
        try:
            ct = trace_cell(layout.shape, media, state, layout.cell_entry_x(cell))
        except (NoIntersection, TotalInternalReflection):
            break
        events.extend(ct.events)
        state = ct.outgoing
    return events


def assert_same_trace(layout, media, rays, events=False):
    """trace_array equals the scalar oracle on every ray and focus field.

    events=True also walks every ray through the cells with trace_cell and
    requires the oracle's refraction events.
    """
    paths, report = oracle.trace_array(
        layout, media, [oracle.RayState(*ray) for ray in rays])
    batch, focus = trace_array(layout, media, [RayState(*ray) for ray in rays])
    assert len(batch) == len(paths)

    def ledger(p):
        return (p.ray_index, p.status, p.loss_cell, p.exit.x, p.exit.h,
                p.exit.theta, p.exit.intensity_scale, p.segments,
                p.cell_length, p.tissue_length)

    assert [ledger(p) for p in batch] == [ledger(p) for p in paths]
    assert batch.cell_length.tolist() == [p.cell_length for p in paths]
    assert batch.tissue_length.tolist() == [p.tissue_length for p in paths]
    if events:
        assert [event_fields(walked_events(layout, media, ray)) for ray in rays] == \
            [event_fields(p.events) for p in paths]
    assert focus_fields(focus) == focus_fields(report)
    return batch


def scenario_trace(shape, **overrides):
    scenario = replace(default_scenario(shape), **overrides)
    layout = scenario.build_layout()
    rays = [(r.x, r.h, r.theta)
            for r in collimated_bundle(layout.shape, scenario.k_rays)]
    return layout, scenario.build_media(), rays


class TestAgainstScalarTracer:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_default_scenarios(self, shape):
        assert_same_trace(*scenario_trace(shape))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_sweep_over_cell_count(self, shape):
        for n in range(19):
            assert_same_trace(*scenario_trace(shape, n_cells=n, k_rays=301))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_one_cell_many_rays(self, shape):
        assert_same_trace(*scenario_trace(shape, n_cells=1, k_rays=20001))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_few_rays(self, shape):
        assert_same_trace(*scenario_trace(shape, k_rays=101), events=True)


shape_strategy = st.one_of(
    st.builds(Spherical, r_c=st.floats(4.0, 25.0)),
    st.tuples(st.floats(10.0, 50.0), st.floats(0.2, 1.0)).map(
        lambda t: Fusiform(h_c=t[0], w_c=t[0] * t[1])),
    st.builds(Pyramidal, h_c=st.floats(10.0, 50.0), w_c=st.floats(5.0, 40.0)),
)
media_strategy = st.builds(
    lambda n_cell, n_tissue: Media(cell=Medium(n_cell, 0.9, 3.43),
                                   tissue=Medium(n_tissue, 1.34, 3.43)),
    st.floats(1.0, 1.6), st.floats(1.0, 1.6))


@st.composite
def random_run(draw):
    shape = draw(shape_strategy)
    layout = ArrayLayout(shape, draw(st.integers(0, 8)), draw(st.floats(0.0, 20.0)),
                         draw(st.floats(0.0, 20.0)), draw(st.floats(0.0, 50.0)))
    half = shape.half_aperture
    rays = draw(st.lists(
        st.tuples(st.just(0.0), st.floats(-1.2 * half, 1.2 * half),
                  st.floats(-0.4, 0.4)),
        min_size=1, max_size=40))
    return layout, draw(media_strategy), rays


class TestRandomLayouts:
    @given(random_run(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_trace_array(self, run, events):
        assert_same_trace(*run, events=events)

    @given(shape_strategy, media_strategy, st.floats(-1.2, 1.2),
           st.floats(-0.5, 0.5))
    @settings(max_examples=300, deadline=None)
    def test_trace_cell(self, shape, media, h_frac, theta):
        h = h_frac * shape.half_aperture
        try:
            expected = oracle.trace_cell(shape, media, oracle.RayState(0.0, h, theta), 4.0)
        except (NoIntersection, TotalInternalReflection) as exc:
            with pytest.raises(type(exc)):
                trace_cell(shape, media, RayState(0.0, h, theta), 4.0)
            return
        got = trace_cell(shape, media, RayState(0.0, h, theta), 4.0)

        def fields(ct):
            states = [(s.x, s.h, s.theta) for s in (ct.entry, ct.outgoing)]
            focus = None if ct.focus is None else (ct.focus.theta_f, ct.focus.x_f)
            return (ct.tissue_leg, ct.chord, states, focus, event_fields(ct.events))

        assert fields(got) == fields(expected)


class TestRayBatch:
    def test_single_ray(self):
        layout, media, rays = scenario_trace("fusiform", k_rays=1)
        batch = assert_same_trace(layout, media, rays, events=True)
        assert len(batch) == 1 and batch[-1] == batch[0]
        assert batch[0].status == "arrived"
        assert len(walked_events(layout, media, rays[0])) == 2 * layout.n_cells
        with pytest.raises(IndexError):
            batch[1]

    def test_no_cells_single_tissue_segment(self):
        layout, media, rays = scenario_trace("spherical", n_cells=0, k_rays=11)
        batch = assert_same_trace(layout, media, rays)
        assert batch.legs.shape == (11, 0)
        assert (batch.status == "arrived").all()
        assert batch.tissue_length.tolist() == batch.final_leg.tolist()
        assert all(len(p.segments) == 1 for p in batch)

    def test_every_ray_lost(self):
        layout = ArrayLayout(Spherical(10.0), 18, 5.0, 5.0, 0.0)
        rays = [(0.0, h, 0.0) for h in (-14.0, -11.0, 11.0, 14.0)]
        batch = assert_same_trace(layout, MEDIA, rays)
        assert (batch.status == "leaked").all()
        assert batch.loss_cell.tolist() == [0, 0, 0, 0]
        assert batch.exit_h.tolist() == [-14.0, -11.0, 11.0, 14.0]
        assert batch.tissue_length.tolist() == [0.0] * 4
        assert contributions(batch, MEDIA) == ([], [])
        with pytest.raises(EmptyChannel):
            build_cir(batch, MEDIA, dt_s=10e-15)

    def test_pyramidal_base_exit(self):
        shape = Pyramidal(30.0, 20.0)
        ct = trace_cell(shape, MEDIA, RayState(0.0, -12.0, -0.2), 4.0)
        assert ct.outgoing.h == pytest.approx(-shape.half_aperture, abs=1e-9)
        assert 4.0 < ct.outgoing.x < 4.0 + shape.w_c
        assert ct.events[1].normal_angle == -0.5 * math.pi
        layout = ArrayLayout(shape, 3, 5.0, 4.0, 5.0)
        batch = assert_same_trace(layout, MEDIA, [(0.0, -12.0, -0.2)], events=True)
        assert batch[0].status == "deviated" and batch[0].loss_cell == 1

    def test_sequence_protocol(self):
        layout, media, rays = scenario_trace("pyramidal", k_rays=51)
        batch, _ = trace_array(layout, media, [RayState(*r) for r in rays])
        paths = list(batch)
        assert list(reversed(batch)) == paths[::-1]
        assert [batch[i] for i in range(-len(batch), 0)] == paths
        assert RayBatch.from_paths(batch) is batch
        again = RayBatch.from_paths(paths[::-1])
        assert list(again) == paths[::-1]
        for name in ("ray_index", "status", "loss_cell", "exit_x", "exit_h",
                     "exit_theta", "cell_length", "tissue_length"):
            assert np.array_equal(getattr(again, name), getattr(batch, name)[::-1])

    def test_trace_cell_stops(self):
        with pytest.raises(NoIntersection):
            trace_cell(Spherical(10.0), MEDIA, RayState(0.0, 12.0, 0.0), 4.0)
        low_cell = Media(cell=Medium(1.0, 0.9, 3.43), tissue=Medium(1.6, 1.34, 3.43))
        with pytest.raises(TotalInternalReflection):
            trace_cell(Spherical(10.0), low_cell, RayState(0.0, 9.0, 0.0), 4.0)
        ct = trace_cell(Spherical(10.0), low_cell, RayState(0.0, 6.0, 0.0), 4.0)
        assert ct.chord > 0.0
