"""The batch tracer against the per-ray scalar tracer it replaced.

Equality is exact (==): the batch tracer performs the same floating-point
operations in the same order, so any difference is a defect, not noise.
"""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import scalar_tracer as oracle
from cell_step import trace_cell, walked_cells
from cellray.channel import EmptyChannel, build_cir, contributions
from cellray.config import Scenario
from cellray.geometry import (
    BACKWARD,
    CROSSED,
    DEVIATED,
    MISS,
    STATUS,
    TIR,
    ArrayLayout,
    Fusiform,
    Pyramidal,
    RayBatch,
    Spherical,
    collimated_bundle,
    trace_array,
    trace_arrays,
)
from cellray.optics import Media, Medium
from conftest import CELL, TISSUE
from scalar_tracer import NoIntersection, TotalInternalReflection

MEDIA = Media(cell=CELL, tissue=TISSUE)
SHAPES = ("fusiform", "spherical", "pyramidal")


def event_fields(events):
    return [(e.x, e.h, e.normal_angle, e.theta_in, e.theta_out, e.n_in, e.n_out)
            for e in events]


def focus_fields(report):
    """A FocusReport, the package's or the oracle's, as nested tuples.

    The package's per-cell arrays mark a missing focus NaN where the
    oracle's per-cell records hold None, so that NaN becomes None; any
    other NaN is made comparable by repr.
    """
    if hasattr(report, "cells"):  # the oracle's
        cells = [(c.cell_index, c.theta_f, c.x_f, c.illumination_radius)
                 for c in report.cells]
    else:
        def value(v):
            return None if math.isnan(v) else v
        cells = [(i, value(theta_f), value(x_f), radius) for i, (theta_f, x_f, radius)
                 in enumerate(zip(report.theta_f.tolist(), report.x_f.tolist(),
                                  report.radius.tolist()))]
    return repr((report.source_radius, cells, report.detector_radius))


def oracle_columns(paths):
    """The oracle's per-ray ledger as the columns of a RayBatch, with the
    status word in place of the fate code."""
    return {
        "status": [p.status for p in paths],
        "loss_cell": [-1 if p.loss_cell is None else p.loss_cell for p in paths],
        "exit_x": [p.exit.x for p in paths],
        "exit_h": [p.exit.h for p in paths],
        "exit_theta": [p.exit.theta for p in paths],
        "cell_length": [p.cell_length for p in paths],
        "tissue_length": [p.tissue_length for p in paths],
    }


def assert_same_trace(layout, media, h0, events=False):
    """trace_array equals the scalar oracle on every ray and focus field.

    Every array of the batch equals the oracle's per-ray values, the
    per-medium path lengths being the sums of its segment ledger.  h0 holds
    the launch heights.  events=True also walks every ray through the cells
    with cell_step.trace_cell and requires the oracle's refraction events.
    """
    paths, report = oracle.trace_array(
        layout, media, [oracle.RayState(0.0, h, 0.0) for h in h0])
    batch, focus = trace_array(layout, media, np.array(h0, dtype=float))
    columns = {f.name: getattr(batch, f.name).tolist() for f in fields(RayBatch)}
    columns["status"] = STATUS[columns.pop("fate")].tolist()
    assert columns == oracle_columns(paths)
    if events:
        walked = [walked_cells(layout, media, h) for h in h0]
        assert [event_fields(e for ct in cells for e in ct.events) for cells in walked] \
            == [event_fields(p.events) for p in paths]
    assert focus_fields(focus) == focus_fields(report)
    return batch


def scenario_trace(shape, **overrides):
    scenario = replace(Scenario(shape=shape), **overrides)
    layout = scenario.build_layout()
    h0 = collimated_bundle(layout.shape, scenario.k_rays).tolist()
    return layout, scenario.build_media(), h0


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
    h0 = draw(st.lists(st.floats(-1.2 * half, 1.2 * half), min_size=1, max_size=40))
    return layout, draw(media_strategy), h0


def walked_fate(layout, media, h):
    """(fates allowed, loss cell) of the ray launched at h, walked cell by
    cell through the oracle's trace_cell until it raises."""
    state = oracle.RayState(0.0, h, 0.0)
    for cell in range(layout.n_cells):
        try:
            ct = oracle.trace_cell(layout.shape, media, state, layout.cell_entry_x(cell))
        except NoIntersection:
            return {DEVIATED if isinstance(layout.shape, Pyramidal) else MISS}, cell
        except TotalInternalReflection:  # raised for a backward turn too
            return {TIR, BACKWARD}, cell
        state = ct.outgoing
    return {CROSSED}, -1


# Cells less dense than the tissue: 152 rays miss, 144 meet total internal
# reflection and 4 turn backward.
INDEX_CONTRAST = scenario_trace("spherical", n_cell=1.0, n_tissue=1.6, k_rays=301)


class TestRandomLayouts:
    @given(random_run(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_trace_array(self, run, events):
        assert_same_trace(*run, events=events)

    @given(random_run())
    @example(INDEX_CONTRAST)
    @settings(max_examples=300, deadline=None)
    def test_fate_against_walk(self, run):
        layout, media, h0 = run
        batch, _ = trace_array(layout, media, np.array(h0, dtype=float))
        for h, fate, loss in zip(h0, batch.fate.tolist(), batch.loss_cell.tolist()):
            allowed, walked_loss = walked_fate(layout, media, h)
            assert fate in allowed and loss == walked_loss
        per_fate = np.bincount(batch.fate, minlength=len(STATUS))
        assert len(per_fate) == len(STATUS) and per_fate.sum() == len(h0)

    @given(shape_strategy, media_strategy, st.floats(-1.2, 1.2),
           st.floats(-0.5, 0.5))
    @settings(max_examples=300, deadline=None)
    def test_trace_cell(self, shape, media, h_frac, theta):
        ray = oracle.RayState(0.0, h_frac * shape.half_aperture, theta)
        try:
            expected = oracle.trace_cell(shape, media, ray, 4.0)
        except (NoIntersection, TotalInternalReflection) as exc:
            with pytest.raises(type(exc)):
                trace_cell(shape, media, ray, 4.0)
            return
        got = trace_cell(shape, media, ray, 4.0)

        def fields(ct):
            states = [(s.x, s.h, s.theta) for s in (ct.entry, ct.outgoing)]
            focus = None if ct.focus is None else (ct.focus.theta_f, ct.focus.x_f)
            return (ct.tissue_leg, ct.chord, states, focus, event_fields(ct.events))

        assert fields(got) == fields(expected)


class TestRayBatch:
    def test_single_ray(self):
        layout, media, h0 = scenario_trace("fusiform", k_rays=1)
        batch = assert_same_trace(layout, media, h0, events=True)
        assert len(batch) == 1 and batch.fate.tolist() == [CROSSED]
        assert sum(len(ct.events) for ct in walked_cells(layout, media, h0[0])) == \
            2 * layout.n_cells

    def test_no_cells_single_tissue_segment(self):
        layout, media, h0 = scenario_trace("spherical", n_cells=0, k_rays=11)
        batch = assert_same_trace(layout, media, h0)
        assert (batch.fate == CROSSED).all()
        # One axis-parallel tissue leg from the source to the detector plane.
        assert batch.cell_length.tolist() == [0.0] * 11
        assert batch.tissue_length.tolist() == [layout.total_length] * 11

    def test_every_ray_lost(self):
        layout = ArrayLayout(Spherical(10.0), 18, 5.0, 5.0, 0.0)
        batch = assert_same_trace(layout, MEDIA, [-14.0, -11.0, 11.0, 14.0])
        assert (batch.fate == MISS).all()
        assert batch.loss_cell.tolist() == [0, 0, 0, 0]
        assert batch.exit_h.tolist() == [-14.0, -11.0, 11.0, 14.0]
        assert batch.tissue_length.tolist() == [0.0] * 4
        assert [len(atoms) for atoms in contributions(batch, MEDIA, math.inf)] == [0, 0]
        with pytest.raises(EmptyChannel):
            build_cir(contributions(batch, MEDIA, math.inf)[0], len(batch), 10e-15, None)

    def test_pyramidal_base_exit(self):
        shape = Pyramidal(30.0, 20.0)
        ct = trace_cell(shape, MEDIA, oracle.RayState(0.0, -12.0, -0.2), 4.0)
        assert ct.outgoing.h == pytest.approx(-shape.half_aperture, abs=1e-9)
        assert 4.0 < ct.outgoing.x < 4.0 + shape.w_c
        assert ct.events[1].normal_angle == -0.5 * math.pi
        # An axial launch leaves the third of these wider, denser prisms
        # through the base and then misses the fourth.
        dense = Media(cell=Medium(1.6, 0.9, 3.43), tissue=TISSUE)
        layout = ArrayLayout(Pyramidal(30.0, 40.0), 4, 5.0, 4.0, 5.0)
        exits = [ct.events[1].normal_angle for ct in walked_cells(layout, dense, 10.0)]
        assert exits[2] == -0.5 * math.pi and len(exits) == 3
        batch = assert_same_trace(layout, dense, [10.0], events=True)
        assert batch.fate.tolist() == [DEVIATED] and batch.loss_cell.tolist() == [3]

    @pytest.mark.parametrize("h", [0.0, 10.0, 14.0, 15.0, 16.0])
    def test_pyramidal_exit_miss(self, h):
        # Aimed at the apex (14, 15): the ray enters there, refracts forward
        # and then meets neither exit face, a miss and not a reflection.
        shape, launch = Pyramidal(30.0, 20.0), (0.0, h, math.atan2(15.0 - h, 14.0))
        with pytest.raises(NoIntersection):
            oracle.trace_cell(shape, MEDIA, oracle.RayState(*launch), 4.0)
        with pytest.raises(NoIntersection):
            trace_cell(shape, MEDIA, oracle.RayState(*launch), 4.0)

    def test_status_view(self):
        """Iterating a batch gives each ray's STATUS word as .status.

        perfbench/spans.py's delivered-ray counter is the view's only reader;
        this test goes with __iter__ (ROADMAP item 1).
        """
        for shape in SHAPES:
            layout, media, h0 = scenario_trace(shape)
            batch, _ = trace_array(layout, media, np.array(h0))
            assert [ray.status for ray in batch] == STATUS[batch.fate].tolist()
            # The delivered-ray count that perfbench takes by iterating a batch.
            assert sum(p.status != "leaked" for p in batch) == \
                np.count_nonzero(batch.delivered)

    def test_trace_cell_stops(self):
        with pytest.raises(NoIntersection):
            trace_cell(Spherical(10.0), MEDIA, oracle.RayState(0.0, 12.0, 0.0), 4.0)
        low_cell = Media(cell=Medium(1.0, 0.9, 3.43), tissue=Medium(1.6, 1.34, 3.43))
        with pytest.raises(TotalInternalReflection):
            trace_cell(Spherical(10.0), low_cell, oracle.RayState(0.0, 9.0, 0.0), 4.0)
        ct = trace_cell(Spherical(10.0), low_cell, oracle.RayState(0.0, 6.0, 0.0), 4.0)
        assert ct.chord > 0.0


# Pyramidal cells with n_cell = 1.5 lose all 301 rays by cell 5 of 18.
LOSSY_PRISMS = Media(cell=Medium(1.5, 0.9, 3.43), tissue=TISSUE)
ALL_LOST = ([ArrayLayout(Pyramidal(30.0, 20.0), n, 5.0, 5.0, d)
             for n, d in ((18, 0.0), (3, 7.5), (5, 1.0), (6, 0.0), (0, 2.0), (18, 3.0))],
            LOSSY_PRISMS, collimated_bundle(Pyramidal(30.0, 20.0), 301))


@st.composite
def shared_line_runs(draw):
    """Layouts on one cell line: 1-6 cell counts in 0..18, own detector gaps."""
    shape = draw(shape_strategy)
    gap, source_gap = draw(st.floats(0.0, 20.0)), draw(st.floats(0.0, 20.0))
    counts = draw(st.lists(st.integers(0, 18), min_size=1, max_size=6))
    layouts = [ArrayLayout(shape, n, gap, source_gap, draw(st.floats(0.0, 50.0)))
               for n in counts]
    return layouts, draw(media_strategy), collimated_bundle(shape, draw(st.integers(1, 301)))


class TestTraceArrays:
    @given(shared_line_runs())
    @example(ALL_LOST)
    @settings(max_examples=200, deadline=None)
    def test_equals_one_trace_per_layout(self, run):
        layouts, media, h0 = run
        shared = trace_arrays(layouts, media, h0)
        assert len(shared) == len(layouts)
        for layout, (batch, focus) in zip(layouts, shared):
            alone, alone_focus = trace_array(layout, media, h0)
            for name in alone.__dataclass_fields__:
                got, want = getattr(batch, name), getattr(alone, name)
                assert got.dtype == want.dtype and np.array_equal(got, want), name
            assert focus_fields(focus) == focus_fields(alone_focus)

    def test_every_ray_lost_before_the_last_cell(self):
        layouts, media, h0 = ALL_LOST
        batch, focus = trace_arrays(layouts, media, h0)[0]
        assert (batch.fate != CROSSED).all()
        assert batch.loss_cell.max() < 17
        assert focus.radius[-1] == 0.0
        assert np.isnan(focus.theta_f[-1]) and np.isnan(focus.x_f[-1])

    @pytest.mark.parametrize("change", [{"gap": 4.0}, {"source_gap": 4.0},
                                        {"shape": Spherical(10.0)},
                                        {"shape": Fusiform(30.0, 19.0)}])
    def test_layouts_off_the_line_rejected(self, change):
        layout = ArrayLayout(Fusiform(30.0, 20.0), 3, 5.0, 5.0, 0.0)
        with pytest.raises(ValueError, match="share shape, gap and source_gap"):
            trace_arrays([layout, replace(layout, **change)], MEDIA,
                         collimated_bundle(layout.shape, 11))
