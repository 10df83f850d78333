"""The array channel against the per-atom loops it replaced.

Equality is exact (==): atoms, CIR bins and detector samples come from the
same floating-point operations in the same order as in tests/channel_oracle.py,
so any difference is a defect, not noise.
"""

import math
from dataclasses import replace

import pytest

import channel_oracle as oracle
from cellray import channel as ch
from cellray.config import Scenario
from cellray.geometry import collimated_bundle, trace_array
from conftest import reversed_batch

SHAPES = ("fusiform", "spherical", "pyramidal")
EXTENTS = (math.inf, 40.0, 0.001)


def scenario_run(shape, **overrides):
    scenario = replace(Scenario(shape=shape), **overrides)
    layout = scenario.build_layout()
    media = scenario.build_media()
    batch, focus = trace_array(layout, media,
                               collimated_bundle(layout.shape, scenario.k_rays))
    return batch, media, focus


def cir_outcome(build, *args, **kwargs):
    try:
        return build(*args, **kwargs).bins.tolist()
    except ch.EmptyChannel:
        return "empty"


def assert_same_channel(paths, media, focus):
    """Atoms, CIR bins and detector samples equal the oracle's, exactly."""
    try:
        gamma = ch.cumulative_gamma(focus)
    except ch.DegenerateFocus:
        gamma = None
    for extent in EXTENTS:
        got = ch.contributions(paths, media, extent)
        want = oracle.contributions(paths, media, None, extent)
        for atoms, expected in zip(got, want):
            assert atoms.delay_s.tolist() == [c.delay_s for c in expected]
            assert atoms.gain.tolist() == [c.gain for c in expected]
            assert atoms.detector_coordinate_um.tolist() == \
                [c.detector_coordinate_um for c in expected]
        for mode, aggregate in (("per-path", None), ("aggregate", gamma)):
            if mode == "aggregate" and gamma is None:
                continue
            assert cir_outcome(ch.build_cir, got[0], len(paths), 10e-15, aggregate) == \
                cir_outcome(oracle.build_cir, paths, media, None, 10e-15, mode,
                            extent, aggregate)
        assert ch.detector_map(got[0]).samples.tolist() == \
            oracle.detector_map(paths, media, None, extent).samples.tolist()


@pytest.mark.parametrize("shape", SHAPES)
def test_default_scenarios(shape):
    assert_same_channel(*scenario_run(shape))


@pytest.mark.parametrize("shape", SHAPES)
def test_one_cell_many_rays(shape):
    assert_same_channel(*scenario_run(shape, n_cells=1, k_rays=20001))


@pytest.mark.parametrize("shape", SHAPES)
def test_sweep_over_cell_count(shape):
    for n in range(19):
        assert_same_channel(*scenario_run(shape, n_cells=n, k_rays=301))


def test_reversed_batch():
    batch, media, focus = scenario_run("pyramidal")
    assert_same_channel(reversed_batch(batch), media, focus)
