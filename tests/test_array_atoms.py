"""The array channel against the per-atom loops it replaced.

Equality is exact (==): atoms, CIR bins and detector samples come from the
same floating-point operations in the same order as in tests/channel_oracle.py,
so any difference is a defect, not noise.
"""

from dataclasses import replace

import pytest

import channel_oracle as oracle
from cellray import channel as ch
from cellray.config import default_scenario
from cellray.geometry import RayBatch, collimated_bundle, trace_array

SHAPES = ("fusiform", "spherical", "pyramidal")
EXTENTS = (None, 40.0, 0.001)


def scenario_run(shape, **overrides):
    scenario = replace(default_scenario(shape), **overrides)
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
            assert atoms.ray_index.tolist() == [c.ray_index for c in expected]
            assert atoms.detector_coordinate_um.tolist() == \
                [c.detector_coordinate_um for c in expected]
            assert list(atoms) == expected
        for mode, aggregate in (("per-path", None), ("aggregate", gamma)):
            if mode == "aggregate" and gamma is None:
                continue
            assert cir_outcome(ch.build_cir, got[0], len(paths), 10e-15, aggregate) == \
                cir_outcome(oracle.build_cir, paths, media, None, 10e-15, mode,
                            extent, aggregate)
        if extent is not None:
            assert ch.detector_map(got[0], extent).samples.tolist() == \
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


def test_from_paths_batch():
    batch, media, focus = scenario_run("pyramidal")
    paths = list(batch)[::-1]
    assert RayBatch.from_paths(paths).paths is not None
    assert_same_channel(paths, media, focus)


def test_atoms_sequence_protocol():
    batch, media, _ = scenario_run("fusiform", k_rays=51)
    detected, outside = ch.contributions(batch, media, 40.0)
    views = list(detected)
    assert len(views) == len(detected) > 0 and len(outside) == 0
    assert [detected[i] for i in range(-len(detected), 0)] == views
    assert ch.path_contribution(batch[views[0].ray_index], media) == views[0]
    with pytest.raises(IndexError):
        detected[len(detected)]
