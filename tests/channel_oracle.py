"""The per-atom channel loops that the array channel replaced.

contributions, build_cir and detector_map are the loops cellray.channel
ran before its atoms became arrays, with the scalar Beer-Lambert
transmittance they called; they read a RayBatch's arrays and keep their
own per-atom PathContribution.  center_line_profile is the 1 um walk
cellray.cli's path-loss curve ran before its numpy grid.
tests/test_array_atoms.py and tests/test_cli.py compare the package
against them with exact equality; this is a test oracle, not part of the
package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from cellray.channel import DetectorMap, EmptyChannel, ImpulseResponse
from cellray.geometry import ArrayLayout, RayBatch
from cellray.optics import SPEED_OF_LIGHT_M_PER_S, UM_PER_MM, Media, Medium, Wavelength


@dataclass(frozen=True)
class PathContribution:
    """One ray's atom in the impulse response."""

    delay_s: float
    gain: float
    detector_coordinate_um: float


def absorbance(medium: Medium, d_mm: float) -> float:
    k = math.sqrt(3.0 * medium.mu_a * medium.mu_s_prime)
    if d_mm * k <= -1.0:
        raise ValueError(f"distance {d_mm} mm beyond the diffusion-model pole")
    bound = 0.5 * math.sqrt(3.0 * medium.mu_s_prime / medium.mu_a)
    return medium.mu_a * d_mm * bound * (1.0 - 1.0 / (1.0 + d_mm * k))


def transmittance(medium: Medium, d_mm: float, wavelength: Wavelength | None = None) -> float:
    if d_mm < 0.0:
        raise ValueError(f"distance must be non-negative, got {d_mm}")
    return math.exp(-absorbance(medium, d_mm))


def contributions(batch: RayBatch, media: Media,
                  wavelength: Wavelength | None = None,
                  detector_extent_um: float = math.inf,
                  ) -> tuple[list[PathContribution], list[PathContribution]]:
    """Split paths into detected atoms and out-of-detector diagnostics."""
    delivered = batch.delivered
    d_a_um = batch.cell_length[delivered]
    d_e_um = batch.tissue_length[delivered]
    coord = batch.exit_h[delivered]
    delay = (d_a_um * media.cell.n + d_e_um * media.tissue.n) * 1e-6 / SPEED_OF_LIGHT_M_PER_S
    off = np.abs(coord) > 0.5 * detector_extent_um
    detected: list[PathContribution] = []
    outside: list[PathContribution] = []
    for delay_s, a_mm, e_mm, h, is_off in zip(
            delay.tolist(), (d_a_um / UM_PER_MM).tolist(), (d_e_um / UM_PER_MM).tolist(),
            coord.tolist(), off.tolist()):
        gain = transmittance(media.cell, a_mm, wavelength)
        gain *= transmittance(media.tissue, e_mm, wavelength)
        (outside if is_off else detected).append(
            PathContribution(delay_s=delay_s, gain=gain, detector_coordinate_um=h))
    return detected, outside


def build_cir(paths: RayBatch, media: Media,
              wavelength: Wavelength | None = None, dt_s: float = 10e-15,
              gamma_mode: str = "per-path",
              detector_extent_um: float = math.inf,
              aggregate_gamma: Optional[float] = None) -> ImpulseResponse:
    if dt_s <= 0.0:
        raise ValueError("bin width must be positive")
    if gamma_mode not in ("per-path", "aggregate"):
        raise ValueError(f"unknown gamma_mode {gamma_mode!r}")
    detected, _ = contributions(paths, media, wavelength, detector_extent_um)
    if not detected:
        raise EmptyChannel("no ray reaches the detector")
    k = len(paths)
    n_bins = int(round(max(c.delay_s for c in detected) / dt_s)) + 1
    bins = np.zeros(n_bins)
    for c in detected:
        bins[int(round(c.delay_s / dt_s))] += c.gain / k
    if gamma_mode == "aggregate":
        if aggregate_gamma is None:
            raise ValueError("aggregate mode needs the cumulative focusing ratio")
        bins *= aggregate_gamma
    return ImpulseResponse(t0=0.0, dt=dt_s, bins=bins)


def detector_map(paths: RayBatch, media: Media,
                 wavelength: Wavelength | None = None,
                 detector_extent_um: float = 40.0) -> DetectorMap:
    if detector_extent_um <= 0.0:
        raise ValueError("detector extent must be positive")
    detected, _ = contributions(paths, media, wavelength, detector_extent_um)
    top = max((c.gain for c in detected), default=1.0)
    samples = [
        (c.detector_coordinate_um, c.gain / top, c.delay_s)
        for c in sorted(detected, key=lambda c: c.detector_coordinate_um)
    ]
    return DetectorMap(samples=samples)


def center_line_profile(layout: ArrayLayout) -> tuple[list[float], list[float], list[float]]:
    """Distance and per-medium distances along the axial ray, every 1 um."""
    chord = layout.shape.chord_at(0.0)
    pad = layout.shape.axial_extent - chord
    boundaries: list[tuple[float, str]] = []
    cursor = 0.0
    for i in range(layout.n_cells):
        entry = layout.cell_entry_x(i)
        boundaries.append((entry + 0.5 * pad - cursor, "tissue"))
        boundaries.append((chord, "cell"))
        cursor = entry + 0.5 * pad + chord
    boundaries.append((layout.total_length - cursor, "tissue"))

    distance = [0.0]
    cell_um = [0.0]
    tissue_um = [0.0]
    pos = 0.0
    d_cell = 0.0
    d_tissue = 0.0
    step = 1.0  # um sampling
    for length, tag in boundaries:
        if length <= 0.0:
            continue
        n_steps = max(int(math.ceil(length / step)), 1)
        for k in range(1, n_steps + 1):
            frac = min(k * step, length)
            distance.append(pos + frac)
            cell_um.append(d_cell + (frac if tag == "cell" else 0.0))
            tissue_um.append(d_tissue + (frac if tag == "tissue" else 0.0))
            if frac >= length:
                break
        if tag == "cell":
            d_cell += length
        else:
            d_tissue += length
        pos += length
    return distance, cell_um, tissue_um
