"""Multipath channel impulse response built from traced ray paths.

Each detected ray contributes one (delay, gain) atom: the delay is the sum
of per-segment travel times at c/n, the gain the product of the two
modified Beer-Lambert transmittances evaluated on the summed per-medium
distances.  Convolving per-segment delta impulses is therefore done
analytically, with no numerical convolution error; the signal module uses
numerical convolution only for pulse shaping.

Atoms are merged by associative binned addition, so the merge order cannot
change results beyond floating-point associativity (1e-12 relative).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .geometry import FocusReport, RayBatch, RayPath
from .optics import (
    SPEED_OF_LIGHT_M_PER_S,
    UM_PER_MM,
    Media,
    Wavelength,
    transmittance,
)

# Illumination radii below this floor make the focusing ratio meaningless.
ILLUMINATION_FLOOR_UM = 1e-3

# A traced batch, or any sequence of paths (read through RayBatch.from_paths).
Paths = Union[RayBatch, Sequence[RayPath]]


class EmptyChannel(Exception):
    """No ray reaches the detector."""


class PathOutsideDetector(Exception):
    """The ray reaches the detector plane outside the detector extent."""


class DegenerateFocus(Exception):
    """An illumination radius underflows the floor; gamma would diverge."""


@dataclass(frozen=True)
class PathContribution:
    """One ray's atom in the impulse response."""

    delay_s: float
    gain: float
    ray_index: int
    detector_coordinate_um: float


@dataclass
class ImpulseResponse:
    """Discretised h(t): bin k spans times around t0 + k*dt."""

    t0: float
    dt: float
    bins: np.ndarray

    def __post_init__(self) -> None:
        if self.dt <= 0.0:
            raise ValueError("bin width must be positive")
        self.bins = np.asarray(self.bins, dtype=float)

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(len(self.bins))

    def total_gain(self) -> float:
        return float(self.bins.sum())

    def dominant_bin(self) -> tuple[float, float]:
        """(time, amplitude) of the strongest bin by magnitude."""
        idx = int(np.argmax(np.abs(self.bins)))
        return self.t0 + idx * self.dt, float(self.bins[idx])


@dataclass
class DetectorMap:
    """Per-ray arrival samples across the detector plane."""

    half_extent_um: float
    samples: list[tuple[float, float, float]]  # (coordinate_um, power_norm, delay_s)


def path_contribution(path: RayPath, media: Media,
                      wavelength: Wavelength | None = None,
                      detector_extent_um: Optional[float] = None) -> PathContribution:
    """Delay and gain of one arrived or deviated ray.

    The gain multiplies the cell-medium and tissue-medium transmittances,
    each with its DPF evaluated on that medium's total distance.  When a
    detector extent is given, rays landing outside it raise
    PathOutsideDetector and are kept only as diagnostics.
    """
    if path.status == "leaked":
        raise ValueError("leaked rays do not reach the detector")
    detected, _ = contributions([path], media, wavelength, detector_extent_um)
    if not detected:
        raise PathOutsideDetector(f"ray {path.ray_index} lands at {path.exit.h:.3f} um")
    return detected[0]


def contributions(paths: Paths, media: Media,
                  wavelength: Wavelength | None = None,
                  detector_extent_um: Optional[float] = None,
                  ) -> tuple[list[PathContribution], list[PathContribution]]:
    """Split paths into detected atoms and out-of-detector diagnostics."""
    batch = RayBatch.from_paths(paths)
    delivered = batch.status != "leaked"
    d_a_um = batch.cell_length[delivered]
    d_e_um = batch.tissue_length[delivered]
    coord = batch.exit_h[delivered]
    delay = (d_a_um * media.cell.n + d_e_um * media.tissue.n) * 1e-6 / SPEED_OF_LIGHT_M_PER_S
    if detector_extent_um is None:
        off = np.zeros(len(coord), dtype=bool)
    else:
        off = np.abs(coord) > 0.5 * detector_extent_um
    detected: list[PathContribution] = []
    outside: list[PathContribution] = []
    for index, delay_s, a_mm, e_mm, h, is_off in zip(
            batch.ray_index[delivered].tolist(), delay.tolist(),
            (d_a_um / UM_PER_MM).tolist(), (d_e_um / UM_PER_MM).tolist(),
            coord.tolist(), off.tolist()):
        gain = transmittance(media.cell, a_mm, wavelength)
        gain *= transmittance(media.tissue, e_mm, wavelength)
        (outside if is_off else detected).append(
            PathContribution(delay_s=delay_s, gain=gain, ray_index=index,
                             detector_coordinate_um=h))
    return detected, outside


def build_cir(paths: Paths, media: Media,
              wavelength: Wavelength | None = None, dt_s: float = 10e-15,
              gamma_mode: str = "per-path",
              detector_extent_um: Optional[float] = None,
              aggregate_gamma: Optional[float] = None) -> ImpulseResponse:
    """Accumulate per-ray atoms into a binned impulse response.

    Every detected ray deposits gain/K into the bin nearest its delay, K
    being the launched bundle size, so the total gain is the per-unit-source
    received intensity.  gamma_mode "per-path" (default) leaves focusing to
    the ray arrival density; "aggregate" additionally scales all bins by the
    cumulative focusing ratio, which must then be supplied.
    """
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


def rebin(cir: ImpulseResponse, dt_s: float) -> ImpulseResponse:
    """Re-deposit bin masses onto a new grid; total gain is conserved.

    Masses move as atoms at their bin times, never interpolated as curves.
    """
    if dt_s <= 0.0:
        raise ValueError("bin width must be positive")
    times = cir.times
    n_bins = int(round(times[-1] / dt_s)) + 1 if len(times) else 1
    bins = np.zeros(max(n_bins, 1))
    for t, mass in zip(times, cir.bins):
        if mass != 0.0:
            bins[int(round(t / dt_s))] += mass
    return ImpulseResponse(t0=0.0, dt=dt_s, bins=bins)


def power_delay_profile(cir: ImpulseResponse) -> ImpulseResponse:
    """Elementwise |h|^2 on the same bin geometry."""
    return ImpulseResponse(t0=cir.t0, dt=cir.dt, bins=cir.bins**2)


def focusing_gain(report: FocusReport) -> list[float]:
    """Per-stage focusing ratios (r_in / r_out)^2 along the radius chain.

    The chain runs source radius, per-cell exit radii, detector radius, so
    the product telescopes to (r_source / r_detector)^2.  Radii below
    ILLUMINATION_FLOOR_UM raise DegenerateFocus.
    """
    chain = [report.source_radius]
    chain.extend(c.illumination_radius for c in report.cells)
    if not math.isnan(report.detector_radius):
        chain.append(report.detector_radius)
    for radius in chain:
        if not radius >= ILLUMINATION_FLOOR_UM:
            raise DegenerateFocus(f"illumination radius {radius} um under floor")
    return [(r_in / r_out) ** 2 for r_in, r_out in zip(chain, chain[1:])]


def cumulative_gamma(report: FocusReport) -> float:
    return math.prod(focusing_gain(report))


def detector_map(paths: Paths, media: Media,
                 wavelength: Wavelength | None = None,
                 detector_extent_um: float = 40.0) -> DetectorMap:
    """Arrival coordinates, normalized per-ray power and delay on the detector."""
    if detector_extent_um <= 0.0:
        raise ValueError("detector extent must be positive")
    detected, _ = contributions(paths, media, wavelength, detector_extent_um)
    top = max((c.gain for c in detected), default=1.0)
    samples = [
        (c.detector_coordinate_um, c.gain / top, c.delay_s)
        for c in sorted(detected, key=lambda c: c.detector_coordinate_um)
    ]
    return DetectorMap(half_extent_um=0.5 * detector_extent_um, samples=samples)


def coordinate_clusters(dmap: DetectorMap, gap_um: float = 1.0,
                        min_size: int = 2) -> list[list[tuple[float, float, float]]]:
    """Group detector samples into clusters split at coordinate gaps > gap_um."""
    clusters: list[list[tuple[float, float, float]]] = []
    current: list[tuple[float, float, float]] = []
    last = None
    for sample in dmap.samples:
        if last is not None and sample[0] - last > gap_um:
            if len(current) >= min_size:
                clusters.append(current)
            current = []
        current.append(sample)
        last = sample[0]
    if len(current) >= min_size:
        clusters.append(current)
    return clusters


def _write_csv(path, header: Sequence[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.12e}" if isinstance(v, float) else v for v in row])


def write_cir_csv(cir: ImpulseResponse, path) -> None:
    _write_csv(path, ["time_s", "amplitude"],
               ((float(t), float(a)) for t, a in zip(cir.times, cir.bins)))


def write_pdp_csv(pdp: ImpulseResponse, path) -> None:
    _write_csv(path, ["time_s", "power"],
               ((float(t), float(a)) for t, a in zip(pdp.times, pdp.bins)))


def write_detector_csv(dmap: DetectorMap, path) -> None:
    _write_csv(path, ["coordinate_um", "power_norm", "delay_s"], dmap.samples)
