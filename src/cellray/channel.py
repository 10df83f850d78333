"""Multipath channel impulse response built from a traced RayBatch.

Each detected ray contributes one (delay, gain) atom: the delay is the sum
of per-segment travel times at c/n, the gain the product of the two
modified Beer-Lambert transmittances evaluated on the summed per-medium
distances.  Convolving per-segment delta impulses is therefore done
analytically, with no numerical convolution error; the signal module uses
numerical convolution only for pulse shaping.

Atoms are made in one place, contributions, which reads the batch's
per-ray path-length arrays and returns the atoms as arrays (Atoms);
build_cir and detector_map read them.  build_cir merges them by binned
addition with np.bincount, in ray order, so the merge order cannot change
results beyond floating-point associativity (1e-12 relative).  Every output
table is written by write_csv.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .geometry import FocusReport, RayBatch
from .optics import (
    SPEED_OF_LIGHT_M_PER_S,
    UM_PER_MM,
    Media,
    transmittance,
)

# Illumination radii below this floor make the focusing ratio meaningless.
ILLUMINATION_FLOOR_UM = 1e-3
# The most bins build_cir makes: over 100 times the ~0.1M bins of 0.02 fs
# that a 450 um line needs.
MAX_CIR_BINS = 12_000_000


class EmptyChannel(Exception):
    """No ray reaches the detector."""


class DegenerateFocus(Exception):
    """An illumination radius underflows the floor; gamma would diverge."""


class BinOverflow(ValueError):
    """The bin width is 0 s, or the delays need more than MAX_CIR_BINS bins."""


@dataclass(eq=False)
class Atoms:
    """Channel atoms as arrays: entry i of every array belongs to one ray."""

    delay_s: np.ndarray
    gain: np.ndarray
    ray_index: np.ndarray
    detector_coordinate_um: np.ndarray

    def __len__(self) -> int:
        return len(self.delay_s)

    def select(self, mask: np.ndarray) -> "Atoms":
        return Atoms(self.delay_s[mask], self.gain[mask], self.ray_index[mask],
                     self.detector_coordinate_um[mask])


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
    """Per-ray arrival samples across the detector plane.

    samples has one row (coordinate_um, power_norm, delay_s) per detected
    ray, in increasing coordinate order.
    """

    samples: np.ndarray

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=float).reshape(-1, 3)


def contributions(batch: RayBatch, media: Media,
                  detector_extent_um: Optional[float] = None,
                  ) -> tuple[Atoms, Atoms]:
    """Atoms of the delivered rays, split into detected and out-of-detector.

    The gain multiplies the cell-medium and tissue-medium transmittances,
    each with its DPF evaluated on that medium's total distance.  Leaked
    rays give no atom; with no detector extent every delivered ray is
    detected.
    """
    delivered = batch.status != "leaked"
    d_a_um = batch.cell_length[delivered]
    d_e_um = batch.tissue_length[delivered]
    coord = batch.exit_h[delivered]
    delay = (d_a_um * media.cell.n + d_e_um * media.tissue.n) * 1e-6 / SPEED_OF_LIGHT_M_PER_S
    gain = transmittance(media.cell, d_a_um / UM_PER_MM)
    gain *= transmittance(media.tissue, d_e_um / UM_PER_MM)
    atoms = Atoms(delay, gain, batch.ray_index[delivered], coord)
    if detector_extent_um is None:
        off = np.zeros(len(coord), dtype=bool)
    else:
        off = np.abs(coord) > 0.5 * detector_extent_um
    return atoms.select(~off), atoms.select(off)


def build_cir(detected: Atoms, n_rays: int, dt_s: float = 10e-15,
              aggregate_gamma: Optional[float] = None) -> ImpulseResponse:
    """Accumulate detected atoms into a binned impulse response.

    Every atom deposits gain/n_rays into the bin nearest its delay, n_rays
    being the launched bundle size, so the total gain is the per-unit-source
    received intensity.  Focusing is left to the ray arrival density unless
    aggregate_gamma, the cumulative focusing ratio, is given: then all bins
    are scaled by it as well.  Raises BinOverflow for a bin width of 0 s,
    or for delays that would need more than MAX_CIR_BINS bins.
    """
    if dt_s <= 0.0:
        raise BinOverflow(f"bin width must be positive, got {dt_s!r} s")
    if not detected:
        raise EmptyChannel("no ray reaches the detector")
    with np.errstate(over="ignore"):
        slots = np.rint(detected.delay_s / dt_s)
    # Checked before the cast: an overflowed cast gives a negative slot.
    if not (slots.min() >= 0.0 and slots.max() < MAX_CIR_BINS):
        raise BinOverflow(f"delays up to {detected.delay_s.max():.6g} s need more than "
                          f"{MAX_CIR_BINS} bins of {dt_s:.6g} s")
    bins = np.bincount(slots.astype(np.intp), weights=detected.gain / n_rays)
    if aggregate_gamma is not None:
        bins *= aggregate_gamma
    return ImpulseResponse(t0=0.0, dt=dt_s, bins=bins)


def rebin(cir: ImpulseResponse, dt_s: float) -> ImpulseResponse:
    """Re-deposit bin masses onto a new grid; total gain is conserved.

    Masses move as atoms at their bin times, never interpolated as curves;
    the new grid starts at t = 0, so no mass may lie before it.
    """
    if dt_s <= 0.0:
        raise ValueError("bin width must be positive")
    times = cir.times
    n_bins = int(round(times[-1] / dt_s)) + 1 if len(times) else 1
    mass = cir.bins != 0.0
    slots = np.rint(times[mass] / dt_s).astype(np.intp)
    if (slots < 0).any():
        raise ValueError("rebin cannot place mass before t = 0")
    bins = np.bincount(slots, weights=cir.bins[mass], minlength=max(n_bins, 1))
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


def detector_map(detected: Atoms) -> DetectorMap:
    """Arrival coordinates, normalized power and delay of the detected atoms."""
    top = detected.gain.max() if len(detected) else 1.0
    order = np.argsort(detected.detector_coordinate_um, kind="stable")
    samples = np.column_stack((detected.detector_coordinate_um[order],
                               detected.gain[order] / top, detected.delay_s[order]))
    return DetectorMap(samples=samples)


def coordinate_clusters(dmap: DetectorMap, gap_um: float = 1.0,
                        min_size: int = 2) -> list[np.ndarray]:
    """Group detector samples into clusters split at coordinate gaps > gap_um."""
    splits = np.flatnonzero(np.diff(dmap.samples[:, 0]) > gap_um) + 1
    return [c for c in np.split(dmap.samples, splits) if len(c) >= min_size]


# Rows formatted per block: bounds the memory of the block's Python values.
CSV_BLOCK_ROWS = 4096


def write_csv(path, header: Sequence[str], row_format: str, columns) -> None:
    """Write a header line and one row per entry of the columns, CRLF-ended.

    row_format is the %-template of one row, such as "%d,%s,%.12e", with one
    conversion per column; columns are equal-length arrays or sequences.
    The bytes equal those csv.writer writes for the formatted fields,
    because the writer never quotes: fields must hold no comma, quote or
    line break, and a row must not be one empty field, which csv.writer
    would write as "".  Numbers and the status words written here qualify.
    Blocks of CSV_BLOCK_ROWS rows are formatted with one %-operation each.
    """
    columns = [np.asarray(c) for c in columns]
    n_rows = len(columns[0])
    if any(len(c) != n_rows for c in columns):
        raise ValueError("columns must have equal lengths")
    width = len(columns)
    line = row_format + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, n_rows, CSV_BLOCK_ROWS):
            block = [c[start:start + CSV_BLOCK_ROWS].tolist() for c in columns]
            rows = len(block[0])
            values = [None] * (rows * width)
            for j, column in enumerate(block):
                values[j::width] = column
            fh.write((line * rows) % tuple(values))


def write_cir_csv(cir: ImpulseResponse, path) -> None:
    write_csv(path, ("time_s", "amplitude"), "%.12e,%.12e", (cir.times, cir.bins))


def write_pdp_csv(pdp: ImpulseResponse, path) -> None:
    write_csv(path, ("time_s", "power"), "%.12e,%.12e", (pdp.times, pdp.bins))


def write_detector_csv(dmap: DetectorMap, path) -> None:
    write_csv(path, ("coordinate_um", "power_norm", "delay_s"), "%.12e,%.12e,%.12e",
              dmap.samples.T)
