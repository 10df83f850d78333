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
table is written by write_csv, which formats each column by its dtype and
builds blocks of rows as numpy byte matrices of NUL-padded fields.  A
float column's %.12e fields come from format_e12, a vectorised formatter
that gives the bytes of Python's '%.12e' right-aligned in 20-byte fields,
stamps the fields of zeros when most values are zeros, and leaves to
Python's % only the values whose rounding it cannot prove (see E12_GUARD).
A block of float columns is split into the runs of rows over which no
column's sign flips (one run when no sign flips); when its runs average
MIN_RUN_ROWS rows or more and each run's fields have one width per column
(finite values with two-digit exponents), each run is written as
byte-column slices of its matrix, with no NUL byte to drop.  Any other
block drops its NUL padding with one bytes.translate.
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
_ZERO_GAIN = "every detected ray's gain is 0.0"


class EmptyChannel(Exception):
    """No light reaches the detector: no ray is detected, or every gain is 0.0."""


class DegenerateFocus(Exception):
    """An illumination radius underflows the floor; gamma would diverge."""


class BinOverflow(ValueError):
    """The bin width is 0 s, or the delays need more than MAX_CIR_BINS bins."""


@dataclass(eq=False)
class Atoms:
    """Channel atoms as arrays: entry i of every array belongs to one ray."""

    delay_s: np.ndarray
    gain: np.ndarray
    detector_coordinate_um: np.ndarray

    def __len__(self) -> int:
        return len(self.delay_s)

    def select(self, mask: np.ndarray) -> "Atoms":
        return Atoms(self.delay_s[mask], self.gain[mask], self.detector_coordinate_um[mask])


@dataclass(eq=False)
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


@dataclass(eq=False)
class DetectorMap:
    """Per-ray arrival samples across the detector plane.

    samples has one row (coordinate_um, power_norm, delay_s) per detected
    ray, in increasing coordinate order.
    """

    samples: np.ndarray

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=float).reshape(-1, 3)


def contributions(batch: RayBatch, media: Media,
                  detector_extent_um: float) -> tuple[Atoms, Atoms]:
    """Atoms of the delivered rays, split into detected and out-of-detector.

    The gain multiplies the cell-medium and tissue-medium transmittances,
    each with its DPF evaluated on that medium's total distance.  Leaked
    rays give no atom.  A ray is out of the detector where its exit height
    lies farther than half the extent from the axis; an extent of math.inf
    detects every delivered ray.
    """
    delivered = batch.delivered
    d_a_um = batch.cell_length[delivered]
    d_e_um = batch.tissue_length[delivered]
    coord = batch.exit_h[delivered]
    delay = (d_a_um * media.cell.n + d_e_um * media.tissue.n) * 1e-6 / SPEED_OF_LIGHT_M_PER_S
    gain = transmittance(media.cell, d_a_um / UM_PER_MM)
    gain *= transmittance(media.tissue, d_e_um / UM_PER_MM)
    atoms = Atoms(delay, gain, coord)
    off = np.abs(coord) > 0.5 * detector_extent_um
    return atoms.select(~off), atoms.select(off)


def build_cir(detected: Atoms, n_rays: int, dt_s: float,
              aggregate_gamma: Optional[float]) -> ImpulseResponse:
    """Accumulate detected atoms into a binned impulse response.

    Every atom deposits gain/n_rays into the bin nearest its delay, n_rays
    being the launched bundle size, so the total gain is the per-unit-source
    received intensity.  Focusing is left to the ray arrival density unless
    aggregate_gamma, the cumulative focusing ratio, is given: then all bins
    are scaled by it as well.  Raises BinOverflow for a bin width of 0 s,
    or for delays that would need more than MAX_CIR_BINS bins, and
    EmptyChannel when no detected gain is non-zero.
    """
    if dt_s <= 0.0:
        raise BinOverflow(f"bin width must be positive, got {dt_s!r} s")
    if not detected.gain.any():
        raise EmptyChannel(_ZERO_GAIN if detected else "no ray reaches the detector")
    slots = np.rint(detected.delay_s / dt_s)
    # Checked before the cast: an overflowed cast gives a negative slot.
    if not (slots.min() >= 0.0 and slots.max() < MAX_CIR_BINS):
        raise BinOverflow(f"delays up to {detected.delay_s.max():.6g} s need more than "
                          f"{MAX_CIR_BINS} bins of {dt_s:.6g} s")
    bins = np.bincount(slots.astype(np.intp), weights=detected.gain / n_rays)
    if aggregate_gamma is not None:
        bins *= aggregate_gamma
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
    chain.extend(report.radius.tolist())
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
    if top == 0.0:
        raise EmptyChannel(_ZERO_GAIN)
    order = np.argsort(detected.detector_coordinate_um, kind="stable")
    # Built column by column, so that samples.T holds three contiguous rows.
    columns = np.stack((detected.detector_coordinate_um[order],
                        detected.gain[order] / top, detected.delay_s[order]))
    return DetectorMap(samples=columns.T)


# Rows formatted per block: bounds the memory of the block's byte matrix.
CSV_BLOCK_ROWS = 8192

# format_e12 formats x = |value| from s = x * 10**(12 - e), which two
# roundings (the power of ten's and the product's) put within (2u + u**2)*s
# of its true value, u = 2**-53.  As s < 1e13, that is under 2.3e-3, so
# where the fraction of s lies farther than E12_GUARD from .5, its true
# value rounds to the same integer; the rest go to Python's %.
E12_GUARD = 0.004

_POW10_MIN = -330
# 10**k, correctly rounded by float(), for k from _POW10_MIN to 340: every k
# that the exponent of a float64, or 12 minus it, can take.
_POW10 = np.array([float(f"1e{k}") for k in range(_POW10_MIN, 341)])
_NOT_FINITE = 200  # an exponent format_e12 leaves to Python's %


def _words(text: np.ndarray) -> np.ndarray:
    """Rows of ASCII bytes as uint32 words, 4 bytes of a row per word."""
    return np.ascontiguousarray(text, dtype=np.uint8).view(np.uint32)


def _ascii(*parts: np.ndarray) -> np.ndarray:
    """Every combination of the parts' rows, concatenated, as ASCII bytes."""
    grid = np.meshgrid(*(np.arange(len(p)) for p in parts), indexing="ij")
    return np.concatenate([p[g.ravel()] for p, g in zip(parts, grid)], axis=1)


def _chars(text: bytes) -> np.ndarray:
    """One row per byte of the text."""
    return np.frombuffer(text, np.uint8)[:, None]


_DIGIT = _chars(b"0123456789")


# The words of a %.12e field, right-aligned: the head (pad, sign, lead digit,
# point), three words of four digits, and the tail ("e", the exponent's sign,
# two digits).  A field's bytes are NULs, then its text.
E12_WORDS = 5
_FIELD_BYTES = 4 * E12_WORDS
_HEAD = _words(_ascii(_chars(b"\0"), _chars(b"\0-"), _DIGIT, _chars(b"."))).ravel()
_DIGITS4 = _words(_ascii(_DIGIT, _DIGIT, _DIGIT, _DIGIT)).ravel()  # at i: i
# The tails of the exponents -99 .. 99, in that order.
_TAIL = _words(_ascii(_chars(b"e"), _chars(b"+-"), _DIGIT, _DIGIT)).ravel()[
    np.r_[199:100:-1, 0:100]]
_COMMA, _CRLF = np.frombuffer(b",\0\0\0\r\n\0\0", np.uint32)
_SPACE_TO_NUL = bytes.maketrans(b" ", b"\0")


def _format_e12(x: np.ndarray, field: np.ndarray) -> np.ndarray:
    """Write the fields of the float64 values x to field; return field."""
    a = np.abs(x)
    zero = a == 0.0
    a[zero] = 1.0  # formatted as 1e0, then given a zero significand
    with np.errstate(invalid="ignore"):  # NaN and inf give NaN below
        e = np.rint(np.log10(a))
        e[~np.isfinite(e)] = _NOT_FINITE
        e = e.astype(np.intp)
        e -= a < _POW10[e - _POW10_MIN]
        scaled = a * _POW10[12 - e - _POW10_MIN]
        significand = np.rint(scaled)
        slow = np.abs(scaled - significand) > 0.5 - E12_GUARD
    carry = significand == 1e13
    significand[carry] = 1e12
    e += carry
    slow |= np.abs(e) >= 100
    significand[zero | slow] = 0.0
    e[slow] = 0

    significand = significand.astype(np.int64)
    top = significand // 10**8  # lead digit and the next four
    low = significand - top * 10**8
    lead = top // 10**4
    mid = low // 10**4
    field[:, 0] = _HEAD[np.signbit(x) * 10 + lead]
    field[:, 1] = _DIGITS4[top - lead * 10**4]
    field[:, 2] = _DIGITS4[mid]
    field[:, 3] = _DIGITS4[low - mid * 10**4]
    field[:, 4] = _TAIL[e + 99]

    slow = np.flatnonzero(slow)
    if len(slow):
        # No %.12e text is wider than 20 bytes ("-1.797693134862e+308").
        text = ("%20.12e" * len(slow) % tuple(x[slow].tolist())).encode()
        field[slow] = np.frombuffer(text.translate(_SPACE_TO_NUL), np.uint32) \
            .reshape(len(slow), E12_WORDS)
    return field


# The fields of +0.0 and -0.0, and -0.0's bits: only the sign bit is set.
_ZERO = _format_e12(np.array([0.0, -0.0]), np.empty((2, E12_WORDS), np.uint32))
_NEGATIVE_ZERO_BITS = np.array(-0.0).view(np.int64)


def format_e12(values, out: Optional[np.ndarray] = None) -> np.ndarray:
    """The '%.12e' text of each value, right-aligned in (n, E12_WORDS) uint32 words.

    Each field's 4 * E12_WORDS bytes are NULs, then the ASCII text.  The
    words go to out when it is given, which may be a column slice of a
    larger uint32 matrix.

    The decimal exponent e is log10 of |x| rounded to the nearest integer,
    less one where |x| lies below the correctly rounded 10**e: one exact
    correction.  The 13-digit significand is rint(|x| * 10**(12 - e)), and
    a significand of 10**13 carries into e + 1.  A value the kernel cannot
    prove correct is formatted by Python's %, as '%20.12e' with its spaces
    made NULs: NaN, +-inf, subnormals, exponents of 100 or more in
    magnitude, and a scaled fraction within E12_GUARD of .5 (0.8 % of
    random values).  When most values are zeros, as in a sparse waveform,
    the fields of +0.0 are stamped, then those of -0.0 where there are any,
    and only the non-zero values are formatted, when there are any.
    """
    x = np.asarray(values, dtype=np.float64)
    field = np.empty((len(x), E12_WORDS), np.uint32) if out is None else out
    nonzero = x != 0.0  # NaN included
    count = np.count_nonzero(nonzero)
    if 2 * count >= len(x):
        return _format_e12(x, field)
    field[:] = _ZERO[0]
    negative_zero = x.view(np.int64) == _NEGATIVE_ZERO_BITS
    if negative_zero.any():
        field[negative_zero] = _ZERO[1]
    if count:
        nonzero = np.flatnonzero(nonzero)
        field[nonzero] = _format_e12(x[nonzero], np.empty((count, E12_WORDS), np.uint32))
    return field


def _text_words(column: np.ndarray) -> np.ndarray:
    """An integer or string column as (rows, width) uint32 words of NUL-padded ASCII."""
    text = column.astype("S")
    text = text.astype(f"S{-(-text.itemsize // 4) * 4}")  # whole words
    return text.view(np.uint32).reshape(len(text), -1)


# Each sign run the fixed-width path writes costs about 20 us per column
# (its width checks, one np.concatenate, one write), whatever its length,
# and saves bytes.translate's time on its rows.  Measured on a shared 2-core
# host (numpy 2.4.6), with three %.12e columns: at 8,192 rows a block took
# 0.5 of translate's time in 8 runs, 0.75 in 16 and 1.2 in 32; at 2,048
# rows, 0.9 in 2 runs and 1.2 in 4.  With two columns in one run, the path
# took 19.5 us against translate's 4.2 at 64 rows, 33.8 against 20.8 at 256
# and 36.9 against 40.4 at 1,024.  So a block takes the path only when its
# runs average MIN_RUN_ROWS rows or more: at most 8 runs at CSV_BLOCK_ROWS.
MIN_RUN_ROWS = 1024


def _sign_runs(rows: np.ndarray, values: list[np.ndarray]) -> Optional[list[list[np.ndarray]]]:
    """The byte columns of each run of rows over which no column's sign flips, or None.

    rows is a block of %.12e columns as bytes: per column, one right-aligned
    field and one separator word; values are its float columns.  None when
    the runs average fewer than MIN_RUN_ROWS rows, or when a column's field
    width varies within a run (NaN, +-inf, a three-digit exponent).  A
    column's fields have one width in a run when every row's text starts
    where the run's first row's does: that byte is not NUL in any row, and
    the one before it is NUL in every row.  Then the column's text and
    separator are one slice of the run's rows.
    """
    if len(rows) < MIN_RUN_ROWS:  # the rule below gives None on any such block
        return None
    sign = np.signbit(values)
    edges = np.flatnonzero((sign[:, 1:] != sign[:, :-1]).any(axis=0)) + 1
    if (len(edges) + 1) * MIN_RUN_ROWS > len(rows):
        return None
    runs = []
    for run in np.split(rows, edges):
        parts = []
        for j in range(len(values)):
            at = 4 * (E12_WORDS + 1) * j
            first = at + int(np.argmax(run[0, at:at + _FIELD_BYTES] != 0))
            if not run[:, first].all() or (first > at and run[:, first - 1].any()):
                return None
            separator = 2 if j == len(values) - 1 else 1  # "\r\n" or ","
            parts.append(run[:, first:at + _FIELD_BYTES + separator])
        runs.append(parts)
    return runs


def write_csv(path, header: Sequence[str], columns) -> None:
    """Write a header line and one row per entry of the columns, CRLF-ended.

    columns are equal-length arrays or sequences, one per header name.  Each
    column's dtype sets its format: a float column is written as %.12e, a
    signed or unsigned integer column as %d and a str or bytes column as %s;
    any other dtype (bool, complex, object, ...) raises ValueError.  An
    empty sequence is a float column.  The bytes equal those csv.writer
    writes for the %-formatted fields, because the writer never quotes:
    fields must be ASCII and hold no comma, quote, line break or NUL, and a
    row must not be one empty field, which csv.writer would write as "".
    Numbers and the status words written here qualify.

    Each block of CSV_BLOCK_ROWS rows is built as one matrix of NUL-padded
    fields, each followed by its separator word: float fields by format_e12,
    right-aligned; integer and string fields by numpy's astype("S"),
    left-aligned.  The block is written by one of two paths:

    - fixed width, run by run: every column is a float column, the block
      splits into runs of rows over which no column's np.signbit flips
      (one run when none flips), the runs average at least MIN_RUN_ROWS
      rows, and within each run each column's fields have one width, which
      holds for finite values with exponents below 100 in magnitude.  Most
      blocks of a long waveform or spectrum are one run; a block of a
      detector map (coordinates sorted) or of rx.csv's times crosses zero
      once, so it is two.  Per run, one np.concatenate joins each column's
      byte-column slice of text and separator into the rows, and one call
      writes them.
    - translate: every other block (shorter runs, as in a block of under
      MIN_RUN_ROWS rows or one that spans several carrier periods; an
      integer or string column; NaN, +-inf, a three-digit exponent).  One
      bytes.translate drops the NUL bytes, and one call writes the block.
    """
    columns = [np.asarray(c) for c in columns]
    other = [str(c.dtype) for c in columns if c.dtype.kind not in "fiuSU"]
    if other:
        raise ValueError(f"write_csv writes float, integer and string columns only, "
                         f"got {other}")
    if len(header) != len(columns):
        raise ValueError(f"{len(header)} header names for {len(columns)} columns")
    if not columns:
        raise ValueError("write_csv needs at least one column")
    n_rows = len(columns[0])
    if any(len(c) != n_rows for c in columns):
        raise ValueError("columns must have equal lengths")
    floats = [c.dtype.kind == "f" for c in columns]
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for start in range(0, n_rows, CSV_BLOCK_ROWS):
            values = [c[start:start + CSV_BLOCK_ROWS] for c in columns]
            texts = [None if is_float else _text_words(v)
                     for is_float, v in zip(floats, values)]
            widths = [E12_WORDS if t is None else t.shape[1] for t in texts]
            block = np.empty((len(values[0]), sum(widths) + len(widths)), np.uint32)
            pos = 0
            for v, text, width in zip(values, texts, widths):
                if text is None:
                    format_e12(v, out=block[:, pos:pos + width])
                else:
                    block[:, pos:pos + width] = text
                block[:, pos + width] = _COMMA
                pos += width + 1
            block[:, -1] = _CRLF
            runs = _sign_runs(block.view(np.uint8), values) if all(floats) else None
            if runs is None:
                fh.write(block.tobytes().translate(None, b"\0"))
            else:
                for parts in runs:
                    fh.write(np.concatenate(parts, axis=1))


def write_cir_csv(cir: ImpulseResponse, path) -> None:
    write_csv(path, ("time_s", "amplitude"), (cir.times, cir.bins))


def write_pdp_csv(pdp: ImpulseResponse, path) -> None:
    write_csv(path, ("time_s", "power"), (pdp.times, pdp.bins))


def write_detector_csv(dmap: DetectorMap, path) -> None:
    write_csv(path, ("coordinate_um", "power_norm", "delay_s"), dmap.samples.T)
