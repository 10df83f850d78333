"""2-D geometric ray tracing through one-dimensional arrays of cell lenses.

Coordinates: x runs along the propagation axis, h across it, both in
micrometres.  Ray angles are measured from the +x axis, counterclockwise
positive, and every live ray satisfies |theta| < pi/2 (forward propagating).

Three cell cross-sections are supported:
  * Fusiform - a biconvex lens bounded by two circular arcs that meet at
    height +-h_c/2; axial thickness w_c, surface curvature radius
    (h_c^2 + w_c^2) / (4 w_c).
  * Spherical - a circle of radius r_c.
  * Pyramidal - an isosceles triangle with its base parallel to the axis at
    h = -h_c/2 and the apex at +h_c/2, acting as a prism that deviates rays
    toward the base.

Tracing is struct-of-arrays.  For cell i, one numpy step takes the x, h and
theta arrays of every ray still on the line, solves the circle or segment
intersections, refracts by Snell's law and gives each ray a stop code:
crossed, missed, total internal reflection or turned backward.  A ray's
stop code is that of the first check it fails, in the order the surfaces
are met, so the arrays hold for every ray exactly what tracing it alone
would give.  The launch is an array too: collimated_bundle gives the K
launch heights, and trace_array traces them as axis-parallel rays from the
source plane into a RayBatch of per-ray arrays.  trace_cell is the same
step run on one RayState of any angle.  RayPath objects are built only when
a caller indexes or iterates a batch; refraction events are reported by
trace_cell only.

Every value equals, bit for bit, the one a per-ray scalar loop computes with
the math module; tests/scalar_tracer.py keeps such a loop as the oracle of
tests/test_batch_tracer.py.  numpy's +, -, *, / and sqrt round exactly as
math's do, and its cos and sin matched math.cos and math.sin on every input
checked.  Its vectorised arctan2 and tan do not: on x86-64 with AVX-512
they differ from math.atan2 and math.tan in the last bit for about 5 % and
0.5 % of inputs, and that drift reaches the written CSV files.  Those two
therefore run through math, one element at a time (_atan2, _tan).

All functions are pure; rays are independent and may be traced in parallel
and merged by index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Union

import numpy as np

from .optics import Media

# Intersection/arc-membership slop, in micrometres.
TOL = 1e-9

# Stop codes of one cell crossing, in the order a ray can meet them.
CROSSED, MISS, TIR, BACKWARD = 0, 1, 2, 3


class NoIntersection(Exception):
    """The ray misses the cell surface it was expected to hit."""


class TotalInternalReflection(Exception):
    """Refraction impossible; the ray is terminated by the caller."""


@dataclass(frozen=True)
class Fusiform:
    """Lens-shaped cell: height h_c across the axis, axial thickness w_c.

    Requires w_c <= h_c; a wider-than-tall lens degenerates the two-arc
    construction.
    """

    h_c: float
    w_c: float

    def __post_init__(self) -> None:
        if self.h_c <= 0.0 or self.w_c <= 0.0:
            raise ValueError("fusiform dimensions must be positive")
        if self.w_c > self.h_c:
            raise ValueError(
                f"fusiform requires w_c <= h_c, got w_c={self.w_c}, h_c={self.h_c}"
            )

    @property
    def curvature_radius(self) -> float:
        """Radius of both surface arcs; derived, never stored independently."""
        return (self.h_c**2 + self.w_c**2) / (4.0 * self.w_c)

    @property
    def axial_extent(self) -> float:
        return self.w_c

    @property
    def half_aperture(self) -> float:
        return 0.5 * self.h_c

    @property
    def max_chord(self) -> float:
        return self.w_c

    def chord_at(self, h: float) -> float:
        """Axial thickness of the lens at transverse offset h."""
        if abs(h) >= self.half_aperture:
            return 0.0
        r = self.curvature_radius
        return 2.0 * (math.sqrt(r * r - h * h) - (r - 0.5 * self.w_c))


@dataclass(frozen=True)
class Spherical:
    """Circular cell of radius r_c."""

    r_c: float

    def __post_init__(self) -> None:
        if self.r_c <= 0.0:
            raise ValueError("spherical radius must be positive")

    @property
    def axial_extent(self) -> float:
        return 2.0 * self.r_c

    @property
    def half_aperture(self) -> float:
        return self.r_c

    @property
    def max_chord(self) -> float:
        return 2.0 * self.r_c

    def chord_at(self, h: float) -> float:
        if abs(h) >= self.r_c:
            return 0.0
        return 2.0 * math.sqrt(self.r_c**2 - h * h)


@dataclass(frozen=True)
class Pyramidal:
    """Triangular (prism) cell: base length w_c along the axis, altitude h_c."""

    h_c: float
    w_c: float

    def __post_init__(self) -> None:
        if self.h_c <= 0.0 or self.w_c <= 0.0:
            raise ValueError("pyramidal dimensions must be positive")

    @property
    def apex_half_angle(self) -> float:
        return math.atan(self.w_c / (2.0 * self.h_c))

    @property
    def axial_extent(self) -> float:
        return self.w_c

    @property
    def half_aperture(self) -> float:
        return 0.5 * self.h_c

    @property
    def max_chord(self) -> float:
        return self.w_c

    def chord_at(self, h: float) -> float:
        """Axial width at transverse offset h (base at -h_c/2, apex at +h_c/2)."""
        if not -self.half_aperture < h < self.half_aperture:
            return 0.0
        return self.w_c * (self.half_aperture - h) / self.h_c


CellShape = Union[Fusiform, Spherical, Pyramidal]


@dataclass(frozen=True)
class ArrayLayout:
    """One-dimensional array of identical cells along the propagation axis.

    Attributes:
        shape: the cell cross-section
        n_cells: number of cells (>= 0)
        gap: tissue gap between consecutive cells (um)
        source_gap: source plane to the first cell entry vertex (um)
        detector_gap: last cell exit vertex to the detector plane (um)
    """

    shape: CellShape
    n_cells: int
    gap: float
    source_gap: float
    detector_gap: float

    def __post_init__(self) -> None:
        if self.n_cells < 0:
            raise ValueError("n_cells must be >= 0")
        if self.gap < 0.0 or self.source_gap < 0.0 or self.detector_gap < 0.0:
            raise ValueError("gaps must be non-negative")

    @property
    def total_length(self) -> float:
        """Source plane to detector plane distance (um)."""
        n = self.n_cells
        cells = n * self.shape.axial_extent + max(n - 1, 0) * self.gap
        return self.source_gap + cells + self.detector_gap

    def cell_entry_x(self, index: int) -> float:
        """Axial position of cell `index`'s entry vertex."""
        return self.source_gap + index * (self.shape.axial_extent + self.gap)


@dataclass(frozen=True)
class RayState:
    """A ray sample: position (x, h) and direction theta."""

    x: float
    h: float
    theta: float

    def __post_init__(self) -> None:
        if not abs(self.theta) < 0.5 * math.pi:
            raise ValueError(f"forward ray requires |theta| < pi/2, got {self.theta}")


@dataclass(frozen=True)
class RefractionEvent:
    """One interface crossing, kept for diagnostics and consistency checks."""

    x: float
    h: float
    normal_angle: float  # direction of the surface normal, rad from +x axis
    theta_in: float      # global ray angle before refraction
    theta_out: float     # global ray angle after refraction
    n_in: float
    n_out: float


@dataclass(frozen=True)
class FocusEntry:
    """Axis-crossing of one exit ray: convergence angle and crossing distance.

    x_f is measured from the cell's exit vertex; +inf means the exit ray is
    parallel to the axis, a negative value a virtual (upstream) crossing.
    """

    theta_f: float
    x_f: float


@dataclass(frozen=True)
class CellTrace:
    """Result of pushing one ray through one cell."""

    tissue_leg: float      # path length from the incoming position to the entry point
    entry: RayState        # at the entry surface, before refraction
    outgoing: RayState     # at the exit surface, after refraction
    chord: float           # geometric in-cell path length
    focus: Optional[FocusEntry]
    events: tuple[RefractionEvent, ...]


@dataclass
class RayPath:
    """Per-ray segment ledger plus termination bookkeeping.

    segments alternate ("tissue", length)/("cell", length); zero-length legs
    (e.g. a zero detector gap) are dropped.  status is "arrived", "leaked"
    or "deviated"; loss_cell is the index of the first cell the ray failed
    to traverse, None for arrived rays.
    """

    ray_index: int
    segments: list[tuple[str, float]]
    status: str
    loss_cell: Optional[int]
    exit: RayState

    def medium_length(self, tag: str) -> float:
        return sum(length for t, length in self.segments if t == tag)

    @property
    def cell_length(self) -> float:
        return self.medium_length("cell")

    @property
    def tissue_length(self) -> float:
        return self.medium_length("tissue")


@dataclass(eq=False)
class RayBatch:
    """Traced rays as arrays: entry i of every array belongs to one ray.

    status holds "arrived", "leaked" or "deviated" and loss_cell the first
    cell a ray failed to traverse (-1 for arrived rays).  The exit arrays
    give the detector-plane state of arrived and deviated rays and the last
    state before the loss of leaked ones.  cell_length and tissue_length are
    the summed per-medium path lengths.  legs[i, c] and chords[i, c] are the
    tissue leg into cell c and the chord through it, valid for the cells the
    ray traversed; final_leg is the leg on to the detector plane (0 for
    leaked rays).

    Indexing or iterating builds RayPath views.
    """

    ray_index: np.ndarray
    status: np.ndarray
    loss_cell: np.ndarray
    exit_x: np.ndarray
    exit_h: np.ndarray
    exit_theta: np.ndarray
    cell_length: np.ndarray
    tissue_length: np.ndarray
    legs: np.ndarray         # (K, N)
    chords: np.ndarray       # (K, N)
    final_leg: np.ndarray    # (K,)

    def __len__(self) -> int:
        return len(self.status)

    def __iter__(self) -> Iterator[RayPath]:
        return map(self.__getitem__, range(len(self)))

    def __getitem__(self, i: int) -> RayPath:
        i = range(len(self))[i]
        loss = int(self.loss_cell[i])
        crossed = self.legs.shape[1] if loss < 0 else loss
        segments: list[tuple[str, float]] = []
        for leg, chord in zip(self.legs[i, :crossed].tolist(),
                              self.chords[i, :crossed].tolist()):
            if leg > TOL:
                segments.append(("tissue", leg))
            if chord > TOL:
                segments.append(("cell", chord))
        final = float(self.final_leg[i])
        if final > TOL:
            segments.append(("tissue", final))
        exit_state = RayState(float(self.exit_x[i]), float(self.exit_h[i]),
                              float(self.exit_theta[i]))
        return RayPath(ray_index=int(self.ray_index[i]), segments=segments,
                       status=str(self.status[i]),
                       loss_cell=None if loss < 0 else loss,
                       exit=exit_state)


@dataclass(frozen=True)
class CellFocus:
    """Per-cell focus summary taken from the marginal (outermost) ray."""

    cell_index: int
    theta_f: Optional[float]
    x_f: Optional[float]
    illumination_radius: float  # max |h| over surviving rays at the cell exit


@dataclass
class FocusReport:
    """Illumination radii along the array plus per-cell focus entries."""

    source_radius: float
    cells: list[CellFocus]
    detector_radius: float


def _atan2(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Elementwise math.atan2 (see the module docstring for why not numpy's)."""
    return np.fromiter(map(math.atan2, y.tolist(), x.tolist()), float, len(y))


def _tan(x: np.ndarray) -> np.ndarray:
    """Elementwise math.tan (see the module docstring for why not numpy's)."""
    return np.fromiter(map(math.tan, x.tolist()), float, len(x))


def _stop(fate: np.ndarray, where: np.ndarray, code: int) -> None:
    """Give `code` to the rays still crossing for which `where` holds."""
    fate[(fate == CROSSED) & where] = code


def _refract(dx, dy, nx, ny, n_in: float, n_out: float):
    """Refract unit directions (dx, dy) at surfaces with normals (nx, ny).

    The normal orientation is irrelevant; it is flipped to face the ray.
    Returns the refracted direction and where Snell has no real solution.
    """
    cos_i = -(dx * nx + dy * ny)
    flip = cos_i < 0.0
    if flip.any():
        nx, ny = np.where(flip, -nx, nx), np.where(flip, -ny, ny)
        cos_i = np.where(flip, -cos_i, cos_i)
    eta = n_in / n_out
    k = 1.0 - eta * eta * (1.0 - cos_i * cos_i)
    coeff = eta * cos_i - np.sqrt(k)
    return eta * dx + coeff * nx, eta * dy + coeff * ny, k < 0.0


def _circle_roots(px, py, dx, dy, cx: float, r: float):
    """Ray/circle intersection parameters along unit directions (dx, dy).

    The circle is centred on the axis at cx.  Returns the roots of
    t^2 + 2bt + c = 0, smallest first and stable near c = 0, and where
    they are real.
    """
    mx = px - cx
    b = mx * dx + py * dy
    c = mx * mx + py * py - r * r
    disc = b * b - c
    s = np.sqrt(disc)
    t1 = np.where(b >= 0.0, -(b + s), -(b - s))
    t2 = c / t1
    zero = t1 == 0.0
    if zero.any():
        t1, t2 = np.where(zero, 0.0, t1), np.where(zero, 0.0, t2)
    first = t1 <= t2
    return np.where(first, t1, t2), np.where(first, t2, t1), ~(disc < 0.0)


def _segment_hit(px, py, dx, dy, ax: float, ay: float, bx: float, by: float):
    """Ray/segment intersection (t, s, hit), with point a + s*(b - a).

    hit is False where the ray runs parallel to the segment.
    """
    ex, ey = bx - ax, by - ay
    det = ex * dy - ey * dx
    t = (ex * (ay - py) - ey * (ax - px)) / det
    s = (dx * (ay - py) - dy * (ax - px)) / det
    return t, s, ~(np.abs(det) < 1e-15)


def _on_segment(s: np.ndarray) -> np.ndarray:
    return (-1e-12 <= s) & (s <= 1.0 + 1e-12)


@dataclass
class _Crossing:
    """K rays pushed through one cell.

    fate and surfaces cover every input ray; the other arrays hold only the
    rays that crossed, in input order.
    """

    fate: np.ndarray
    tissue_leg: np.ndarray
    entry_x: np.ndarray
    entry_h: np.ndarray
    chord: np.ndarray
    x: np.ndarray          # at the exit surface
    h: np.ndarray
    theta: np.ndarray      # after refraction
    dx: np.ndarray
    dy: np.ndarray
    # Per input ray: entry point, entry normal and in-cell direction, and
    # exit point and exit normal, each as (x, h) or (nx, ny) / (dx, dy).
    surfaces: tuple

    def focus(self, j: int, exit_vertex_x: float) -> FocusEntry:
        """Axis crossing of crossed ray j behind a radial cell."""
        theta_f = abs(float(self.theta[j]))
        dx, dy = float(self.dx[j]), float(self.dy[j])
        if abs(dy) < 1e-15:
            return FocusEntry(theta_f=theta_f, x_f=math.inf)
        x_cross = float(self.x[j]) - float(self.h[j]) * dx / dy
        return FocusEntry(theta_f=theta_f, x_f=x_cross - exit_vertex_x)

    def events(self, media: Media, theta_in: float) -> tuple[RefractionEvent, ...]:
        """Entry and exit refraction of input ray 0, which must have crossed."""
        def first(v) -> float:
            return float(v[0]) if np.ndim(v) else v

        def angle(v) -> float:
            return math.atan2(first(v[1]), first(v[0]))

        (ex, eh, n1, d1), (xx, xh, n2) = self.surfaces
        theta_mid = angle(d1)
        return (
            RefractionEvent(first(ex), first(eh), angle(n1), theta_in, theta_mid,
                            media.tissue.n, media.cell.n),
            RefractionEvent(first(xx), first(xh), angle(n2), theta_mid,
                            float(self.theta[0]), media.cell.n, media.tissue.n),
        )


def _crossing(fate, t_entry, ex, eh, n1, d1, t_exit, xx, xh, n2, d2) -> _Crossing:
    """Keep the crossed rays of one cell step.

    n1 and n2 are the entry and exit surface normals, arrays or scalars.
    """
    ok = fate == CROSSED
    dx, dy = d2[0][ok], d2[1][ok]
    t_entry = t_entry[ok]
    return _Crossing(
        fate=fate,
        tissue_leg=np.where(0.0 > t_entry, 0.0, t_entry),
        entry_x=ex[ok], entry_h=eh[ok], chord=t_exit[ok],
        x=xx[ok], h=xh[ok], theta=_atan2(dy, dx), dx=dx, dy=dy,
        surfaces=((ex, eh, n1, d1), (xx, xh, n2)),
    )


def _cross_radial(c1x: float, c2x: float, r: float, mid_x: Optional[float],
                  media: Media, px, py, theta) -> _Crossing:
    """Circle surfaces centred on the axis at c1x (entry) and c2x (exit).

    Fusiform cells pass the midplane mid_x between their two arcs.
    """
    fate = np.zeros(len(px), dtype=np.int8)
    dx, dy = np.cos(theta), np.sin(theta)

    t_entry, t_far, real = _circle_roots(px, py, dx, dy, c1x, r)
    _stop(fate, ~real | (t_entry < -TOL) | (t_far <= TOL), MISS)
    ex, eh = px + t_entry * dx, py + t_entry * dy
    if mid_x is not None:
        # First hit is beyond the arc's extent: the ray skims past the lens.
        _stop(fate, ex > mid_x + TOL, MISS)
    n1x, n1y = (ex - c1x) / r, eh / r
    d1x, d1y, tir = _refract(dx, dy, n1x, n1y, media.tissue.n, media.cell.n)
    _stop(fate, tir, TIR)
    _stop(fate, d1x <= 0.0, BACKWARD)

    _, t_exit, real = _circle_roots(ex, eh, d1x, d1y, c2x, r)
    _stop(fate, ~real | (t_exit <= TOL), MISS)
    xx, xh = ex + t_exit * d1x, eh + t_exit * d1y
    if mid_x is not None:
        _stop(fate, xx < mid_x - TOL, MISS)
    n2x, n2y = (xx - c2x) / r, xh / r
    d2x, d2y, tir = _refract(d1x, d1y, n2x, n2y, media.cell.n, media.tissue.n)
    _stop(fate, tir, TIR)
    _stop(fate, d2x <= 0.0, BACKWARD)
    return _crossing(fate, t_entry, ex, eh, (n1x, n1y), (d1x, d1y),
                     t_exit, xx, xh, (n2x, n2y), (d2x, d2y))


def _cross_pyramidal(shape: Pyramidal, media: Media, entry_x: float,
                     px, py, theta) -> _Crossing:
    half = shape.half_aperture
    ax, ay = entry_x, -half                      # base-left corner
    bx, by = entry_x + shape.w_c, -half          # base-right corner
    tx_, ty_ = entry_x + 0.5 * shape.w_c, half   # apex
    fate = np.zeros(len(px), dtype=np.int8)
    dx, dy = np.cos(theta), np.sin(theta)

    t_entry, s, hit = _segment_hit(px, py, dx, dy, ax, ay, tx_, ty_)
    _stop(fate, ~hit | (t_entry < -TOL) | ~_on_segment(s), MISS)
    ex, eh = px + t_entry * dx, py + t_entry * dy
    # Left face normal, perpendicular to (apex - base-left).
    fx, fy = tx_ - ax, ty_ - ay
    norm = math.hypot(fx, fy)
    n1x, n1y = fy / norm, -fx / norm
    d1x, d1y, tir = _refract(dx, dy, n1x, n1y, media.tissue.n, media.cell.n)
    _stop(fate, tir, TIR)
    _stop(fate, d1x <= 0.0, BACKWARD)

    # Exit through the right face or, for steeply descending rays, the base:
    # the nearer valid hit, the right face on a tie.
    t_right, s, hit = _segment_hit(ex, eh, d1x, d1y, tx_, ty_, bx, by)
    right = hit & (t_right > TOL) & _on_segment(s)
    t_base, s, hit = _segment_hit(ex, eh, d1x, d1y, bx, by, ax, ay)
    base = hit & (t_base > TOL) & _on_segment(s)
    _stop(fate, ~(right | base), MISS)
    use_base = base & (~right | (t_base < t_right))
    t_exit = np.where(use_base, t_base, t_right)
    n2x = np.where(use_base, 0.0, fy / norm)     # base or right face normal
    n2y = np.where(use_base, -1.0, fx / norm)
    xx, xh = ex + t_exit * d1x, eh + t_exit * d1y
    d2x, d2y, tir = _refract(d1x, d1y, n2x, n2y, media.cell.n, media.tissue.n)
    _stop(fate, tir, TIR)
    _stop(fate, d2x <= 0.0, BACKWARD)
    return _crossing(fate, t_entry, ex, eh, (n1x, n1y), (d1x, d1y),
                     t_exit, xx, xh, (n2x, n2y), (d2x, d2y))


def _cross(shape: CellShape, media: Media, entry_x: float, x, h, theta) -> _Crossing:
    """Push rays through the cell whose entry vertex sits at entry_x.

    Circle surfaces take the upstream root for the entry surface and the
    downstream root for the exit surface.
    """
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        if isinstance(shape, Spherical):
            c = entry_x + shape.r_c
            return _cross_radial(c, c, shape.r_c, None, media, x, h, theta)
        if isinstance(shape, Fusiform):
            r = shape.curvature_radius
            return _cross_radial(entry_x + r, entry_x + shape.w_c - r, r,
                                 entry_x + 0.5 * shape.w_c, media, x, h, theta)
        if isinstance(shape, Pyramidal):
            return _cross_pyramidal(shape, media, entry_x, x, h, theta)
    raise TypeError(f"unsupported shape {type(shape).__name__}")


def trace_cell(shape: CellShape, media: Media, incoming: RayState,
               entry_x: float) -> CellTrace:
    """Trace one ray through one cell whose entry vertex sits at entry_x.

    Raises NoIntersection when the ray misses the cell and
    TotalInternalReflection when a surface cannot refract it forward.
    """
    c = _cross(shape, media, entry_x, np.array([incoming.x]),
               np.array([incoming.h]), np.array([incoming.theta]))
    if c.fate[0] == MISS:
        raise NoIntersection
    if c.fate[0] != CROSSED:
        raise TotalInternalReflection
    theta = incoming.theta
    return CellTrace(
        tissue_leg=float(c.tissue_leg[0]),
        entry=RayState(float(c.entry_x[0]), float(c.entry_h[0]),
                       math.atan2(math.sin(theta), math.cos(theta))),
        outgoing=RayState(float(c.x[0]), float(c.h[0]), float(c.theta[0])),
        chord=float(c.chord[0]),
        focus=None if isinstance(shape, Pyramidal)
        else c.focus(0, entry_x + shape.axial_extent),
        events=c.events(media, theta),
    )


def collimated_bundle(shape: CellShape, k: int) -> np.ndarray:
    """Launch heights of K axis-parallel rays spanning the entrance aperture.

    Midpoint spacing keeps the grid uniform while avoiding rays exactly on
    the aperture rim, and makes runs reproducible without any randomness.
    """
    if k < 1:
        raise ValueError("bundle needs at least one ray")
    half = shape.half_aperture
    width = 2.0 * half
    return (np.arange(k) + 0.5) / k * width - half


def trace_array(layout: ArrayLayout, media: Media,
                h0: np.ndarray) -> tuple[RayBatch, FocusReport]:
    """Trace axis-parallel rays from (0, h0) through the array to the detector.

    Rays that miss a cell are leaked for radial shapes (removed from the
    propagation line) and deviated for pyramidal cells, where the straight
    continuation still travels to the detector plane.  Total internal
    reflection terminates a ray as leaked in every shape.
    """
    if len(h0) == 0:
        raise ValueError("empty ray bundle")
    shape, k, n = layout.shape, len(h0), layout.n_cells
    miss_status = "deviated" if isinstance(shape, Pyramidal) else "leaked"
    # Rows x, h, theta, cell length, tissue length: `rays` for every ray,
    # `run` for the rays still on the line (indexed by `live`).  A ray's row
    # is written back to `rays` when it stops and after the last cell.
    rays = np.zeros((5, k))
    rays[1] = h0
    source_radius = float(np.max(np.abs(rays[1])))
    status = np.full(k, "arrived", dtype="<U8")
    loss_cell = np.full(k, -1)
    legs, chords = np.zeros((k, n)), np.zeros((k, n))
    radii = [0.0] * n
    focus: list[Optional[FocusEntry]] = [None] * n

    live, run = np.arange(k), rays.copy()
    for cell in range(n):
        if not live.size:
            break
        entry_x = layout.cell_entry_x(cell)
        c = _cross(shape, media, entry_x, run[0], run[1], run[2])
        stopped = c.fate != CROSSED
        if stopped.any():
            lost = live[stopped]
            loss_cell[lost] = cell
            status[lost] = np.where(c.fate[stopped] == MISS, miss_status, "leaked")
            rays[:, lost] = run[:, stopped]
            live, run = live[~stopped], run[:, ~stopped]
            if not live.size:
                break
        legs[live, cell] = c.tissue_leg
        chords[live, cell] = c.chord
        # Lengths accumulate cell by cell, as a per-ray sum would.
        run[3] += np.where(c.chord > TOL, c.chord, 0.0)
        run[4] += np.where(c.tissue_leg > TOL, c.tissue_leg, 0.0)
        run[:3] = c.x, c.h, c.theta
        radii[cell] = float(np.max(np.abs(c.h)))
        if not isinstance(shape, Pyramidal):
            marginal = int(np.argmax(np.abs(c.entry_h)))
            focus[cell] = c.focus(marginal, entry_x + shape.axial_extent)
    rays[:, live] = run

    x, h, theta, cell_length, tissue_length = rays
    delivered = np.flatnonzero(status != "leaked")
    d_total = layout.total_length
    remaining = d_total - x[delivered]
    final_leg = np.zeros(k)
    final_leg[delivered] = remaining / np.cos(theta[delivered])
    tissue_length[delivered] += np.where(final_leg[delivered] > TOL,
                                         final_leg[delivered], 0.0)
    h[delivered] += _tan(theta[delivered]) * remaining
    x[delivered] = d_total
    detector_radius = float(np.max(np.abs(h[delivered]))) if delivered.size else 0.0

    batch = RayBatch(
        ray_index=np.arange(k), status=status, loss_cell=loss_cell,
        exit_x=x, exit_h=h, exit_theta=theta,
        cell_length=cell_length, tissue_length=tissue_length,
        legs=legs, chords=chords, final_leg=final_leg,
    )
    cells = [
        CellFocus(
            cell_index=i,
            theta_f=None if focus[i] is None else focus[i].theta_f,
            x_f=None if focus[i] is None else focus[i].x_f,
            illumination_radius=radii[i],
        )
        for i in range(n)
    ]
    report = FocusReport(
        source_radius=source_radius,
        cells=cells,
        detector_radius=detector_radius if detector_radius > 0.0 else math.nan,
    )
    return batch, report


def center_line(layout: ArrayLayout) -> Iterator[tuple[float, str, int]]:
    """(length, medium, samples) of each stretch of the axial ray, source to detector.

    Stretches of zero length are left out.  A stretch is sampled every 1 um
    and at its end: ceil(length) samples.  The center line enters the shape
    pad/2 past the entry vertex when the mid-height chord is shorter than
    the axial extent (pyramidal cells).
    """
    chord = layout.shape.chord_at(0.0)
    pad = layout.shape.axial_extent - chord
    cursor = 0.0
    for i in range(layout.n_cells):
        entry = layout.cell_entry_x(i) + 0.5 * pad
        yield from _stretch(entry - cursor, "tissue")
        yield from _stretch(chord, "cell")
        cursor = entry + chord
    yield from _stretch(layout.total_length - cursor, "tissue")


def _stretch(length: float, medium: str) -> Iterator[tuple[float, str, int]]:
    if length > 0.0:
        yield length, medium, math.ceil(length)


def avg_distances(shape: CellShape, gap: float) -> tuple[float, float]:
    """Aperture-averaged in-cell chord and inter-cell path, both in um.

    Closed forms match numerical quadrature of their defining integrals to
    better than 1e-9 relative error:
      * spherical: pi*r/2 and gap + (1 - pi/4)*r (the dimensionally
        consistent linear-in-r form);
      * pyramidal: the chord average w/2 of a triangle of base w, and
        gap + w/4 from the half-chord average;
      * fusiform: the two-arc surface integrals between x = (r - h)/2 and
        x = r/2 evaluated analytically.
    """
    if isinstance(shape, Spherical):
        r = shape.r_c
        return 0.5 * math.pi * r, gap + (1.0 - 0.25 * math.pi) * r
    if isinstance(shape, Pyramidal):
        return 0.5 * shape.w_c, gap + 0.25 * shape.w_c
    if isinstance(shape, Fusiform):
        h, w = shape.h_c, shape.w_c
        r = shape.curvature_radius
        surd = math.sqrt(3.0 * r * r + 2.0 * h * r - h * h)
        asn = math.asin((r - h) / (2.0 * r))
        d_a = (
            6.0 * h * w
            - 12.0 * r * r * asn
            + 3.0 * (h - r) * surd
            + (2.0 * math.pi + math.sqrt(27.0)) * r * r
            - 12.0 * h * r
        ) / (6.0 * h)
        d_e = gap + (
            6.0 * h * w
            + 12.0 * r * r * asn
            + 3.0 * (r - h) * surd
            - (2.0 * math.pi + math.sqrt(27.0)) * r * r
        ) / (12.0 * h)
        return d_a, d_e
    raise TypeError(f"unsupported shape {type(shape).__name__}")
