"""2-D geometric ray tracing through one-dimensional arrays of cell lenses.

Coordinates: x runs along the propagation axis, h across it, both in
micrometres.  Ray angles are measured from the +x axis, counterclockwise
positive, and every live ray satisfies |theta| < pi/2 (forward propagating).

Three cell cross-sections are supported, each a class:
  * Fusiform - a biconvex lens bounded by two circular arcs that meet at
    height +-h_c/2; axial thickness w_c, surface curvature radius
    (h_c^2 + w_c^2) / (4 w_c).
  * Spherical - a circle of radius r_c.
  * Pyramidal - an isosceles triangle with its base parallel to the axis at
    h = -h_c/2 and the apex at +h_c/2, acting as a prism that deviates rays
    toward the base.
A shape's enter and leave give (t, x, h, miss, normal) of each ray's hit on
its entry and exit surface (circles for _Radial, Fusiform and Spherical;
faces for Pyramidal), its miss_fate what a miss becomes, and avg_distances
the aperture-averaged chord and gap path in closed forms that match
numerical quadrature to 1e-9 relative.

Tracing is struct-of-arrays.  For cell i, one numpy step (_cross) takes the
x, h and theta arrays of every ray still on the line, has the shape find its
hits and refracts at each by Snell's law.  It returns a stop code and the
entry and exit crossing (distance, point, normal, direction) of every input
ray.  The stop code, CROSSED, MISS, TIR (total internal reflection) or
BACKWARD, is that of the first check a ray fails, in the order the surfaces
are met, so the arrays hold for every ray exactly what tracing it alone
would give.  It becomes the ray's int8 fate in RayBatch, a MISS as the
shape's miss_fate; STATUS gives each fate's word (arrived, leaked or
deviated).  The launch is an array too: collimated_bundle gives
the K launch heights, and trace_array traces them as axis-parallel rays from the
source plane into a RayBatch of per-ray arrays.  trace_arrays does that
for several layouts on one cell line (equal shape, gap and source gap) in
one pass through the longest: cell i's entry vertex does not depend on the
cell count, so each layout's rays are a copy of the shared state at its
count, run on to its own detector plane.  The cell loop lives there alone;
trace_array is its one-layout case, and no other tracer is in the package.

Every value equals, bit for bit, the one a per-ray scalar loop computes with
the math module; tests/scalar_tracer.py keeps such a loop as the oracle of
tests/test_batch_tracer.py.  numpy's +, -, *, / and sqrt round exactly as
math's do, and its cos and sin matched math.cos and math.sin on every input
checked.  Its vectorised arctan2 and tan do not: on x86-64 with AVX-512
they differ from math.atan2 and math.tan in the last bit for about 5 % and
0.5 % of inputs, and that drift reaches the written CSV files.  Those two
therefore run through math by optics.elementwise, the rule's one home.

All functions are pure; rays are independent and may be traced in parallel
and merged by index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Iterator, Sequence, Union

import numpy as np

from .optics import Media, elementwise

# Intersection/arc-membership slop, in micrometres.
TOL = 1e-9

# Fate codes: the stop codes of a cell crossing, in the order a ray can meet
# them, and DEVIATED for a pyramidal miss, which runs on to the detector.
CROSSED, MISS, TIR, BACKWARD, DEVIATED = range(5)
# Each fate's word in rays.csv, the report's counts and a batch's status view.
STATUS = np.array(["arrived", "leaked", "leaked", "leaked", "deviated"])
STATUS.flags.writeable = False


class _Radial:
    """Cells bounded by circles centred on the axis; a ray that misses one leaks.

    _circles(entry_x) gives the entry and exit circle centres, their radius
    and the midplane where a lens's arcs meet (None for a sphere).  Entry
    takes a circle's upstream root, exit its downstream root.
    """

    miss_fate = MISS

    def enter(self, entry_x: float, px, py, dx, dy) -> tuple:
        c1x, _, r, mid_x = self._circles(entry_x)
        t, t_far, real = _circle_roots(px, py, dx, dy, c1x, r)
        miss = ~real | (t < -TOL) | (t_far <= TOL)
        x, h = px + t * dx, py + t * dy
        if mid_x is not None:
            # First hit is beyond the arc's extent: the ray skims past the lens.
            miss |= x > mid_x + TOL
        return t, x, h, miss, ((x - c1x) / r, h / r)

    def leave(self, entry_x: float, px, py, dx, dy) -> tuple:
        _, c2x, r, mid_x = self._circles(entry_x)
        _, t, real = _circle_roots(px, py, dx, dy, c2x, r)
        miss = ~real | (t <= TOL)
        x, h = px + t * dx, py + t * dy
        if mid_x is not None:
            miss |= x < mid_x - TOL
        return t, x, h, miss, ((x - c2x) / r, h / r)


@dataclass(frozen=True)
class Fusiform(_Radial):
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

    def chord_at(self, h: float) -> float:
        """Axial thickness of the lens at transverse offset h."""
        if abs(h) >= self.half_aperture:
            return 0.0
        r = self.curvature_radius
        return 2.0 * (math.sqrt(r * r - h * h) - (r - 0.5 * self.w_c))

    def _circles(self, entry_x: float) -> tuple:
        r = self.curvature_radius
        return entry_x + r, entry_x + self.w_c - r, r, entry_x + 0.5 * self.w_c

    def avg_distances(self, gap: float) -> tuple[float, float]:
        """Aperture-averaged in-cell chord and inter-cell path (um): the
        two-arc surface integrals between x = (r - h)/2 and x = r/2, solved."""
        h, w = self.h_c, self.w_c
        r = self.curvature_radius
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


@dataclass(frozen=True)
class Spherical(_Radial):
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

    def chord_at(self, h: float) -> float:
        if abs(h) >= self.r_c:
            return 0.0
        return 2.0 * math.sqrt(self.r_c**2 - h * h)

    def _circles(self, entry_x: float) -> tuple:
        c = entry_x + self.r_c
        return c, c, self.r_c, None

    def avg_distances(self, gap: float) -> tuple[float, float]:
        """Aperture-averaged in-cell chord pi*r/2 and inter-cell path
        gap + (1 - pi/4)*r (the dimensionally consistent linear-in-r form), in um."""
        r = self.r_c
        return 0.5 * math.pi * r, gap + (1.0 - 0.25 * math.pi) * r


@dataclass(frozen=True)
class Pyramidal:
    """Triangular (prism) cell: base length w_c along the axis, altitude h_c."""

    h_c: float
    w_c: float

    miss_fate = DEVIATED

    def __post_init__(self) -> None:
        if self.h_c <= 0.0 or self.w_c <= 0.0:
            raise ValueError("pyramidal dimensions must be positive")

    @property
    def axial_extent(self) -> float:
        return self.w_c

    @property
    def half_aperture(self) -> float:
        return 0.5 * self.h_c

    def chord_at(self, h: float) -> float:
        """Axial width at transverse offset h (base at -h_c/2, apex at +h_c/2)."""
        if not -self.half_aperture < h < self.half_aperture:
            return 0.0
        return self.w_c * (self.half_aperture - h) / self.h_c

    def _corners(self, entry_x: float) -> tuple:
        """Base-left, base-right and apex (x, h); the left face's unit vector."""
        half = self.half_aperture
        ax, ay = entry_x, -half
        tx, ty = entry_x + 0.5 * self.w_c, half
        fx, fy = tx - ax, ty - ay
        norm = math.hypot(fx, fy)
        return (ax, ay), (entry_x + self.w_c, -half), (tx, ty), (fx / norm, fy / norm)

    def enter(self, entry_x: float, px, py, dx, dy) -> tuple:
        """Through the left face."""
        (ax, ay), _, (tx, ty), (ux, uy) = self._corners(entry_x)
        t, s, hit = _segment_hit(px, py, dx, dy, ax, ay, tx, ty)
        miss = ~hit | (t < -TOL) | ~_on_segment(s)
        return t, px + t * dx, py + t * dy, miss, (uy, -ux)

    def leave(self, entry_x: float, px, py, dx, dy) -> tuple:
        """Through the right face or, for steeply descending rays, the base:
        the nearer valid hit, the right face on a tie."""
        (ax, ay), (bx, by), (tx, ty), (ux, uy) = self._corners(entry_x)
        t_right, s, hit = _segment_hit(px, py, dx, dy, tx, ty, bx, by)
        right = hit & (t_right > TOL) & _on_segment(s)
        t_base, s, hit = _segment_hit(px, py, dx, dy, bx, by, ax, ay)
        base = hit & (t_base > TOL) & _on_segment(s)
        use_base = base & (~right | (t_base < t_right))
        t = np.where(use_base, t_base, t_right)
        normal = np.where(use_base, 0.0, uy), np.where(use_base, -1.0, ux)
        return t, px + t * dx, py + t * dy, ~(right | base), normal

    def avg_distances(self, gap: float) -> tuple[float, float]:
        """Aperture-averaged in-cell chord w/2 (a triangle of base w) and
        inter-cell path gap + w/4 (from the half-chord average), in um."""
        return 0.5 * self.w_c, gap + 0.25 * self.w_c


CellShape = Union[Fusiform, Spherical, Pyramidal]


def span(shape: CellShape, n_cells: int, gap: float) -> float:
    """Axial length of n_cells cells with a gap between each two (um)."""
    return n_cells * shape.axial_extent + max(n_cells - 1, 0) * gap


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
        return self.source_gap + span(self.shape, self.n_cells, self.gap) + self.detector_gap

    def cell_entry_x(self, index: int) -> float:
        """Axial position of cell `index`'s entry vertex."""
        return self.source_gap + index * (self.shape.axial_extent + self.gap)


@dataclass(eq=False)
class RayBatch:
    """Traced rays as arrays: entry i of every array belongs to ray i.

    fate holds each ray's int8 fate code and loss_cell the first cell it
    failed to traverse (-1 for arrived rays).  The exit arrays give the
    detector-plane state of delivered rays and the last state before the
    loss of leaked ones.  cell_length and tissue_length are the summed
    per-medium path lengths, all that a ray's channel atom reads.

    Iterating a batch gives each ray's status view, a namespace whose one
    attribute, status, is the ray's STATUS word.  perfbench/spans.py's
    delivered-ray counter is its only reader; __iter__ goes when that
    counter reads delivered (ROADMAP item 1).
    """

    fate: np.ndarray
    loss_cell: np.ndarray
    exit_x: np.ndarray
    exit_h: np.ndarray
    exit_theta: np.ndarray
    cell_length: np.ndarray
    tissue_length: np.ndarray

    def __len__(self) -> int:
        return len(self.fate)

    @property
    def delivered(self) -> np.ndarray:
        """Where a ray reaches the detector plane: it arrived or deviated."""
        return (self.fate == CROSSED) | (self.fate == DEVIATED)

    def __iter__(self) -> Iterator[SimpleNamespace]:
        return (SimpleNamespace(status=word) for word in STATUS[self.fate].tolist())


@dataclass(eq=False)
class FocusReport:
    """Illumination radii along the array and each cell's marginal-ray focus.

    Entry i of radius, theta_f and x_f belongs to cell i: max |h| over the
    rays leaving it (0.0 if none does) and the outermost one's focus (_focus).
    NaN marks a value that does not exist: the focus of a pyramidal cell or
    of a cell no ray leaves, and the detector radius with no delivered ray.
    """

    source_radius: float
    radius: np.ndarray
    theta_f: np.ndarray
    x_f: np.ndarray
    detector_radius: float


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


def _fate(*checks) -> np.ndarray:
    """Stop code of each ray: that of the first (where, code) check it fails.

    Written last check first, so an earlier failing check overwrites a later.
    """
    fate = np.zeros(len(checks[0][0]), dtype=np.int8)
    for where, code in reversed(checks):
        fate[where] = code
    return fate


def _focus(x: float, h: float, dx: float, dy: float, theta: float,
           exit_vertex_x: float) -> tuple[float, float]:
    """(theta_f, x_f) of the ray leaving a radial cell at (x, h) along (dx, dy).

    theta_f is the convergence angle |theta|.  x_f is where the ray crosses
    the axis, measured from the cell's exit vertex: +inf for an exit ray
    parallel to the axis, negative for a virtual (upstream) crossing.
    """
    theta_f = abs(theta)
    if abs(dy) < 1e-15:
        return theta_f, math.inf
    x_cross = x - h * dx / dy
    return theta_f, x_cross - exit_vertex_x


def _cross(shape: CellShape, media: Media, entry_x: float, x, h, theta) -> tuple:
    """Push rays through the cell whose entry vertex sits at entry_x.

    Returns (fate, t_entry, ex, eh, n1, d1, t_exit, xx, xh, n2, d2) over
    every input ray: the stop code; the distance to the entry point (ex,
    eh), its normal and the direction after refraction; the same at the
    exit, whose distance is the chord.  Normals and directions are (x, h)
    pairs; a flat face's normal may be floats.  Values past a ray's stop
    are meaningless.  The shape finds the surface hits (enter, leave);
    this step refracts at them.
    """
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        dx, dy = np.cos(theta), np.sin(theta)
        t_entry, ex, eh, miss_in, n1 = shape.enter(entry_x, x, h, dx, dy)
        d1x, d1y, tir_in = _refract(dx, dy, *n1, media.tissue.n, media.cell.n)
        t_exit, xx, xh, miss_out, n2 = shape.leave(entry_x, ex, eh, d1x, d1y)
        d2x, d2y, tir_out = _refract(d1x, d1y, *n2, media.cell.n, media.tissue.n)
        fate = _fate((miss_in, MISS), (tir_in, TIR), (d1x <= 0.0, BACKWARD),
                     (miss_out, MISS), (tir_out, TIR), (d2x <= 0.0, BACKWARD))
    return (fate, t_entry, ex, eh, n1, (d1x, d1y), t_exit, xx, xh, n2, (d2x, d2y))


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
    return trace_arrays([layout], media, h0)[0]


def cell_line(layout: ArrayLayout) -> tuple[CellShape, float, float]:
    """What layouts traced together must share: all but the cell count and detector gap."""
    return layout.shape, layout.gap, layout.source_gap


def trace_arrays(layouts: Sequence[ArrayLayout], media: Media,
                 h0: np.ndarray) -> list[tuple[RayBatch, FocusReport]]:
    """trace_array of every layout, from one pass through the longest array.

    The layouts must share shape, gap and source_gap (ValueError otherwise);
    their cell counts may repeat, come in any order or be 0.  Cell i's entry
    vertex does not depend on the cell count, so the rays leave every cell
    two such layouts share in the same state, bit for bit.  The rays are
    traced once through the largest count; on reaching a layout's count the
    state is copied and run on to that layout's own detector plane.
    """
    if len(h0) == 0:
        raise ValueError("empty ray bundle")
    if len(set(map(cell_line, layouts))) > 1:
        raise ValueError("layouts traced together must share shape, gap and source_gap")
    at_count: dict[int, list[int]] = {}  # cell count -> indices of its layouts
    for i, layout in enumerate(layouts):
        at_count.setdefault(layout.n_cells, []).append(i)
    results: list = [None] * len(layouts)
    shape, k, n_max = layouts[0].shape, len(h0), max(at_count)
    # Rows x, h, theta, cell length, tissue length: `run` for the rays still
    # on the line (indexed by `live`), `rays` for every ray.  A ray's row of
    # `rays` is written when it stops and when a layout ends, so it needs no
    # fill; until a ray stops, `run` is the whole bundle.
    rays = np.empty((5, k))
    run = np.zeros((5, k))
    run[1] = h0
    source_radius = float(np.max(np.abs(run[1])))
    fate = np.full(k, CROSSED, dtype=np.int8)
    loss_cell = np.full(k, -1)
    # Rows radius, theta_f, x_f of each cell: FocusReport's arrays.
    cells = np.full((3, n_max), math.nan)
    cells[0] = 0.0

    # Every layout but the last to end gets a copy of the state it ends in.
    last = (n_max, at_count[n_max][-1])
    live = np.arange(k)
    for cell in range(n_max + 1):
        for i in at_count.get(cell, ()):
            own = np.asarray if (cell, i) == last else np.copy
            if live.size == k:  # no ray has stopped: run is every ray's row
                state = own(run)
            else:
                state = own(rays)
                state[:, live] = run
            results[i] = _to_detector(layouts[i], state, own(fate), own(loss_cell),
                                      own(cells[:, :cell]), source_radius)
        if cell == n_max or not live.size:
            continue
        entry_x = layouts[0].cell_entry_x(cell)
        step, t_entry, _, eh, _, _, t_exit, xx, xh, _, (dx, dy) = _cross(
            shape, media, entry_x, run[0], run[1], run[2])
        stopped = step != CROSSED
        if stopped.any():
            lost = live[stopped]
            loss_cell[lost] = cell
            fate[lost] = np.where(step[stopped] == MISS, shape.miss_fate, step[stopped])
            rays[:, lost] = run[:, stopped]
            crossed = ~stopped
            live, run = live[crossed], run[:, crossed]
            if not live.size:
                continue
            t_entry, eh, t_exit, xx, xh, dx, dy = (
                a[crossed] for a in (t_entry, eh, t_exit, xx, xh, dx, dy))
        # Lengths accumulate cell by cell, as a per-ray sum would; a leg not
        # above TOL, a negative t_entry included, adds nothing.
        run[3] += np.where(t_exit > TOL, t_exit, 0.0)
        run[4] += np.where(t_entry > TOL, t_entry, 0.0)
        theta = elementwise(math.atan2, dy, dx)
        run[:3] = xx, xh, theta
        cells[0, cell] = np.max(np.abs(xh))
        if isinstance(shape, _Radial):
            j = int(np.argmax(np.abs(eh)))  # the marginal ray
            cells[1:, cell] = _focus(float(xx[j]), float(xh[j]), float(dx[j]),
                                     float(dy[j]), float(theta[j]),
                                     entry_x + shape.axial_extent)
    return results


def _to_detector(layout: ArrayLayout, rays: np.ndarray, fate: np.ndarray,
                 loss_cell: np.ndarray, cells: np.ndarray,
                 source_radius: float) -> tuple[RayBatch, FocusReport]:
    """Run the rays past layout's last cell on to its detector plane.

    rays holds trace_arrays' five rows (x, h, theta, cell and tissue length)
    after that cell and is updated in place; fate and loss_cell are the
    per-ray records of layout's cells, cells the rows radius, theta_f and
    x_f of each of them.
    """
    x, h, theta, cell_length, tissue_length = rays
    batch = RayBatch(fate=fate, loss_cell=loss_cell, exit_x=x, exit_h=h,
                     exit_theta=theta, cell_length=cell_length,
                     tissue_length=tissue_length)
    delivered = np.flatnonzero(batch.delivered)
    d_total = layout.total_length
    remaining = d_total - x[delivered]
    final_leg = remaining / np.cos(theta[delivered])
    tissue_length[delivered] += np.where(final_leg > TOL, final_leg, 0.0)
    h[delivered] += elementwise(math.tan, theta[delivered]) * remaining
    x[delivered] = d_total
    detector_radius = float(np.max(np.abs(h[delivered]))) if delivered.size else 0.0
    return batch, FocusReport(source_radius, *cells,
                              detector_radius if detector_radius > 0.0 else math.nan)


def center_line(layout: ArrayLayout) -> Iterator[tuple[float, str, int, float]]:
    """(length, medium, samples, end) of each stretch of the axial ray, source to detector.

    A stretch is sampled every 1 um and at its end: ceil(length) samples.
    Each cell gives one, a zero chord too, and the n-th ends where n cells'
    last stretch starts; zero-length tissue stretches are left out.  The
    line enters the shape pad/2 past the entry vertex when the mid-height
    chord is shorter than the axial extent (pyramidal cells).
    """
    chord = layout.shape.chord_at(0.0)  # >= 0.0 in every shape: sqrt(r * r) is r
    pad = layout.shape.axial_extent - chord
    cursor = 0.0
    for i in range(layout.n_cells):
        entry = layout.cell_entry_x(i) + 0.5 * pad
        yield from _stretch(entry - cursor, entry)
        cursor = entry + chord
        yield chord, "cell", math.ceil(chord), cursor
    yield from _stretch(layout.total_length - cursor, layout.total_length)


def _stretch(length: float, end: float) -> Iterator[tuple[float, str, int, float]]:
    if length > 0.0:
        yield length, "tissue", math.ceil(length), end
